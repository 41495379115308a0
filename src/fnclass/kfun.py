"""Truth-table representation of functions f: Z_k^n -> Z_k.

A function is a radix-k table of length k^n.  The point (a_1, ..., a_n) maps
to table index sum a_i * k^(i-1): variable 1 is the least significant digit.
The table read as a k-ary numeral is the function's id; for k=2 that id is
also the packed word (bit i = entry i) behind the hex serialization.
Cofactors and essential variables go through `bitops`' table kernel, the
same code for every radix.  A table's text (hex at k = 2, else its cells)
comes from `hex_text` and `digits_text`, which `table_texts` also uses to
write many tables straight from their ids.

Restrictions (cofactors) keep the arity: fixing x_i = c yields a table of
the same length that no longer depends on slot i.  Subfunction equality is
therefore plain table equality.
"""

from __future__ import annotations

import string
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

from . import bitops

# Variable sets are 1-based index sets; assignments map index -> constant.
VarSet = frozenset[int]
PartialAssignment = Mapping[int, int]

#: Refuse to materialize tables above this many cells.
DEFAULT_MAX_CELLS = 2 ** 32


@lru_cache(maxsize=1 << 12)
def var_set(mask: int) -> VarSet:
    """The variable set of a bit mask: i + 1 for each set bit i."""
    return frozenset(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def _check_space(k: int, n: int) -> None:
    if k < 2:
        raise ValueError(f"radix k must be >= 2, got {k}")
    if k > 256:
        raise ValueError(f"radix k must be <= 256, got {k}: table cells are "
                         f"bytes")
    if n < 0:
        raise ValueError(f"arity n must be >= 0, got {n}")


def table_size(k: int, n: int) -> int:
    """k^n, the cells of an n-ary table over Z_k; ValueError where no table
    fits, before anything is allocated."""
    _check_space(k, n)
    size = k ** n
    if size > DEFAULT_MAX_CELLS:
        raise ValueError(f"table of k^n = {size} cells exceeds limit "
                         f"{DEFAULT_MAX_CELLS}")
    return size


def space_size(k: int, n: int, limit: int) -> int | None:
    """k^(k^n), the functions of P_k^n, or None where that exceeds `limit`;
    ValueError, as from `table_size`, for a radix or arity no table takes.

    Exact without writing out a huge power: capping both exponents at
    limit's bit length c changes nothing below the limit, and k^c > limit.
    """
    _check_space(k, n)
    cap = limit.bit_length()
    size = k ** min(k ** min(n, cap), cap)
    return size if size <= limit else None


def hex_text(word: int, n: int) -> str:
    """A binary table's text: its word in hex, one digit per 4 cells."""
    return format(word, f"0{max(1, ((1 << n) + 3) // 4)}x")


def digits_text(values: Iterable[int]) -> str:
    """A table's text for k > 2: its cells, comma-separated, cell 0 first."""
    return ",".join(map(str, values))


def table_texts(ids, k: int, n: int) -> list[str]:
    """`KFunction.table_text` of each id, decoded in bulk: hex straight from
    the id at k = 2, else the cells of one `bitops.tables_from_ids` call."""
    if k == 2:
        return [hex_text(ident, n) for ident in ids]
    return [digits_text(row)
            for row in bitops.tables_from_ids(ids, k, n).tolist()]


class KFunction:
    """Immutable truth table of an n-ary k-valued function."""

    __slots__ = ("k", "n", "values", "_hash")

    def __init__(self, k: int, n: int, values: Iterable[int]):
        size = table_size(k, n)
        vals = bytes(values)
        if len(vals) != size:
            raise ValueError(f"table length {len(vals)} != k^n = {size}")
        if vals and max(vals) >= k:
            bad = max(vals)
            raise ValueError(f"table entry {bad} out of range for Z_{k}")
        self.k = k
        self.n = n
        self.values = vals
        self._hash = hash((k, n, vals))

    # -- construction ------------------------------------------------------

    @classmethod
    def _in_range(cls, k: int, n: int, values: bytes) -> "KFunction":
        """`__init__` without its checks, for table bytes already known to
        be k^n cells in Z_k: the same slots and the same hash."""
        f = object.__new__(cls)
        f.k, f.n, f.values = k, n, values
        f._hash = hash((k, n, values))
        return f

    @classmethod
    def from_values(cls, k: int, n: int, values: Sequence[int]) -> "KFunction":
        return cls(k, n, values)

    @classmethod
    def constant(cls, k: int, n: int, c: int) -> "KFunction":
        if not 0 <= c < k:
            raise ValueError(f"constant {c} out of range for Z_{k}")
        return cls(k, n, bytes([c]) * (k ** n))

    @classmethod
    def from_word(cls, w: int, n: int) -> "KFunction":
        """Binary function from a packed truth-table word (its id)."""
        return cls.from_id(w, 2, n)

    @classmethod
    def from_hex(cls, text: str, n: int) -> "KFunction":
        """Binary table from bare hex digits: no `0x`, sign or `_`."""
        digits = text.strip()
        if not set(digits) <= set(string.hexdigits):
            raise ValueError(f"hex table {text!r} is not bare hex digits")
        w = int(digits, 16)
        if w >= 1 << (1 << n):
            raise ValueError(f"hex table {text!r} too wide for n = {n}")
        return cls.from_word(w, n)

    @classmethod
    def from_digits(cls, text: str, k: int, n: int) -> "KFunction":
        vals = [int(t) for t in text.split(",")]
        return cls(k, n, vals)

    @classmethod
    def from_id(cls, ident: int, k: int, n: int) -> "KFunction":
        """Inverse of .id: decode the table from its k-ary numeral."""
        size = table_size(k, n)
        vals = bytearray(size)
        for i in range(size):
            ident, vals[i] = divmod(ident, k)
        if ident:
            raise ValueError("id out of range for this (k, n)")
        return cls._in_range(k, n, bytes(vals))

    # -- identity ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, KFunction)
                and self.k == other.k and self.n == other.n
                and self.values == other.values)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"KFunction(k={self.k}, n={self.n}, table={self.table_text()})"

    # -- serialization -----------------------------------------------------

    @property
    def word(self) -> int:
        """Packed truth-table word (k = 2 only): the id."""
        if self.k != 2:
            raise ValueError("word form is defined for k = 2 only")
        return self.id

    @property
    def id(self) -> int:
        """The table read as a k-ary numeral (index i at weight k^i)."""
        ident = 0
        for v in reversed(self.values):
            ident = ident * self.k + v
        return ident

    def to_hex(self) -> str:
        if self.k != 2:
            raise ValueError("hex form is defined for k = 2 only")
        return hex_text(self.word, self.n)

    def to_digits(self) -> str:
        return digits_text(self.values)

    def table_text(self) -> str:
        return self.to_hex() if self.k == 2 else self.to_digits()

    # -- evaluation and restriction ----------------------------------------

    def index_of(self, point: Sequence[int]) -> int:
        if len(point) != self.n:
            raise ValueError(f"point has {len(point)} coordinates, expected {self.n}")
        idx = 0
        w = 1
        for a in point:
            if not 0 <= a < self.k:
                raise ValueError(f"coordinate {a} out of range for Z_{self.k}")
            idx += a * w
            w *= self.k
        return idx

    def eval(self, point: Sequence[int]) -> int:
        return self.values[self.index_of(point)]

    def cofactor(self, i: int, c: int) -> "KFunction":
        """Raw restriction x_i = c (i need not be essential); arity is kept."""
        self._check_var(i)
        if not 0 <= c < self.k:
            raise ValueError(f"constant {c} out of range for Z_{self.k}")
        return KFunction._in_range(
            self.k, self.n, bitops.cofactor(self.values, self.k, self.n, i, c))

    def restrict(self, assignment: PartialAssignment) -> "KFunction":
        """Fix several variables at once (order is immaterial)."""
        f = self
        for i, c in assignment.items():
            f = f.cofactor(i, c)
        return f

    # -- essential-variable analysis ---------------------------------------

    def _check_var(self, i: int) -> None:
        if not 1 <= i <= self.n:
            raise ValueError(f"variable index {i} out of range 1..{self.n}")

    def is_essential(self, i: int) -> bool:
        self._check_var(i)
        return bool(bitops.essential_mask(self.values, self.k, self.n)
                    >> (i - 1) & 1)

    def essential_set(self) -> VarSet:
        return var_set(bitops.essential_mask(self.values, self.k, self.n))

    def ess(self) -> int:
        return len(self.essential_set())

    def strongly_essential_set(self) -> VarSet:
        """Essential x_i with some c such that Ess(f(x_i=c)) = Ess(f) \\ {x_i}."""
        ess = self.essential_set()
        out = set()
        for i in ess:
            want = ess - {i}
            for c in range(self.k):
                if self.cofactor(i, c).essential_set() == want:
                    out.add(i)
                    break
        return frozenset(out)

    def range_of(self) -> frozenset[int]:
        return frozenset(self.values)


def from_values(k: int, n: int, values: Sequence[int]) -> KFunction:
    return KFunction(k, n, values)

