"""Sum-of-products expressions over Z_k.

Surface grammar (ASCII rendering of the usual typeset notation):

    expr    :=  term (("+" | "⊕") term)*
    term    :=  factor ("*" factor)*
    factor  :=  "x" index ["^" digit]  |  number

"x3" is the ring value of variable 3; "x3^a" is the indicator that equals 1
when x3 = a and 0 otherwise; a bare number is a constant of Z_k.  "+" and
"*" are addition and multiplication mod k; whitespace is ignored.  For k = 2
the indicator x^1 coincides with x and x^0 with the complement of x.

`parse` splits the text at its separators with string methods and decodes
each term and factor once per radix through a bounded cache; only a text
that fails to decode is read again, one regex match per factor, to name its
first error.  Each half of the variables reads the terms' factor values at
every cell of its half with one gather through `bitops.cell_digits`, and one
matrix product of the halves sums the terms' tables, so no loop runs over
the points, the variables or the factors.  `to_sp` joins one cached
indicator product per non-zero cell.
"""

from __future__ import annotations

import itertools
import re
from functools import lru_cache

import numpy as np

from . import bitops
from .kfun import KFunction, table_size


class SPSyntaxError(ValueError):
    """Parse failure; `position` is the 0-based offset in the input."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


#: One factor and the separator after it: groups (whitespace, "x", index,
#: "^", exponent, constant, separator).  Every part is optional, so it
#: matches, possibly empty, at every position and `findall` reads the
#: factors in turn, ending with the empty match at the end of the text.
_FACTOR = re.compile(
    r"(\s*)(?:(x)\s*(\d*)(?:\s*(\^)\s*(\d*))?|(\d+))?\s*([*+⊕]?)")
#: One whole factor between separators: groups (index, exponent, constant).
_PIECE = re.compile(r"\s*(?:x\s*(\d+)(?:\s*\^\s*(\d+))?|(\d+))\s*")
#: Cells of an int64 intermediate evaluated at once: a chunk of terms'
#: factor values read at every cell of a half, or a block of table rows.
TERM_CELLS = 1 << 20


def _locate(text: str, k: int) -> None:
    """Raise the syntax error of the first bad factor or separator, read
    one `_FACTOR` match at a time, at the start (side 0) or end (side 1)
    of its group; return if there is none."""
    rows = _FACTOR.findall(text)
    for row, (_, x, index, caret, alpha, const, sep) in enumerate(rows):
        if x and not index:
            error = "expected a number", 3, 0
        elif x and int(index) < 1:
            error = "variable index must be >= 1", 2, 1
        elif caret and not alpha:
            error = "expected a number", 5, 0
        elif caret and int(alpha) >= k:
            error = f"exponent {int(alpha)} out of range for k={k}", 4, 1
        elif const and int(const) >= k:
            error = f"constant {int(const)} out of range for k={k}", 6, 0
        elif not x and not const:
            error = "expected a variable or constant", 1, 1
        elif not sep and row + 2 != len(rows):  # more than the final match
            error = "unexpected trailing input", 0, 1
        elif sep:
            continue
        else:
            return
        message, group, side = error
        match = next(itertools.islice(_FACTOR.finditer(text), row, None))
        raise SPSyntaxError(message, match.span(group)[side])


@lru_cache(maxsize=1024)
def _factor(text: str, k: int) -> int | None:
    """A factor's code: (index - 1) * (k + 1) + value for a variable (value
    a for x^a, k for a plain x), -1 - c for a constant c; None if `text` is
    no factor in range."""
    match = _PIECE.fullmatch(text)
    if match is None:
        return None
    index, alpha, const = match.groups()
    if const is not None:
        return -1 - int(const) if int(const) < k else None
    if int(index) < 1 or alpha is not None and int(alpha) >= k:
        return None
    return (int(index) - 1) * (k + 1) + (k if alpha is None else int(alpha))


@lru_cache(maxsize=1024)
def _term(text: str, k: int) -> tuple[int | None, ...]:
    """The codes of a term's factors."""
    return tuple(map(_factor, text.split("*"), itertools.repeat(k)))


@lru_cache(maxsize=32)
def _half_cells(k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per cell of the low variables 1..n//2, and per cell of the others
    and then the coefficient, the positions it reads in a term's flattened
    (n + 1, k) factor vectors: (h, k^h) and (n-h+1, k^(n-h)), read-only."""
    h = n // 2
    low = np.arange(h)[:, None] * k + bitops.cell_digits(k, h)
    high = np.vstack([np.arange(h, n)[:, None] * k
                      + bitops.cell_digits(k, n - h),
                      np.full((1, k ** (n - h)), n * k)])
    low.flags.writeable = high.flags.writeable = False
    return low, high


@lru_cache(maxsize=32)
def _powers(k: int, top: int) -> np.ndarray:
    """(top + 1, k), read-only: row p holds c^p mod k at column c."""
    power = np.array([[pow(c, p, k) for c in range(k)]
                      for p in range(top + 1)], np.int64)
    power.flags.writeable = False
    return power


def parse(text: str, k: int, arity: int | None = None) -> KFunction:
    """Parse an SP expression into its truth table.

    The arity defaults to the largest variable index in the expression;
    passing `arity` pads with (inessential) trailing variables.

    A term's factors are counted, not multiplied, so repeats cannot
    overflow: with p plain factors on a variable and its indicators counted
    per value, the term's factor on it is c^p at c if every indicator asks
    for c, else 0.  Its table is the outer product of the factors' products
    over variables 1..n//2 and, with its coefficient, over the others.
    """
    terms = list(map(_term, text.replace("⊕", "+").split("+"),
                     itertools.repeat(k)))
    codes = list(itertools.chain.from_iterable(terms))
    if None in codes:
        _locate(text, k)
        raise AssertionError(f"unreachable: {text!r} has a bad factor")
    max_index = max(codes) // (k + 1) + 1  # a constant's code is -k..-1
    n = max_index if arity is None else arity
    if n < max_index:
        raise ValueError(f"expression uses x{max_index} but arity is {n}")
    table_size(k, n)

    # per term n + 1 rows of k + 1 counters: a variable factor counts at its
    # code, a constant c (code -1 - c) at column k - c of the last row
    width = (n + 1) * (k + 1)
    term = np.repeat(np.arange(len(terms)), list(map(len, terms)))
    counts = np.bincount(term * width + np.array(codes) % width,
                         minlength=len(terms) * width)
    counts = counts.reshape(len(terms), n + 1, k + 1)
    power = _powers(k, int(counts.max()))
    indicators = counts[..., :k]
    flat = (power[counts[..., k]] * (indicators == indicators.sum(
        axis=2, keepdims=True))).reshape(len(terms), -1)
    if min(codes) < 0:  # else the coefficient, flat[:, n * k], is 1
        coeffs = flat[:, n * k]
        coeffs[:] = 1
        for c in np.flatnonzero(counts[:, n, :0:-1].any(axis=0)).tolist():
            coeffs[:] = coeffs * power[counts[:, n, k - c], c] % k

    low_cells, high_cells = _half_cells(k, n)
    table = np.empty((high_cells.shape[1], low_cells.shape[1]), np.uint8)
    chunk = max(1, TERM_CELLS // high_cells.size)
    rows = max(1, TERM_CELLS // table.shape[1])
    for lo in range(0, len(terms), chunk):
        # low < k^h and high < k^(n-h+1), so the sum of a chunk's products
        # stays below 2^20 * k^(n+1) <= 2^60
        low = flat[lo:lo + chunk, low_cells].prod(axis=1)
        high = flat[lo:lo + chunk, high_cells].prod(axis=1)
        for r in range(0, len(table), rows):
            block = high[:, r:r + rows].T @ low
            if lo:
                block += table[r:r + rows]
            table[r:r + rows] = block % k
    return KFunction._in_range(k, n, table.tobytes())


@lru_cache(maxsize=32)
def _monomials(k: int, n: int) -> tuple[str, ...]:
    """Per cell, the indicator product that is 1 there and 0 elsewhere."""
    return tuple("*".join(f"x{i}^{a}" for i, a in enumerate(cell, 1))
                 for cell in bitops.cell_digits(k, n).T.tolist())


def to_sp(f: KFunction) -> str:
    """Canonical full SP form: one indicator product per non-zero table entry."""
    if f.n == 0:
        return str(f.values[0])
    terms = [m if v == 1 else f"{v}*{m}"
             for v, m in zip(f.values, _monomials(f.k, f.n)) if v]
    return " + ".join(terms) if terms else "0"
