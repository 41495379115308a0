"""Sum-of-products expressions over Z_k.

Surface grammar (ASCII rendering of the usual typeset notation):

    expr    :=  term (("+" | "⊕") term)*
    term    :=  factor ("*" factor)*
    factor  :=  "x" index ["^" digit]  |  number

"x3" is the ring value of variable 3; "x3^a" is the indicator that equals 1
when x3 = a and 0 otherwise; a bare number is a constant of Z_k.  "+" and
"*" are addition and multiplication mod k; whitespace is ignored.  For k = 2
the indicator x^1 coincides with x and x^0 with the complement of x.

`parse` reads the text with one regular expression, one match per factor,
and evaluates the terms as whole tables: each half of the variables reads
its factor values at every cell of its half with one gather through the
cached per-cell digits (`bitops.cell_digits`), and the two half tables'
outer product is the term's table, so no loop runs over the points or the
variables.  `to_sp` joins one cached indicator product per non-zero cell.
"""

from __future__ import annotations

import itertools
import re
from functools import lru_cache
from typing import NoReturn

import numpy as np

from . import bitops
from .kfun import KFunction, table_size


class SPSyntaxError(ValueError):
    """Parse failure; `position` is the 0-based offset in the input."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


#: One factor and the separator after it: groups (whitespace, "x", index,
#: "^", exponent, constant, separator).  Every part is optional, so the
#: pattern matches, possibly empty, at every position and `findall` reads
#: the factors one after another, ending with the empty match at the end of
#: the text; a missing part is a syntax error at its position.
_FACTOR = re.compile(
    r"(\s*)(?:(x)\s*(\d*)(?:\s*(\^)\s*(\d*))?|(\d+))?\s*([*+⊕]?)")
#: Cells of the (terms, k^n) intermediate evaluated at once.
TERM_CELLS = 1 << 20


def _error(text: str, row: int, message: str, group: int,
           side: int = 0) -> NoReturn:
    """Raise at the start (side 0) or end (side 1) of a group of the
    `row`-th factor match."""
    match = next(itertools.islice(_FACTOR.finditer(text), row, None))
    raise SPSyntaxError(message, match.span(group)[side])


def _terms(text: str, k: int) -> tuple[list[int], list[int]]:
    """Per term its coefficient, and per variable factor the three entries
    term, index, value (a for x^a, k for a plain x), flat."""
    coeffs = [1]
    factors = []
    rows = _FACTOR.findall(text)
    for row, (_, x, index, caret, alpha, const, sep) in enumerate(rows):
        if x:
            if not index:
                _error(text, row, "expected a number", 3)
            index = int(index)
            if index < 1:
                _error(text, row, "variable index must be >= 1", 2, 1)
            value = k
            if caret:
                if not alpha:
                    _error(text, row, "expected a number", 5)
                value = int(alpha)
                if value >= k:
                    _error(text, row,
                           f"exponent {value} out of range for k={k}", 4, 1)
            factors += (len(coeffs) - 1, index, value)
        elif const:
            value = int(const)
            if value >= k:
                _error(text, row,
                       f"constant {value} out of range for k={k}", 6)
            coeffs[-1] = coeffs[-1] * value % k
        else:
            _error(text, row, "expected a variable or constant", 1, 1)
        if sep == "*":
            continue
        if sep:
            coeffs.append(1)
            continue
        if row + 2 != len(rows):  # more than the final empty match follows
            _error(text, row, "unexpected trailing input", 0, 1)
        return coeffs, factors
    raise AssertionError("unreachable: the last row has no separator")


def _factor_vectors(coeffs, factors, k: int, n: int) -> np.ndarray:
    """(terms, n, k): per term and variable, the product of its factors on
    that variable as a function of the variable's value.

    The factors are counted, not multiplied, so repeats cannot overflow:
    with p plain factors and indicators counted per value, the product at c
    is c^p if every indicator asks for c, else 0.
    """
    term, index, value = np.array(factors, np.int64).reshape(-1, 3).T
    counts = np.bincount((term * n + index - 1) * (k + 1) + value,
                         minlength=len(coeffs) * n * (k + 1))
    counts = counts.reshape(len(coeffs), n, k + 1)
    power = np.ones((int(counts[..., k].max(initial=0)) + 1, k), np.int64)
    for p in range(1, len(power)):
        power[p] = power[p - 1] * np.arange(k) % k
    indicators = counts[..., :k]
    agree = indicators == indicators.sum(axis=2, keepdims=True)
    return power[counts[..., k]] * agree


@lru_cache(maxsize=32)
def _half_cells(k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per cell of the low variables 1..n//2, and per cell of the others,
    the positions its digits read in a term's flattened (n, k) factor
    vectors: (h, k^h) and (n-h, k^(n-h)), read-only."""
    h = n // 2
    low = np.arange(h)[:, None] * k + bitops.cell_digits(k, h)
    high = np.arange(h, n)[:, None] * k + bitops.cell_digits(k, n - h)
    low.flags.writeable = high.flags.writeable = False
    return low, high


def parse(text: str, k: int, arity: int | None = None) -> KFunction:
    """Parse an SP expression into its truth table.

    The arity defaults to the largest variable index in the expression;
    passing `arity` pads with (inessential) trailing variables.  A term's
    table is the outer product of two half tables, the product of its
    factor vectors over variables 1..n//2 and, times its coefficient, over
    the others, each read at every cell of its half by one gather; the
    terms are evaluated `TERM_CELLS` cells at a time and summed mod k.
    Splitting the variables keeps the gathers at k^(n/2) cells, so a large
    table costs one product per cell and term, not n.
    """
    coeffs, factors = _terms(text, k)
    max_index = max(factors[1::3], default=0)
    n = max_index if arity is None else arity
    if n < max_index:
        raise ValueError(f"expression uses x{max_index} but arity is {n}")
    table_size(k, n)

    flat = _factor_vectors(coeffs, factors, k, n).reshape(len(coeffs), n * k)
    coeffs = np.array(coeffs, dtype=np.int64)
    low_cells, high_cells = _half_cells(k, n)
    table = np.zeros(k ** n, dtype=np.int64)
    chunk = max(1, TERM_CELLS // k ** n)
    for lo in range(0, len(coeffs), chunk):
        # low < k^(n//2) <= 2^16 and high < k <= 2^8, so a chunk's sum of
        # their products stays below 2^20 * 2^24
        low = flat[lo:lo + chunk, low_cells].prod(axis=1)
        high = (flat[lo:lo + chunk, high_cells].prod(axis=1)
                * coeffs[lo:lo + chunk, None] % k)
        table += (high[:, :, None] * low[:, None, :]).sum(axis=0).ravel()
    return KFunction(k, n, (table % k).astype(np.uint8).tobytes())


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
