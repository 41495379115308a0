"""Truth-table kernels for every radix: one table and the restriction lattice.

Restrictions keep the arity and fixing an inessential variable changes
nothing, so Sub(f) is exactly the set of the (k+1)^n partial-assignment
restrictions of f.  `restrictions` builds them for a batch of uint8 tables,
row rho having digit 0 (x_i free) or c+1 (x_i = c) per variable, and every
per-function measure is read off that lattice, as are Dis(M, f), subfunction
chains and full-depth orderings (`fixed_masks`, `descent`).

A single table is also read as one little-endian Python int, 8 bits per
cell, so the cells with x_i = c are the cells with x_i = 0 shifted up by
c * k^(i-1) bytes.  `essential_mask` and `cofactor` work on that int and
back `KFunction`'s own essential-variable and cofactor code, which stays
independent of the lattice it cross-checks.  `row_keys` is the one sort key
of table rows, shared by the lattice and the orbit search in `groups`, and
`cell_digits` the one per-cell digit table, shared by these kernels, the
decision-tree builder in `diagrams` and the SP forms in `spform`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

#: Functions per kernel call in the batch paths; larger blocks only cost memory.
BLOCK = 256
#: Single-function lattices kept, so one function's measures share one.
LATTICE_CACHE = 16
#: Cells (functions x rows x table cells) one lattice may hold, about 128 MiB
#: of uint8 tables; larger lattices raise MemoryError before allocating.
LATTICE_CELLS = 1 << 27


# ---------------------------------------------------------------------------
# one table as an int, 8 bits per cell
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def cell_digits(k: int, n: int) -> np.ndarray:
    """(n, k^n) uint8, read-only: row i holds each cell's digit of x_{i+1}."""
    digits = (np.arange(k ** n) // k ** np.arange(n)[:, None] % k).astype(
        np.uint8)
    digits.flags.writeable = False
    return digits


@lru_cache(maxsize=32)
def _digit_zero(k: int, n: int) -> tuple[int, ...]:
    """Per variable, the byte mask (as an int) of the cells whose digit is 0."""
    return tuple(int.from_bytes(row.tobytes(), "little")
                 for row in (cell_digits(k, n) == 0) * np.uint8(0xFF))


def essential_mask(values: bytes, k: int, n: int) -> int:
    """Bitmask over variables of a table: bit (i-1) set iff x_i is essential.

    The table is one little-endian int, 8 bits per cell; the cells with
    x_i = c sit c * k^(i-1) bytes above the cells with x_i = 0.
    """
    w = int.from_bytes(values, "little")
    m = 0
    for i, zero in enumerate(_digit_zero(k, n)):
        step = 8 * k ** i
        for c in range(1, k):
            if (w ^ (w >> c * step)) & zero:
                m |= 1 << i
                break
    return m


def cofactor(values: bytes, k: int, n: int, i: int, c: int) -> bytes:
    """Table of the restriction x_i = c; the arity stays n, x_i inessential."""
    step = 8 * k ** (i - 1)
    fixed = int.from_bytes(values, "little") >> c * step
    fixed &= _digit_zero(k, n)[i - 1]
    out = 0
    for d in range(k):
        out |= fixed << d * step
    return out.to_bytes(len(values), "little")


# ---------------------------------------------------------------------------
# the restriction lattice
# ---------------------------------------------------------------------------

class Lattice(NamedTuple):
    """Restrictions of a batch of functions, with their essential masks."""

    tables: np.ndarray  # (N, (k+1)^m, k^n) uint8, row 0 = the function
    keys: np.ndarray    # (N, (k+1)^m), equal exactly where the tables are
    masks: np.ndarray   # (N, (k+1)^m) int64, bit i set iff x_{i+1} essential
    variables: tuple[int, ...]  # the m varied bits, lowest digit first


@lru_cache(maxsize=LATTICE_CACHE)
def _zeroed(k: int, n: int) -> np.ndarray:
    """(n, k^n): row i maps each cell to the cell with x_{i+1} := 0."""
    return np.arange(k ** n) - cell_digits(k, n) * k ** np.arange(n)[:, None]


def essential_masks(tables: np.ndarray, k: int, n: int) -> np.ndarray:
    """(N,) essential-variable masks of (N, k^n) tables: bit i is set iff
    some cell differs from the cell with x_{i+1} := 0."""
    differs = (tables[:, _zeroed(k, n)] != tables[:, None, :]).any(axis=2)
    return (differs.astype(np.int64) << np.arange(n)).sum(axis=1)


def row_keys(rows: np.ndarray, k: int) -> np.ndarray:
    """One scalar per table row (last axis), ordered like the rows' ids.

    Binary tables of 8 to 64 cells pack into their id as an unsigned int;
    any other table is its bytes, last cell first, as a void scalar.
    """
    cells = rows.shape[-1]
    if k == 2 and cells in (8, 16, 32, 64):
        packed = np.packbits(rows.reshape(-1), bitorder="little")
        return packed.view(f"<u{cells // 8}").reshape(rows.shape[:-1])
    return np.ascontiguousarray(rows[..., ::-1]).view(f"V{cells}")[..., 0]


def key_rows(keys: np.ndarray, cells: int) -> np.ndarray:
    """(N, cells) uint8 table rows of N `row_keys` keys: its inverse."""
    if keys.dtype.kind == "V":
        return keys.view(np.uint8).reshape(-1, cells)[:, ::-1]
    packed = keys.astype(f"<u{cells // 8}").view(np.uint8)
    return np.unpackbits(packed.reshape(-1, cells // 8), axis=1,
                         bitorder="little")


@lru_cache(maxsize=LATTICE_CACHE)
def _fixed_to_zero(k: int, m: int) -> tuple[np.ndarray, ...]:
    """Per digit, each lattice row with that digit fixed to 0 if it is free."""
    index = np.arange((k + 1) ** m)
    steps = ((k + 1) ** digit for digit in range(m))
    return tuple(np.where(index // step % (k + 1) == 0, index + step, index)
                 for step in steps)


def restrictions(tables: np.ndarray, k: int, variables) -> Lattice:
    """The restriction lattice of each row of `tables` (N, k^n) uint8.

    Row rho has base-(k+1) digit 0 (x free) or c+1 (x = c) per listed
    variable; the others stay free, which loses nothing where they are
    inessential.  x is essential in a row iff fixing it to 0 changes it.
    Raises MemoryError, before allocating, above `LATTICE_CELLS` cells.
    """
    variables = tuple(variables)
    cells = len(tables) * (k + 1) ** len(variables) * tables.shape[1]
    if cells > LATTICE_CELLS:
        raise MemoryError(f"restriction lattice of {cells} cells exceeds the "
                          f"budget of {LATTICE_CELLS}")
    rows = tables[:, None, :]
    for i in variables:
        view = rows.reshape(rows.shape[:2] + (-1, k, k ** i))
        fixed = [view[:, :, :, c:c + 1].repeat(k, axis=3) for c in range(k)]
        rows = np.concatenate([view, *fixed], axis=1).reshape(
            len(tables), -1, tables.shape[1])
    keys = row_keys(rows, k)
    masks = np.zeros(keys.shape, dtype=np.int64)
    # one variable at a time: O(rows) memory
    for zero, i in zip(_fixed_to_zero(k, len(variables)), variables):
        masks |= (keys != keys[:, zero]).astype(np.int64) << i
    return Lattice(rows, keys, masks, variables)



def tables_from_ids(ids, k: int, n: int) -> np.ndarray:
    """(N, k^n) uint8 tables of the functions with the given ids."""
    ids = np.asarray(ids, dtype=np.uint64)[:, None]
    weights = np.uint64(k) ** np.arange(k ** n, dtype=np.uint64)
    return (ids // weights % np.uint64(k)).astype(np.uint8)


def distinct(lattice: Lattice) -> np.ndarray:
    """(N, rows) bool: True on one row of each distinct table of a function."""
    order = np.argsort(lattice.keys, axis=1)
    fn = np.arange(len(order))[:, None]
    ordered = lattice.keys[fn, order]
    new = np.ones(ordered.shape, dtype=bool)
    new[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    out = np.empty_like(new)
    out[fn, order] = new
    return out


def sub_counts(lattice: Lattice, n: int) -> np.ndarray:
    """(N, n+1): (sub_0, ..., sub_n), distinct subfunctions by essential arity."""
    count = lattice.masks.shape[0]
    slot = (np.arange(count)[:, None] * (n + 1)
            + np.bitwise_count(lattice.masks))[distinct(lattice)]
    return np.bincount(slot, minlength=count * (n + 1)).reshape(count, n + 1)


def sep_counts(masks: np.ndarray, n: int) -> np.ndarray:
    """(N, n): (sep_1, ..., sep_n), distinct non-empty essential sets by size."""
    present = np.zeros((masks.shape[0], 1 << n), dtype=np.int64)
    present[np.arange(masks.shape[0])[:, None], masks] = 1
    sizes = np.bitwise_count(np.arange(1, 1 << n))
    return present[:, 1:] @ (sizes[:, None] == np.arange(1, n + 1))


@lru_cache(maxsize=LATTICE_CACHE)
def fixed_masks(variables: tuple[int, ...], k: int) -> np.ndarray:
    """(rows,) int64: per row of a lattice over `variables`, the mask of the
    variables it fixes (digit c+1), in the bits of `Lattice.masks`."""
    rows = np.arange((k + 1) ** len(variables))
    fixed = np.zeros(len(rows), np.int64)
    for digit, i in enumerate(variables):
        fixed |= (rows // (k + 1) ** digit % (k + 1) != 0).astype(np.int64) << i
    fixed.flags.writeable = False
    return fixed


@lru_cache(maxsize=LATTICE_CACHE)
def _levels(m: int, k: int) -> tuple[np.ndarray, list]:
    """The lattice rows sorted by their number of free variables (row 0,
    all free, last), and per number from 1 up its slice of that order with
    the children rho[x := c] as positions in it, an (m, k, rows) array
    indexed (digit, c); children of a fixed digit are clipped into range
    (its essential bit is 0).  A row's children all come earlier, so one
    pass over the levels computes a measure bottom up: imp in `imp_counts`,
    reachability in `descent`."""
    rows = np.arange((k + 1) ** m)
    step = (k + 1) ** np.arange(m)[:, None]
    free = (rows // step % (k + 1) == 0).sum(axis=0)
    order = np.argsort(free, kind="stable")
    position = np.empty_like(order)
    position[order] = rows
    bounds = np.searchsorted(free[order], np.arange(m + 2))
    value = np.arange(1, k + 1)[:, None]
    levels = []
    for count in range(1, m + 1):
        part = slice(bounds[count], bounds[count + 1])
        children = np.minimum(order[part] + value * step[:, None], rows[-1])
        levels.append((part, position[children]))
    return order, levels


def imp_counts(lattice: Lattice, k: int) -> np.ndarray:
    """(N,) imp of the functions, level by level over free variables:
    imp(rho) = [rho constant] + the sum over essential x and c in Z_k of
    imp(rho[x := c]), that is 1 at ess 0, k at ess 1 and the sum above."""
    order, levels = _levels(len(lattice.variables), k)
    masks = lattice.masks[:, order]
    bits = np.array(lattice.variables, np.int64)[:, None]
    essential = (masks[:, None, :] >> bits) & 1
    imp = (masks == 0).astype(np.int64)
    for part, children in levels:
        imp[:, part] += (imp[:, children].sum(axis=2)
                         * essential[:, :, part]).sum(axis=1)
    return imp[:, -1]


def descent(lattice: Lattice, k: int, stop: np.ndarray) -> list[int] | None:
    """Rows of a one-function lattice from row 0 down to a `stop` row, each
    step to a child rho[x := c] that fixes an essential x and keeps every
    other essential variable (ess drops by exactly 1), the first in x, then
    c, order from which a stop row is still reachable; None if row 0 reaches
    none.  Reachability is decided level by level over free variables."""
    order, levels = _levels(len(lattice.variables), k)
    masks = lattice.masks[0, order]
    bits = (np.int64(1) << np.array(lattice.variables, np.int64))[:, None]
    stop = np.asarray(stop)[order]
    reach = stop.copy()
    below = np.zeros(len(order), np.intp)  # first reaching child, as a position
    for part, children in levels:
        link = (((masks[part] & bits) != 0)[:, None]
                & (masks[children] == (masks[part] & ~bits)[:, None]))
        children = children.reshape(-1, children.shape[-1])
        hits = reach[children] & link.reshape(children.shape)
        reach[part] |= hits.any(axis=0)
        below[part] = children[hits.argmax(axis=0), np.arange(children.shape[1])]
    if not reach[-1]:
        return None
    path = [len(order) - 1]
    while not stop[path[-1]]:
        path.append(below[path[-1]])
    return order[path].tolist()


@lru_cache(maxsize=LATTICE_CACHE)
def function_lattice(f) -> Lattice:
    """The lattice of one `KFunction` over its essential variables only."""
    table = np.frombuffer(f.values, np.uint8)[None]
    mask = int(essential_masks(table, f.k, f.n)[0])
    lattice = restrictions(table, f.k, [i for i in range(f.n) if mask >> i & 1])
    for array in lattice[:3]:  # every caller gets the same arrays
        array.flags.writeable = False
    return lattice


def sub_closure_word(w: int, n: int) -> dict[int, int]:
    """Sub(w) as {table word: essential mask (bit i-1 for variable i)}."""
    from .kfun import KFunction  # kfun builds on this module
    lattice = restrictions(tables_from_ids([w], 2, n), 2, range(n))
    keep = distinct(lattice)[0]
    return {KFunction(2, n, row).word: mask for row, mask in zip(
        lattice.tables[0][keep], lattice.masks[0][keep].tolist())}


def sep_profile_word(w: int, n: int) -> tuple[int, ...]:
    """(sep_1, ..., sep_n): separable-set counts by cardinality."""
    masks = restrictions(tables_from_ids([w], 2, n), 2, range(n)).masks
    return tuple(sep_counts(masks, n)[0].tolist())
