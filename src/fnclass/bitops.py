"""Truth-table kernels for every radix: one table and the restriction lattice.

Restrictions keep the arity and fixing an inessential variable changes
nothing, so Sub(f) is exactly the set of the (k+1)^n partial-assignment
restrictions of f.  `restrictions` builds them for a batch of N row keys
(`row_keys` of tables, or `keys_from_ids` straight from function ids) as
one ((k+1)^m, N) array, row rho having digit 0 (x_i free) or c+1 (x_i = c)
per varied variable, so row 0 is the input keys; the essential masks share
that layout in the least unsigned dtype that holds them.  Every
per-function measure is read off that lattice, as are Dis(M, f), subfunction
chains and full-depth orderings (`fixed_masks`, `descent`).  The essential
masks compare, per variable, the digit-0 and digit-1 slices of one reshaped
view of the row keys, and `sep_counts` sums a byte table of the masks
present over popcount-ordered columns, so neither gathers nor builds a
one-hot matrix.

The lattice holds row keys only (`row_keys`, decoded by `key_rows`).  A
table of k^n cells at b bits per cell, b the least of 1, 2, 4 and 8 that
holds k-1, is one unsigned word when k^n * b <= 64 (every binary table up
to n = 6, every ternary one up to n = 3), in the narrowest dtype that holds
it; its cells with x_i = c sit c * b * k^(i-1) bits above those with
x_i = 0.  Such lattices are built on the words: fixing x_i := c is a shift,
an AND with the x_i = 0 field mask and a multiply that copies the field into
every x_i digit.  Wider tables are keyed by their bytes, last cell first,
and built as the uint8 rows that `key_rows` views in those keys.  Either
key sorts like the table ids.  Where a cell takes exactly log2 k bits
(k = 2, 4, 16, 256) the word is the id, so `keys_from_ids` turns ids into
keys by a cast, with no decode into cells.

A single table is also read as one little-endian Python int, 8 bits per
cell, by the same shifts.  `essential_mask` and `cofactor` work on that int
and back `KFunction`'s own essential-variable and cofactor code, which stays
independent of the lattice it cross-checks.  `row_keys` is the one sort key
of table rows, shared by the lattice and the orbit search in `groups`, and
`cell_digits` the one per-cell digit table, shared by these kernels, the
decision-tree builder in `diagrams` and the SP forms in `spform`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

#: Functions per lattice in `classify.scan_space` and `scan5._sep_profiles`;
#: larger blocks only cost memory.
BLOCK = 256
#: Single-function lattices kept, so one function's measures share one.
LATTICE_CACHE = 16
#: Cells (functions x rows x table cells) one lattice may span, about 128 MiB
#: of uint8 rows (the packed build holds far less, but refuses the same
#: inputs); larger lattices raise MemoryError before allocating.
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
    """Restrictions of a batch of functions, with their essential masks.

    Only the rows' `row_keys` are kept: one word per row at b bits per
    cell (b the least of 1, 2, 4, 8 holding k-1) where k^n * b <= 64, the
    row's bytes otherwise; `key_rows` decodes them into tables.  Both
    arrays are kept as built, rows first with one column per function; the
    masks take the least unsigned dtype holding 1 << max(variables).
    """

    keys: np.ndarray    # ((k+1)^m, N) `row_keys`, row 0 = the input keys
    masks: np.ndarray   # ((k+1)^m, N), bit i set iff x_{i+1} essential
    variables: tuple[int, ...]  # the m varied bits, lowest digit first


def _cell_bits(k: int) -> int:
    """Bits per cell of a packed table: the least of 1, 2, 4, 8 holding k-1."""
    return next(b for b in (1, 2, 4, 8) if k <= 1 << b)


@lru_cache(maxsize=64)
def _word_dtype(k: int, cells: int) -> np.dtype | None:
    """The narrowest unsigned dtype holding a packed table, None above 64 bits."""
    bits = cells * _cell_bits(k)
    return next((np.dtype(f"u{size}") for size in (1, 2, 4, 8)
                 if bits <= 8 * size), None)


def row_keys(rows: np.ndarray, k: int) -> np.ndarray:
    """One scalar per table row (last axis), ordered like the rows' ids.

    A table of at most 64 bits at `_cell_bits(k)` bits per cell packs into
    an unsigned word, cell j at bit j * b; any other table is its bytes,
    last cell first, as a void scalar.
    """
    cells = rows.shape[-1]
    word = _word_dtype(k, cells)
    if word is None:
        return np.ascontiguousarray(rows[..., ::-1]).view(f"V{cells}")[..., 0]
    b = _cell_bits(k)
    shifts = np.arange(0, cells * b, b, dtype=word)
    return (rows.astype(word) << shifts).sum(axis=-1, dtype=word)


def key_rows(keys: np.ndarray, k: int, cells: int) -> np.ndarray:
    """The uint8 table rows of `row_keys` keys, shape keys.shape + (cells,)."""
    if keys.dtype.kind == "V":
        rows = np.ascontiguousarray(keys).view(np.uint8)
        return rows.reshape(keys.shape + (cells,))[..., ::-1]
    b = _cell_bits(k)
    shifts = np.arange(0, cells * b, b, dtype=keys.dtype)
    return (keys[..., None] >> shifts & (1 << b) - 1).astype(np.uint8)


@lru_cache(maxsize=32)
def _fields(k: int, cells: int) -> tuple[tuple, ...]:
    """Per variable of a packed table: the (k, 1) shifts that bring its
    digit-c cells down to digit 0, the mask of the digit-0 cells and the
    multiplier that copies them into every digit, in the key dtype."""
    n = 0
    while k ** n < cells:
        n += 1
    b, word = _cell_bits(k), _word_dtype(k, cells)
    full = np.uint8((1 << b) - 1)
    fields = []
    for i, zero in enumerate(row_keys((cell_digits(k, n) == 0) * full, k)):
        step = b * k ** i
        shifts = np.arange(0, k * step, step, dtype=word)[:, None]
        shifts.flags.writeable = False
        fields.append((shifts, zero, word.type(sum(1 << d * step
                                                   for d in range(k)))))
    return tuple(fields)


def _word_restrictions(keys: np.ndarray, k: int, cells: int,
                       variables: tuple[int, ...]) -> np.ndarray:
    """((k+1)^m, N) lattice row keys from (N,) packed tables: the rows of
    each next variable's digit c+1 are the rows so far with x := c."""
    out = np.empty(((k + 1) ** len(variables), len(keys)), keys.dtype)
    out[0] = keys
    size = 1
    fields = _fields(k, cells)
    for i in variables:
        shifts, zero, spread = fields[i]
        fixed = out[size:(k + 1) * size].reshape(k, size * len(keys))
        np.right_shift(out[:size].reshape(1, -1), shifts, out=fixed)
        fixed &= zero
        fixed *= spread
        size *= k + 1
    return out


def _table_restrictions(tables: np.ndarray, k: int,
                        variables: tuple[int, ...]) -> np.ndarray:
    """((k+1)^m, N, k^n) uint8 lattice rows, in the order of the keys."""
    rows = tables[None]
    for i in variables:
        view = rows.reshape(rows.shape[:2] + (-1, k, k ** i))
        fixed = [view[:, :, :, c:c + 1].repeat(k, axis=3) for c in range(k)]
        rows = np.concatenate([view, *fixed]).reshape(-1, *tables.shape)
    return rows


def restrictions(keys: np.ndarray, k: int, n: int, variables) -> Lattice:
    """The restriction lattice of each P_k^n table of `keys`, its (N,)
    `row_keys`.

    Row rho has base-(k+1) digit 0 (x free) or c+1 (x = c) per listed
    variable; the others stay free, which loses nothing where they are
    inessential.  Tables of at most 64 bits are built as packed words,
    wider ones as the uint8 rows `key_rows` reads off their keys; only the
    keys are kept.  The lattice is returned as built, ((k+1)^m, N) rows
    first, so a lattice row of every function is one contiguous run and
    row 0 is `keys` itself.  x is essential in a row iff fixing it to 0
    changes it: with the keys viewed as (-1, k+1, (k+1)^digit * N), those
    are the digit-0 and digit-1 slices of axis 1.  The masks take the least
    unsigned dtype holding 1 << max(variables).  Raises ValueError, before
    allocating, on keys of another shape or dtype than `row_keys` gives,
    and MemoryError above `LATTICE_CELLS` cells (functions x rows x table
    cells, whichever build runs).
    """
    variables = tuple(variables)
    keys = np.asarray(keys)
    width = k ** n
    word = _word_dtype(k, width)
    dtype = np.dtype(f"V{width}") if word is None else word
    if keys.ndim != 1 or keys.dtype != dtype:
        raise ValueError(f"restrictions takes the (N,) row keys of P_{k}^{n}"
                         f" as {dtype!r}, not shape {keys.shape} of "
                         f"{keys.dtype!r}")
    count = len(keys)
    cells = count * (k + 1) ** len(variables) * width
    if cells > LATTICE_CELLS:
        raise MemoryError(f"restriction lattice of {cells} cells exceeds the "
                          f"budget of {LATTICE_CELLS}")
    if word is None:
        keys = row_keys(_table_restrictions(key_rows(keys, k, width), k,
                                            variables), k)
    else:
        keys = _word_restrictions(keys, k, width, variables)
    # one variable at a time, O(rows) memory
    masks = np.zeros(keys.shape,
                     np.min_scalar_type(1 << max(variables, default=0)))
    for digit, i in enumerate(variables):
        shape = (-1, k + 1, (k + 1) ** digit * count)
        key, mask = keys.reshape(shape), masks.reshape(shape)
        mask[:, 0] |= (key[:, 0] != key[:, 1]) << mask.dtype.type(i)
    return Lattice(keys, masks, variables)


def tables_from_ids(ids, k: int, n: int) -> np.ndarray:
    """(N, k^n) uint8 tables of the functions with the given ids; ValueError
    where P_k^n has more than 2^64 functions, whose ids overflow uint64."""
    if k ** min(k ** n, 65) > 1 << 64:  # k^65 > 2^64: capping keeps it exact
        raise ValueError(f"ids of P_{k}^{n} do not fit in 64 bits")
    ids = np.asarray(ids, dtype=np.uint64)[:, None]
    weights = np.uint64(k) ** np.arange(k ** n, dtype=np.uint64)
    return (ids // weights % np.uint64(k)).astype(np.uint8)


def keys_from_ids(ids, k: int, n: int) -> np.ndarray:
    """(N,) `row_keys` of the functions with the given ids.  Where a cell
    takes exactly log2 k bits (k = 2, 4, 16, 256) and the table fits in 64
    bits, cell j sits at weight k^j in both, so the key is the id cast to
    the word dtype; otherwise the ids are decoded into tables."""
    word = _word_dtype(k, k ** n)
    if word is not None and 1 << _cell_bits(k) == k:
        return np.asarray(ids, dtype=np.uint64).astype(word)
    return row_keys(tables_from_ids(ids, k, n), k)


def group_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a 2-d array as their first indices, in ascending
    lexicographic order of the rows, and each row's position in that list,
    from one stable `np.lexsort` and a mask of equal neighbours.  Rows
    viewed as one void column are grouped by their bytes."""
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(rows), np.int64)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


def distinct(lattice: Lattice) -> np.ndarray:
    """(rows, N) bool: True on one row of each distinct table of a function.

    Word keys of at most 16 bits (void keys are wider than 64) sort with
    numpy's radix sort, kind="stable", about three times faster than the
    default there; wider keys keep the default, which beats the radix sort
    on uint32 keys.  Equal keys are equal tables, so which of their rows
    is marked does not matter."""
    keys = lattice.keys
    order = np.argsort(keys, axis=0,
                       kind="stable" if keys.dtype.itemsize <= 2 else None)
    fn = np.arange(order.shape[1])
    ordered = keys[order, fn]
    new = np.ones(ordered.shape, dtype=bool)
    new[1:] = ordered[1:] != ordered[:-1]
    out = np.empty_like(new)
    out[order, fn] = new
    return out


def sub_counts(lattice: Lattice, n: int) -> np.ndarray:
    """(N, n+1): (sub_0, ..., sub_n), distinct subfunctions by essential arity."""
    count = lattice.masks.shape[1]
    slot = (np.arange(count) * (n + 1)
            + np.bitwise_count(lattice.masks))[distinct(lattice)]
    return np.bincount(slot, minlength=count * (n + 1)).reshape(count, n + 1)


@lru_cache(maxsize=32)
def _by_size(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Each of the 2^n masks' position when they are ordered by popcount
    (stable), and where each size 0..n starts in that order."""
    sizes = np.bitwise_count(np.arange(1 << n))
    position = np.empty(1 << n, np.int64)
    position[np.argsort(sizes, kind="stable")] = np.arange(1 << n)
    starts = np.searchsorted(np.sort(sizes), np.arange(n + 1))
    position.flags.writeable = starts.flags.writeable = False
    return position, starts


def sep_counts(masks: np.ndarray, n: int) -> np.ndarray:
    """(N, n): (sep_1, ..., sep_n), distinct non-empty essential sets by size,
    from a lattice's ((k+1)^m, N) masks.

    Each function marks the masks present in its row of a (N, 2^n) byte
    table whose columns run by popcount, so one `np.add.reduceat` sums
    each size.  `take`, not a fancy index: narrow index dtypes index slowly.
    """
    position, starts = _by_size(n)
    present = np.zeros((masks.shape[1], 1 << n), dtype=np.uint8)
    cells = position.take(masks)
    cells += np.arange(0, present.size, 1 << n)  # each function's start
    present.reshape(-1)[cells] = 1
    return np.add.reduceat(present, starts, axis=1, dtype=np.int64)[:, 1:]


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
    masks = lattice.masks[order]
    bits = np.array(lattice.variables, np.int64)[:, None, None]
    essential = (masks >> bits) & 1
    imp = (masks == 0).astype(np.int64)
    for part, children in levels:
        imp[part] += (imp[children].sum(axis=1)
                      * essential[:, part]).sum(axis=0)
    return imp[-1]


def descent(lattice: Lattice, k: int, stop: np.ndarray) -> list[int] | None:
    """Rows of a one-function lattice from row 0 down to a `stop` row, each
    step to a child rho[x := c] that fixes an essential x and keeps every
    other essential variable (ess drops by exactly 1), the first in x, then
    c, order from which a stop row is still reachable; None if row 0 reaches
    none.  Reachability is decided level by level over free variables."""
    order, levels = _levels(len(lattice.variables), k)
    masks = lattice.masks[order, 0]
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
    """The lattice of one `KFunction` over its essential variables only:
    x_{i+1} is essential iff, with the table viewed as (-1, k, k^i), some
    digit of axis 1 differs from digit 0."""
    table = np.frombuffer(f.values, np.uint8)
    views = [table.reshape(-1, f.k, f.k ** i) for i in range(f.n)]
    lattice = restrictions(row_keys(table[None], f.k), f.k, f.n, [
        i for i, view in enumerate(views) if (view != view[:, :1]).any()])
    for array in lattice[:2]:  # every caller gets the same arrays
        array.flags.writeable = False
    return lattice


def _word_key(w: int, n: int) -> np.ndarray:
    """The (1,) `row_keys` of a binary table word, cell j = bit j: the word
    itself up to 64 bits, the bytes of its unpacked cells above that."""
    cells = 1 << n
    if not 0 <= w < 1 << cells:
        raise ValueError("id out of range for this (k, n)")
    if _word_dtype(2, cells) is not None:
        return keys_from_ids([w], 2, n)
    raw = np.frombuffer(w.to_bytes(cells // 8, "little"), np.uint8)
    return row_keys(np.unpackbits(raw, bitorder="little")[None], 2)


def sub_closure_word(w: int, n: int) -> dict[int, int]:
    """Sub(w) as {table word: essential mask (bit i-1 for variable i)}."""
    lattice = restrictions(_word_key(w, n), 2, n, range(n))
    keep = distinct(lattice)[:, 0]
    rows = np.packbits(key_rows(lattice.keys[keep, 0], 2, 1 << n), axis=1,
                       bitorder="little")
    return {int.from_bytes(row.tobytes(), "little"): mask
            for row, mask in zip(rows, lattice.masks[keep, 0].tolist())}


def sep_profile_word(w: int, n: int) -> tuple[int, ...]:
    """(sep_1, ..., sep_n): separable-set counts by cardinality."""
    masks = restrictions(_word_key(w, n), 2, n, range(n)).masks
    return tuple(sep_counts(masks, n)[0].tolist())
