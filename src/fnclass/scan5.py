"""The separability join over the full 2^32-function space P_2^5.

Strategy: write f = f0 + 2^(2^(n-1)) f1 by its x_n-cofactors.  The 3^n rows
of f's restriction lattice are then the rows of f0 (x_n = 0), the rows of
f1 (x_n = 1) and the x_n-free rows, each essential in the variables of the
two rows below it, plus x_n where those differ.  So every sep profile of
P_2^n is read off the lattice of all of P_2^(n-1), one `bitops.restrictions`
call read as built (at n = 5, 81 x 2^16 uint16 keys and uint8 masks), pair
by pair through the 64-bit set of the essential masks present.  Every
lattice here is built straight from function ids: at k = 2 an id is its
table's packed row key (`bitops.keys_from_ids`), so no table is decoded
into cells.  Profiles are invariant under H, the ge group of x_1..x_(n-1)
acting on both cofactors at once, so f0 only runs over the 222 orbit
minima of H on P_2^4, weighted by orbit size, while f1 runs over all 2^16
functions.  `classify_space(2, 5, "sep")` writes the Table 5 report from
`_sep_join`'s counts and least ids.

Its two oracles stay here: `_sep_profiles` (with `sample_sep_profiles`,
which counts the sampled profile tuples with a `Counter`) is a direct,
orbit-free scan over a random sample, and `_domain_maps`/`_orbit` expand
ge orbits on P_2^n by bit permutations, an orbit engine independent of
`groups` that the two cross-check.  Nothing is stored: every call
recomputes, the whole table in about 6 s (5.5-5.7 s at 64 MB peak RSS on a
2-vCPU VM).
"""

from __future__ import annotations

import itertools
from collections import Counter

import numpy as np

from . import bitops
from .groups import GroupDescriptor, orbit_minima, orbit_partition

_N = 5
_SPACE = 1 << 32
_ALL_ONES = np.uint64(0xFFFFFFFF)
_BIT = np.uint64(1) << np.arange(64, dtype=np.uint64)
# orbits on P_2^5 of its ge group (5! permutations * 2^5 shifts * 2 output
# complements = 7680 elements), by Burnside's lemma (tests re-derive it)
GE5_ORBITS = 616_126


def _domain_maps(n: int = _N) -> np.ndarray:
    """(n! * 2^n, 2^n) source bit positions, one row per (permutation, shift)."""
    cells = 1 << n
    maps = []
    for pi in itertools.permutations(range(n)):
        for c in range(cells):
            row = []
            for x in range(cells):
                src = 0
                for i in range(n):
                    if (x >> i) & 1:
                        src |= 1 << pi[i]
                row.append(src ^ c)
            maps.append(row)
    return np.array(maps, dtype=np.intp)


def _orbit(w: int, maps: np.ndarray, n: int = _N) -> np.ndarray:
    """Distinct images of the table word under every (perm, shift, complement).

    Unpacks the word into bits once, gathers through the precomputed source
    positions, and repacks rows; a single pass instead of per-bit shifts.
    """
    cells = 1 << n
    wbits = np.unpackbits(
        np.frombuffer(int(w).to_bytes(cells // 8, "little"), dtype=np.uint8),
        bitorder="little")
    packed = np.packbits(wbits[maps], axis=1, bitorder="little")
    if cells == 32:
        images = packed.view(np.uint32).ravel().astype(np.uint64)
        ones = _ALL_ONES
    else:
        images = packed.astype(np.uint64) @ (
            np.uint64(1) << (np.uint64(8) * np.arange(cells // 8, dtype=np.uint64)))
        ones = np.uint64((1 << cells) - 1)
    images = np.sort(np.concatenate([images, images ^ ones]))
    return images[np.concatenate(([True], images[1:] != images[:-1]))]


def _sep_profiles(words: np.ndarray) -> np.ndarray:
    """(len(words), 5) sep vectors of table words, bitops.BLOCK at a time,
    each block's lattice built on the words themselves."""
    out = np.empty((len(words), _N), dtype=np.uint8)
    for lo in range(0, len(words), bitops.BLOCK):
        keys = bitops.keys_from_ids(words[lo:lo + bitops.BLOCK], 2, _N)
        out[lo:lo + bitops.BLOCK] = bitops.sep_counts(
            bitops.restrictions(keys, 2, _N, range(_N)).masks, _N)
    return out


def _cofactors(m: int) -> tuple[bitops.Lattice, np.ndarray]:
    """The lattice of every function of P_2^m, one column each (3^m rows),
    from one `bitops.restrictions` call, and per function the uint64 set
    whose bit e is set iff some row of its column has mask e."""
    size = 1 << (1 << m)
    lattice = bitops.restrictions(bitops.keys_from_ids(np.arange(size), 2, m),
                                  2, m, range(m))
    return lattice, _mask_sets(lattice.masks, np.zeros(size, np.uint64))


def _mask_sets(masks: np.ndarray, out: np.ndarray) -> np.ndarray:
    """ORs bit e into `out`, per column, for each mask e in the column."""
    for row in masks:
        out |= _BIT[row]
    return out


def _pair_profiles(lattice: bitops.Lattice, present: np.ndarray, f0: int,
                   n: int) -> np.ndarray:
    """Packed sep profile of f0 + 2^(2^(n-1)) f1 for every f1 of P_2^(n-1),
    from `_cofactors(n - 1)`.

    The rows with x_n fixed are those of f0 and f1 (`present`); an
    x_n-free row is essential in mask0 | mask1, and in x_n where the two
    restrictions differ.  sep_s sits in bits 8(s-1) to 8s - 1.
    """
    keys, masks = lattice.keys, lattice.masks
    free = masks | masks[:, f0, None]
    free |= (keys != keys[:, f0, None]).view(np.uint8) << (n - 1)
    present = _mask_sets(free, present | present[f0])
    arity = np.bitwise_count(np.arange(1 << n))
    code = np.zeros(present.shape, np.int64)
    for s in range(1, n + 1):
        sets = np.bitwise_or.reduce(_BIT[:1 << n][arity == s])
        code |= np.bitwise_count(present & sets).astype(np.int64) << 8 * (s - 1)
    return code


def _unpack(code: int, n: int) -> tuple[int, ...]:
    return tuple(code >> 8 * s & 0xFF for s in range(n))


def _runs(code: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct values of `code`, the order that sorts it, and the start
    of each value's run in that order."""
    order = np.argsort(code)
    ordered = code[order]
    starts = np.flatnonzero(np.concatenate(([True],
                                            ordered[1:] != ordered[:-1])))
    return ordered[starts], order, starts


def _sep_join(n: int) -> dict[tuple[int, ...], list[int]]:
    """{sep profile: [count, least id]} over all of P_2^n (2 <= n <= 5: n = 6
    would need the lattice of all 2^32 functions of P_2^5, 243 rows each,
    far past `bitops.LATTICE_CELLS`).

    f0 runs over the orbit minima r of H, the ge group of x_1..x_(n-1)
    acting on both cofactors at once, weighted by |H r|; f1 runs over the
    whole space.  A class's least f1 is the least orbit label of its f1s,
    and one pass over every f0 at that f1 gives its least f0: the profile
    is symmetric in f0 and f1, swapping them is the x_n shift.
    """
    m = n - 1
    lattice, present = _cofactors(m)
    lab = orbit_partition(GroupDescriptor("ge", 2, m))
    minima, weights = orbit_minima(lab)
    if int(weights.sum()) != lab.size:  # sum_r |H r| = 2^(2^(n-1))
        raise RuntimeError("orbit labels are not orbit minima")
    classes: dict[int, list[int]] = {}
    for r, weight in zip(minima.tolist(), weights.tolist()):
        codes, order, starts = _runs(_pair_profiles(lattice, present, r, n))
        counts = np.diff(starts, append=len(order))
        least = np.minimum.reduceat(lab[order], starts)
        for code, cnt, f1 in zip(codes.tolist(), counts.tolist(),
                                 least.tolist()):
            entry = classes.setdefault(code, [0, f1])
            entry[0] += weight * cnt
            entry[1] = min(entry[1], f1)
    out = {}
    for f1 in {f1 for _, f1 in classes.values()}:
        codes, order, starts = _runs(_pair_profiles(lattice, present, f1, n))
        first = np.minimum.reduceat(order, starts)
        for code, f0 in zip(codes.tolist(), first.tolist()):
            if classes[code][1] == f1:
                out[_unpack(code, n)] = [classes[code][0], f0 | f1 << (1 << m)]
    return out


def sample_sep_profiles(count: int = 1_000_000,
                        seed: int = 0) -> dict[tuple[int, ...], int]:
    """Sep profiles of `count` uniformly sampled functions (direct scan),
    each with its count, profiles ascending.

    Independent of the cofactor join: no orbits, no cofactor pairs.
    """
    words = np.random.default_rng(seed).integers(0, _SPACE, size=count,
                                                 dtype=np.uint64)
    return dict(sorted(Counter(map(tuple, _sep_profiles(words).tolist()))
                       .items()))
