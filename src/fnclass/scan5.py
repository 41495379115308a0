"""Separability classification of the full 2^32-function space P_2^5.

Strategy: sep profiles are invariant under variable permutation, argument
complementation and output complementation, so the space is covered by the
orbits of that group (7680 elements).  Phase one walks the space in id
order, expanding each unseen function's orbit with vectorized bit
permutations and marking members in a 512 MiB bitmap; this yields one
minimal representative and the exact orbit size per orbit.  Phase two
computes the sep profiles of the representatives in blocks on the
restriction-lattice kernel (`bitops`) and accumulates class cardinalities
weighted by orbit size.

The walk checkpoints its bitmap and partial transversal, so interrupted
runs resume.  The finished transversal is cached and reused only while it
passes checks against the orbit count from Burnside's lemma and the size of
the space.  A direct (orbit-free) scan over a random sample is provided
as an independent verifier.
"""

from __future__ import annotations

import itertools
import time
import zipfile
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import bitops
from . import cache as cache_mod
from .classify import ClassRecord, ClassificationReport, merge_class_counts
from .kfun import KFunction

_N = 5
_CELLS = 32
_SPACE = 1 << 32
_ALL_ONES = np.uint64(0xFFFFFFFF)
_GROUP_ORDER = 7680  # 5! permutations * 2^5 shifts * 2 output complements
# orbits of that group on P_2^5, by Burnside's lemma (tests re-derive it)
GE5_ORBITS = 616_126

CKPT_NAME = "scan5_ge_ckpt.npz"
TRANSVERSAL_NAME = "scan5_ge_transversal.npz"


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
    return np.unique(np.concatenate([images, images ^ ones]))


class _Bitmap:
    """Seen-marks for 2^32 ids in one uint8 array."""

    def __init__(self, data: np.ndarray | None = None):
        self.data = np.zeros(_SPACE >> 3, dtype=np.uint8) if data is None else data

    def mark_many(self, ids: np.ndarray) -> None:
        np.bitwise_or.at(self.data, (ids >> np.uint64(3)).astype(np.int64),
                         np.uint8(1) << (ids & np.uint64(7)).astype(np.uint8))

    def next_clear(self, start: int) -> int | None:
        byte = start >> 3
        data = self.data
        # finish the current byte bit by bit
        if byte < data.size and data[byte] != 0xFF:
            for bit in range(start & 7, 8):
                if not data[byte] & (1 << bit):
                    return (byte << 3) | bit
        byte += 1
        chunk = 1 << 20
        while byte < data.size:
            seg = data[byte:byte + chunk]
            hole = np.flatnonzero(seg != 0xFF)
            if hole.size:
                b = byte + int(hole[0])
                v = int(data[b])
                for bit in range(8):
                    if not v & (1 << bit):
                        return (b << 3) | bit
            byte += chunk
        return None


def _load_transversal(path) -> tuple[np.ndarray, np.ndarray] | None:
    """A cached (reps, sizes) pair, or None when the file is absent or fails
    the checks a transversal of P_2^5 must pass: GE5_ORBITS strictly
    ascending representatives whose orbit sizes divide the group order and
    add up to the whole space."""
    try:
        with open(path, "rb") as fh:
            data = np.load(fh)
            reps, sizes = data["reps"], data["sizes"]
    except (OSError, EOFError, LookupError, ValueError, zipfile.BadZipFile):
        return None
    if (reps.shape != (GE5_ORBITS,) or sizes.shape != reps.shape
            or not np.all(reps[1:] > reps[:-1])
            or sizes.min() < 1 or np.any(_GROUP_ORDER % sizes)
            or int(sizes.sum()) != _SPACE):
        return None
    return reps, sizes


def ge_transversal(cache_dir: str | None = None, resume: bool = True,
                   checkpoint_seconds: float = 300.0,
                   progress=None) -> tuple[np.ndarray, np.ndarray]:
    """Orbit minima and orbit sizes covering all of P_2^5.

    Returns (reps, sizes) as uint64/int64 arrays; the result is cached (a
    cached file that fails `_load_transversal`'s checks is walked again),
    and an interrupted walk restarts from its last checkpoint.
    """
    base = cache_mod.cache_dir(cache_dir)
    done = base / TRANSVERSAL_NAME
    if resume:
        cached = _load_transversal(done)
        if cached is not None:
            return cached

    maps = _domain_maps()

    ckpt = base / CKPT_NAME
    if resume and ckpt.exists():
        state = np.load(ckpt)
        bitmap = _Bitmap(state["seen"].copy())
        pos = int(state["pos"])
        reps = list(state["reps"])
        sizes = list(state["sizes"])
    else:
        bitmap = _Bitmap()
        pos = 0
        reps, sizes = [], []

    def save_checkpoint(at: int) -> None:
        cache_mod.save_npz(ckpt, seen=bitmap.data, pos=np.int64(at),
                           reps=np.array(reps, dtype=np.uint64),
                           sizes=np.array(sizes, dtype=np.int64))

    last_save = time.time()
    nxt = bitmap.next_clear(pos)
    try:
        while nxt is not None:
            orbit = _orbit(nxt, maps)
            bitmap.mark_many(orbit)
            reps.append(nxt)
            sizes.append(orbit.size)
            if time.time() - last_save >= checkpoint_seconds:
                save_checkpoint(nxt)
                last_save = time.time()
                if progress:
                    progress(len(reps), nxt)
            nxt = bitmap.next_clear(nxt + 1)
    except KeyboardInterrupt:
        save_checkpoint(nxt if nxt is not None else _SPACE - 1)
        raise

    reps_arr = np.array(reps, dtype=np.uint64)
    sizes_arr = np.array(sizes, dtype=np.int64)
    cache_mod.save_npz(done, reps=reps_arr, sizes=sizes_arr)
    if ckpt.exists():
        ckpt.unlink()
    return reps_arr, sizes_arr


def _sep_profiles(words: np.ndarray) -> np.ndarray:
    """(len(words), 5) sep vectors of table words, bitops.BLOCK at a time."""
    out = np.empty((len(words), _N), dtype=np.uint8)
    for lo in range(0, len(words), bitops.BLOCK):
        tables = bitops.tables_from_ids(words[lo:lo + bitops.BLOCK], 2, _N)
        out[lo:lo + bitops.BLOCK] = bitops.sep_counts(
            bitops.restrictions(tables, 2, range(_N)).masks, _N)
    return out


def _profile_chunk(args) -> dict:
    reps, sizes = args  # reps ascend, so a profile's first rep is its least
    profiles, first, inverse = np.unique(
        _sep_profiles(reps), axis=0, return_index=True, return_inverse=True)
    # float sums of orbit sizes are exact: they stay below 2^33
    counts = np.bincount(inverse.reshape(-1), weights=sizes)
    return {tuple(prof): [int(cnt), int(reps[i])] for prof, cnt, i
            in zip(profiles.tolist(), counts, first)}


def sep_scan_p2_5(cache_dir: str | None = None, jobs: int = 1,
                  resume: bool = True, progress=None) -> ClassificationReport:
    """Exact sep-classification of all 2^32 binary 5-ary functions."""
    base = cache_mod.cache_dir(cache_dir)
    report_file = cache_mod.report_path(base, "sep", 2, _N)
    if resume:
        report = ClassificationReport.load_cached(report_file, "sep", 2, _N)
        if report is not None:
            return report

    reps, sizes = ge_transversal(cache_dir, resume=resume, progress=progress)

    counts: dict[tuple[int, ...], list] = {}
    if jobs > 1:
        chunk = (len(reps) + jobs * 8 - 1) // (jobs * 8)
        tasks = [(reps[i:i + chunk], sizes[i:i + chunk])
                 for i in range(0, len(reps), chunk)]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for part in pool.map(_profile_chunk, tasks):
                merge_class_counts(counts, part)
    else:
        counts = _profile_chunk((reps, sizes))

    records = []
    ordered = sorted(counts.items(), key=lambda item: tuple(reversed(item[0])))
    for idx, (prof, (cnt, rep_w)) in enumerate(ordered):
        rep = KFunction.from_word(rep_w, _N)
        records.append(ClassRecord(
            index=idx + 1, key="V:" + ":".join(map(str, prof)), size=cnt,
            representative=rep.to_hex(),
            extra={"sep": sum(prof), "sep_vector": list(prof)}))
    report = ClassificationReport("sep", 2, _N, _SPACE, records)
    cache_mod.save_json(report_file, report.to_json_dict())
    return report


def _sample_chunk(words: np.ndarray) -> dict:
    profiles, counts = np.unique(_sep_profiles(words), axis=0,
                                 return_counts=True)
    return {tuple(prof): int(cnt)
            for prof, cnt in zip(profiles.tolist(), counts)}


def sample_sep_profiles(count: int = 1_000_000, seed: int = 0,
                        jobs: int = 1) -> dict[tuple[int, ...], int]:
    """Sep profiles of `count` uniformly sampled functions (direct scan).

    Independent of the orbit walk: no canonicalization, no transversal.
    The sample is drawn once from `seed`, so `jobs` only splits the work.
    """
    words = np.random.default_rng(seed).integers(0, _SPACE, size=count,
                                                 dtype=np.uint64)
    if jobs <= 1:
        return _sample_chunk(words)
    merged: dict[tuple[int, ...], int] = {}
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        for part in pool.map(_sample_chunk, np.array_split(words, jobs)):
            for prof, cnt in part.items():
                merged[prof] = merged.get(prof, 0) + cnt
    return merged
