"""Classification of function spaces by implementation, subfunction and
separability profiles, and by transformation-group orbits.

The three relations are the classes with the same number of
implementations, subfunctions or separable sets: implementation
equivalence compares the implementation count, subfunction equivalence the
sub_m count vectors (with the range rule for single-variable functions),
separability equivalence the sep_m vectors.  Below two essential variables
each count depends only on the essential count (and, for sub, the range),
so that is the key there (`_block_rows`, `_key`).

All three are invariant under the genus group g (variable permutations and
argument translations), so a whole-space scan reads one function per
g-orbit, its least id, and weights it by the orbit's size; the key rows of
all minima are grouped once per relation (`bitops.group_rows`).  One
builder writes every report, the group orbits' and the P_2^5 sep join's
(`scan5._sep_join`) too, each representative straight from its least id.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import bitops, scan5
from .diagrams import imp_count
from .groups import (GROUP_NAMES, GroupDescriptor, orbit_minima,
                     orbit_partition)
from .kfun import KFunction, space_size, table_texts
from .separability import ComplexityProfile, sep_vector, sub_vector

RELATIONS = ("imp", "sub", "sep")


# ---------------------------------------------------------------------------
# class keys
# ---------------------------------------------------------------------------

def _key(rel: str, k: int, row: list[int]) -> tuple:
    """The class key that one `_block_rows` row encodes."""
    low, *value = row
    if rel == "sub":
        present, value = value[:k], value[k:]
        if low == 0:
            return ("E0",)
        if low == 1:
            return ("E1", tuple(v for v in range(k) if present[v]))
    if low <= 1:
        return ("E", low)
    return ("V", *value)


def _extra(rel: str, k: int, row: list[int]) -> dict:
    """A class record's profile, read off one `_block_rows` row: imp, or
    the sub or sep total and vector."""
    counts = row[1 + k:] if rel == "sub" else row[1:]
    if rel == "imp":
        return {"imp": counts[0]}
    return {rel: sum(counts), f"{rel}_vector": counts}


def _block_rows(keys: np.ndarray, k: int, n: int, relations) -> dict:
    """Per relation, one int64 row per function of P_k^n, given by its
    `bitops.row_keys` key: ess capped at 2, then k columns marking the
    values present (sub only, set at ess 1), then imp or the sub or sep
    vector.  Below ess 2 the key is ess (plus the range for sub), and there
    imp, the sub or the sep vector only depend on ess (and the range), so
    equal rows are exactly equal keys."""
    lattice = bitops.restrictions(keys, k, n, range(n))
    low = np.minimum(np.bitwise_count(lattice.masks[0]), 2)[:, None]
    out = {}
    for rel in relations:
        if rel == "imp":
            value = bitops.imp_counts(lattice, k)[:, None]
        elif rel == "sub":  # the range rule for single-variable functions
            unary = np.flatnonzero(low[:, 0] == 1)
            present = np.zeros((len(keys), k), np.int64)
            tables = bitops.key_rows(keys[unary], k, k ** n)
            present[unary[:, None], tables] = 1
            value = np.hstack([present, bitops.sub_counts(lattice, n)])
        else:
            value = bitops.sep_counts(lattice.masks, n)
        out[rel] = np.hstack([low, value])
    return out


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassRecord:
    index: int
    key: str
    size: int
    representative: str
    extra: dict = field(default_factory=dict)


@dataclass
class ClassificationReport:
    relation: str
    k: int
    n: int
    total: int
    classes: list[ClassRecord]
    assignment: np.ndarray | None = None  # class index per function id

    def class_count(self) -> int:
        return len(self.classes)

    def sizes(self) -> list[int]:
        return [c.size for c in self.classes]

    def to_json_dict(self) -> dict:
        return {
            "relation": self.relation, "k": self.k, "n": self.n,
            "total": self.total,
            "classes": [{"index": c.index, "key": c.key, "size": c.size,
                         "representative": c.representative, **c.extra}
                        for c in self.classes],
        }

    def csv_rows(self) -> list[list]:
        rows = []
        for c in self.classes:
            extras = [f"{k}={v}" for k, v in sorted(c.extra.items())]
            rows.append([c.index, c.key, c.size, c.representative, *extras])
        return rows

    CSV_HEADER = ["class", "key", "size", "representative"]


def _key_str(key: tuple) -> str:
    return ":".join(str(x) for x in key)


def _report(relation: str, k: int, n: int, total: int, classes,
            assignment: np.ndarray | None = None) -> ClassificationReport:
    """The report of (key, size, least id, profile) per class, in class
    order; a key of None names an orbit by its least table."""
    keys, sizes, least, extras = zip(*classes)
    records = [ClassRecord(index, f"orbit:{text}" if key is None
                           else _key_str(key), size, text, extra)
               for index, key, size, text, extra in zip(
                   itertools.count(1), keys, sizes,
                   table_texts(least, k, n), extras)]
    return ClassificationReport(relation, k, n, total, records, assignment)


def scan_space(k: int, n: int, relations=RELATIONS,
               keep_assignment: bool = False,
               max_space: int = 1 << 22) -> dict[str, ClassificationReport]:
    """Classify the whole of P_k^n under several relations in one pass.

    Every imp, sub or sep class is a union of orbits of g (variable
    permutations and argument translations), so only each orbit's least id
    is classified, `bitops.BLOCK` at a time, and weighted by its orbit
    size.  One `bitops.group_rows` call per relation groups all minima's key
    rows; the minima ascend and the sort is stable, so a class's first row,
    which numbers it, is its least id.  g, not ge: at k > 2 an output
    translation changes a unary function's range, part of its sub key.
    A relation named twice is classified once; `keep_assignment` gives
    each report every id's class index.
    """
    relations = tuple(dict.fromkeys(relations))
    for rel in relations:
        if rel not in RELATIONS:
            raise ValueError(f"unknown relation {rel!r}; use one of "
                             f"{RELATIONS}")
    size = space_size(k, n, max_space)
    if size is None:
        raise MemoryError(f"P_{k}^{n} has more functions than the scan budget "
                          f"{max_space}")
    lab = orbit_partition(GroupDescriptor("g", k, n), max_space=max_space)
    minima, sizes = orbit_minima(lab)
    blocks = {rel: [] for rel in relations}
    for lo in range(0, minima.size, bitops.BLOCK):
        keys = bitops.keys_from_ids(minima[lo:lo + bitops.BLOCK], k, n)
        for rel, rows in _block_rows(keys, k, n, relations).items():
            # all minima's rows are kept: each block in its least dtype
            blocks[rel].append(rows.astype(np.min_scalar_type(rows.max())))

    # each id's orbit as an index into the ascending minima
    index = np.searchsorted(minima, lab) if keep_assignment else None
    out = {}
    for rel in relations:
        rows = np.vstack(blocks.pop(rel))
        first, inverse = bitops.group_rows(rows)
        cls = np.argsort(np.argsort(first))[inverse]  # numbered by least id
        first = np.sort(first)
        counts = np.zeros(first.size, np.int64)
        np.add.at(counts, cls, sizes)
        classes = [(_key(rel, k, row), count, least, _extra(rel, k, row))
                   for row, count, least in zip(rows[first].tolist(),
                                                counts.tolist(),
                                                minima[first].tolist())]
        out[rel] = _report(rel, k, n, size, classes,
                           None if index is None else cls[index])
    return out


def classify_space(k: int, n: int, relation: str,
                   max_space: int = 1 << 22) -> ClassificationReport:
    """Partition P_k^n under one relation: imp, sub, sep, or a group name.

    The report lists the classes only: `scan_space(..., keep_assignment=
    True)` gives every id's imp, sub or sep class, and `orbit_partition`
    labels every id with its orbit's least id.  P_2^5 under sep, 2^32
    functions, comes from the cofactor join `scan5._sep_join`, which scans
    all 2^16 functions of P_2^4, so `max_space` must admit those.
    """
    if (k, n, relation) == (2, 5, "sep"):
        if space_size(2, 4, max_space) is None:
            raise MemoryError(f"the P_2^5 sep join scans the {1 << 16} "
                              f"functions of P_2^4, over budget {max_space}")
        join = sorted(scan5._sep_join(n).items(), key=lambda c: c[0][::-1])
        # every profile is keyed by its vector, as a row at ess 2 is
        return _report(relation, k, n, 1 << 32, [
            (_key(relation, k, [2, *p]), size, least,
             _extra(relation, k, [2, *p])) for p, (size, least) in join])
    if relation in RELATIONS:
        return scan_space(k, n, (relation,), max_space=max_space)[relation]
    if relation in GROUP_NAMES:
        labels = orbit_partition(GroupDescriptor(relation, k, n),
                                 max_space=max_space)
        minima, sizes = orbit_minima(labels)
        return _report(relation, k, n, int(labels.size), [
            (None, size, least, {})
            for least, size in zip(minima.tolist(), sizes.tolist())])
    raise ValueError(f"unknown relation {relation!r}; use one of "
                     f"{RELATIONS + GROUP_NAMES}")


def class_counts(k: int, n: int) -> tuple[int, int, int]:
    """(t_imp, t_sub, t_sep) for the space P_k^n."""
    reports = scan_space(k, n, RELATIONS)
    return tuple(reports[rel].class_count() for rel in RELATIONS)


def refinement_check(a: ClassificationReport, b: ClassificationReport) -> bool:
    """True iff every class of `a` lies inside a single class of `b`."""
    if (a.k, a.n) != (b.k, b.n):
        raise ValueError("reports cover different spaces")
    if a.assignment is None or b.assignment is None:
        raise ValueError("refinement_check needs scan_space reports built "
                         "with keep_assignment=True")
    seen: dict[int, int] = {}
    for ca, cb in zip(a.assignment.tolist(), b.assignment.tolist()):
        prev = seen.get(ca)
        if prev is None:
            seen[ca] = cb
        elif prev != cb:
            return False
    return True


def compute_profile(f: KFunction):
    """All three complexity measures of one function."""
    return ComplexityProfile(imp=imp_count(f), sub=sub_vector(f),
                             sep=sep_vector(f))
