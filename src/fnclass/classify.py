"""Classification of function spaces by implementation, subfunction and
separability profiles, and by transformation-group orbits.

The implementation equivalence is recursive: two functions with more than
one essential variable are equivalent when their essential variables can be
matched so that, per variable, the k cofactors are equivalent up to a value
permutation.  That is decided here through a canonical signature: the
sorted multiset, over essential variables, of the sorted multiset of the
cofactor signatures, serialized to bytes.

Subfunction equivalence compares the sub_m count vectors (with the range
rule for single-variable functions); separability equivalence compares the
sep_m vectors.  Both degenerate to comparing essential counts at ess <= 1.

All three are invariant under the genus group g (variable permutations and
argument translations), so a whole-space scan reads one function per
g-orbit, its least id, and weights it by the orbit's size.  A block's key
rows are grouped by one stable lexsort (`group_rows`), and each class's
representative text is written straight from its id (`kfun.table_texts`).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from . import bitops
from .diagrams import imp_count
from .groups import (GROUP_NAMES, GroupDescriptor, orbit_minima,
                     orbit_partition)
from .kfun import KFunction, space_size, table_texts
from .separability import ComplexityProfile, sep_vector, sub_vector

RELATIONS = ("imp", "sub", "sep")

# signatures kept for reuse by the recursion and by repeated calls; the
# least recently used one is dropped beyond this many
_SIG_CACHE_SIZE = 1 << 14


@functools.lru_cache(maxsize=_SIG_CACHE_SIZE)
def imp_signature(f: KFunction) -> bytes:
    """Canonical form of the recursive implementation equivalence.

    Equal signatures are equivalent to the existence of the matching in the
    definition (checked against the direct search oracle on small spaces).
    Functions whose essential counts differ never share a signature.
    """
    ess = sorted(f.essential_set())
    if len(ess) <= 1:
        return b"L%d" % len(ess)
    descriptors = sorted(
        b"[" + b",".join(sorted(imp_signature(f.cofactor(i, j))
                                for j in range(f.k))) + b"]"
        for i in ess)
    return b"{" + b",".join(descriptors) + b"}"


def imp_equivalent_direct(f: KFunction, g: KFunction) -> bool:
    """Literal decision of the recursive definition by explicit search.

    Tries every bijection between the essential variable sets and, per
    matched pair, every value permutation.  Exponential; this is the
    independent oracle guarding imp_signature, not a production path.
    """
    memo: dict[tuple[bytes, bytes], bool] = {}

    def rec(a: KFunction, b: KFunction) -> bool:
        ea, eb = sorted(a.essential_set()), sorted(b.essential_set())
        if len(ea) != len(eb):
            return False
        if len(ea) <= 1:
            return True
        key = (a.values, b.values)
        hit = memo.get(key)
        if hit is not None:
            return hit
        memo[key] = False  # pessimistic default while exploring
        k = a.k
        result = False
        for perm in itertools.permutations(eb):
            if all(any(all(rec(a.cofactor(i, j), b.cofactor(pi, sigma[j]))
                           for j in range(k))
                       for sigma in itertools.permutations(range(k)))
                   for i, pi in zip(ea, perm)):
                result = True
                break
        memo[key] = result
        return result

    return rec(f, g)


# ---------------------------------------------------------------------------
# per-function class keys
# ---------------------------------------------------------------------------

def _key(rel: str, k: int, row: list[int]) -> tuple:
    """The class key that one row of the `_block_keys` matrix encodes."""
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


def _extra(rel: str, counts: list[int]) -> dict:
    """A class record's profile: imp, or the sub or sep total and vector."""
    if rel == "imp":
        return {"imp": counts[0]}
    return {rel: sum(counts), f"{rel}_vector": counts}


def group_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a 2-d array, as each one's first index (distinct
    rows in ascending lexicographic order), and each row's distinct-row
    index: `np.unique(rows, axis=0)`'s index and inverse, from one stable
    `np.lexsort` and a mask of equal neighbours."""
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(rows), np.int64)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


def _block_keys(tables: np.ndarray, k: int, n: int, relations) -> dict:
    """Per relation: a block's distinct keys, each key's first position,
    each function's key index and each key's `_extra` (its first
    function's profile).  Below ess 2 a key is ess (plus the range for
    sub, as k columns marking the values present); from 2 up imp, the sub
    or sep vector, which below ess 2 only depend on ess (and the range)."""
    lattice = bitops.restrictions(tables, k, range(n))
    low = np.minimum(np.bitwise_count(lattice.masks[:, :1]), 2)
    out = {}
    for rel in relations:
        if rel == "imp":
            value = counts = bitops.imp_counts(lattice, k)[:, None]
        elif rel == "sub":  # the range rule for single-variable functions
            counts = bitops.sub_counts(lattice, n)
            unary = low[:, 0] == 1
            present = np.zeros((len(tables), k), np.int64)
            present[np.flatnonzero(unary)[:, None], tables[unary]] = 1
            value = np.hstack([present, counts])
        else:
            value = counts = bitops.sep_counts(lattice.masks, n)
        rows = np.hstack([low, value])
        first, inverse = group_rows(rows)
        out[rel] = ([_key(rel, k, row) for row in rows[first].tolist()],
                    first, inverse,
                    [_extra(rel, row) for row in counts[first].tolist()])
    return out


def _function_key(f: KFunction, rel: str) -> tuple:
    table = np.frombuffer(f.values, dtype=np.uint8)[None]
    return _block_keys(table, f.k, f.n, (rel,))[rel][0][0]


def sub_key(f: KFunction) -> tuple:
    return _function_key(f, "sub")


def sep_key(f: KFunction) -> tuple:
    return _function_key(f, "sep")


def imp_key(f: KFunction) -> tuple:
    """Class key of the implementation-count equivalence.

    The reference classifications group functions by their implementation
    count (with the essential count settling the degenerate cases), and on
    P_2^3 that partition provably coincides with the recursive definition
    rendered by imp_signature.  On P_2^4 the recursive reading is strictly
    finer (214 parts against the reference 104), so the count is the
    operative key and imp_signature remains available as the refinement.
    """
    return _function_key(f, "imp")


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


def _orbit_index(labels: np.ndarray, minima: np.ndarray) -> np.ndarray:
    """Each id's orbit as an index into the ascending `minima`."""
    position = np.empty(labels.size, np.int64)
    position[minima] = np.arange(minima.size)
    return position[labels]


def scan_space(k: int, n: int, relations=RELATIONS,
               keep_assignment: bool = False,
               max_space: int = 1 << 22) -> dict[str, ClassificationReport]:
    """Classify the whole of P_k^n under several relations in one pass.

    Every imp, sub or sep class is a union of orbits of g (variable
    permutations and argument translations), so only each orbit's least id
    is classified, `bitops.BLOCK` at a time, and weighted by its orbit
    size; a class's least id is its least orbit minimum.  g, not ge: at
    k > 2 an output translation changes a unary function's range, which
    is part of its sub key.
    """
    size = space_size(k, n, max_space)
    if size is None:
        raise MemoryError(f"P_{k}^{n} has more functions than the scan budget "
                          f"{max_space}")
    relations = tuple(relations)
    lab = orbit_partition(GroupDescriptor("g", k, n), max_space=max_space)
    minima, sizes = orbit_minima(lab)
    # key: (class id, least id, profile)
    found = {rel: {} for rel in relations}
    cls = {rel: np.empty(minima.size, np.int64) for rel in relations}
    for lo in range(0, minima.size, bitops.BLOCK):
        block = minima[lo:lo + bitops.BLOCK]
        tables = bitops.tables_from_ids(block, k, n)
        for rel, (keys, first, index, extras) in _block_keys(
                tables, k, n, relations).items():
            seen = found[rel]
            for j in np.argsort(first).tolist():  # class ids by least id
                seen.setdefault(keys[j], (len(seen), int(block[first[j]]),
                                          extras[j]))
            cls[rel][lo:lo + block.size] = np.array(
                [seen[key][0] for key in keys])[index]

    index = _orbit_index(lab, minima) if keep_assignment else None
    out = {}
    for rel in relations:
        counts = np.zeros(len(found[rel]), np.int64)
        np.add.at(counts, cls[rel], sizes)
        texts = table_texts([rep_id for _, rep_id, _ in found[rel].values()],
                            k, n)
        records = [ClassRecord(index=c + 1, key=_key_str(key),
                               size=int(counts[c]), representative=text,
                               extra=extra)
                   for (key, (c, _, extra)), text in zip(found[rel].items(),
                                                         texts)]
        assign = None if index is None else cls[rel][index]
        out[rel] = ClassificationReport(rel, k, n, size, records, assign)
    return out


def classify_space(k: int, n: int, relation: str,
                   keep_assignment: bool = False,
                   max_space: int = 1 << 22) -> ClassificationReport:
    """Partition P_k^n under one relation: imp, sub, sep, or a group name.

    P_2^5 under sep, 2^32 functions, comes from the cofactor join of
    `scan5.sep_scan_p2_5`, which keeps no per-function assignment and scans
    all 2^16 functions of P_2^4, so `max_space` must admit those.
    """
    if (k, n, relation) == (2, 5, "sep") and not keep_assignment:
        if space_size(2, 4, max_space) is None:
            raise MemoryError(f"the P_2^5 sep join scans the {1 << 16} "
                              f"functions of P_2^4, over budget {max_space}")
        from .scan5 import sep_scan_p2_5  # scan5 builds on this module
        return sep_scan_p2_5()
    if relation in RELATIONS:
        return scan_space(k, n, (relation,), keep_assignment=keep_assignment,
                          max_space=max_space)[relation]
    if relation in GROUP_NAMES:
        labels = orbit_partition(GroupDescriptor(relation, k, n),
                                 max_space=max_space)
        reps, counts = orbit_minima(labels)
        records = [ClassRecord(index=idx + 1, key=f"orbit:{text}", size=cnt,
                               representative=text)
                   for idx, (text, cnt) in enumerate(zip(
                       table_texts(reps.tolist(), k, n), counts.tolist()))]
        assignment = _orbit_index(labels, reps) if keep_assignment else None
        return ClassificationReport(relation, k, n, int(labels.size), records,
                                    assignment)
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
        raise ValueError("refinement_check needs reports built with "
                         "keep_assignment=True")
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
