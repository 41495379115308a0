import json
from collections import Counter

import numpy as np
import pytest

from fnclass import bitops
from fnclass.bitops import group_rows
from fnclass.classify import (RELATIONS, _block_rows, _key, _key_str,
                              class_counts, classify_space, refinement_check,
                              scan_space)
from fnclass.diagrams import imp_count
from fnclass.groups import GroupDescriptor, orbit_partition
from fnclass.kfun import KFunction
from fnclass.separability import sep_vector, sub_vector
from fnclass.spform import parse

# P_3^2 classes: (key, size, representative, imp/sub/sep total)
P32_CLASSES = {
    "imp": [
        ("E:0", 3, "0,0,0,0,0,0,0,0,0", 1),
        ("V:10", 54, "1,0,0,0,0,0,0,0,0", 10),
        ("V:12", 216, "1,1,0,0,0,0,0,0,0", 12),
        ("E:1", 48, "1,1,1,0,0,0,0,0,0", 3),
        ("V:14", 2484, "2,1,1,0,0,0,0,0,0", 14),
        ("V:16", 7128, "0,1,1,1,0,0,0,0,0", 16),
        ("V:18", 9750, "0,1,1,1,0,0,1,0,0", 18),
    ],
    "sub": [
        ("E0", 3, "0,0,0,0,0,0,0,0,0", 1),
        ("V:2:2:1", 216, "1,0,0,0,0,0,0,0,0", 5),
        ("V:3:3:1", 864, "2,1,0,0,0,0,0,0,0", 7),
        ("E1:(0, 1)", 12, "1,1,1,0,0,0,0,0,0", 3),
        ("E1:(0, 2)", 12, "2,2,2,0,0,0,0,0,0", 3),
        ("V:2:4:1", 594, "0,1,0,1,0,0,0,0,0", 7),
        ("V:3:4:1", 2538, "2,1,0,1,0,0,0,0,0", 8),
        ("V:2:3:1", 216, "1,1,1,1,0,0,0,0,0", 6),
        ("V:3:5:1", 6120, "0,2,1,1,0,0,0,0,0", 9),
        ("V:2:5:1", 216, "1,0,1,1,1,0,0,0,0", 8),
        ("E1:(0, 1, 2)", 12, "2,2,2,1,1,1,0,0,0", 4),
        ("V:3:6:1", 8616, "0,2,1,2,0,0,1,0,0", 10),
        ("V:2:6:1", 252, "0,0,1,0,1,0,1,0,0", 9),
        ("E1:(1, 2)", 12, "2,2,2,1,1,1,1,1,1", 3),
    ],
    "sep": [
        ("E:0", 3, "0,0,0,0,0,0,0,0,0", 0),
        ("V:2:1", 19632, "1,0,0,0,0,0,0,0,0", 3),
        ("E:1", 48, "1,1,1,0,0,0,0,0,0", 1),
    ],
}


def row_key(f: KFunction, rel: str) -> tuple:
    """`f`'s class key under `rel`, read off its one-function block row."""
    keys = bitops.row_keys(np.frombuffer(f.values, dtype=np.uint8)[None], f.k)
    row = _block_rows(keys, f.k, f.n, (rel,))[rel][0]
    return _key(rel, f.k, row.tolist())


class TestKeys:
    def test_sub_key_range_rule_for_unary_k3(self):
        up = KFunction(3, 1, [0, 1, 2])     # range {0,1,2}
        two = KFunction(3, 1, [0, 1, 1])    # range {0,1}
        assert row_key(up, "sub") != row_key(two, "sub")
        assert row_key(two, "sub") == \
            row_key(KFunction(3, 1, [1, 0, 0]), "sub")

    def test_sub_key_constants_merge_regardless_of_value(self):
        assert row_key(KFunction.constant(3, 1, 0), "sub") == \
            row_key(KFunction.constant(3, 1, 2), "sub")

    def test_sep_key_low_ess(self):
        assert row_key(KFunction.constant(2, 2, 0), "sep") != \
            row_key(parse("x1", 2, arity=2), "sep")

    @pytest.mark.parametrize("k", [65, 100, 256])
    def test_sub_key_range_above_64_values(self, k):
        # the range is kept as the values present, not as a 64-bit set
        def unary(top):
            return KFunction(k, 1, [0, top] + [0] * (k - 2))
        assert row_key(unary(64), "sub") == ("E1", (0, 64))
        assert row_key(unary(k - 1), "sub") == ("E1", (0, k - 1))
        assert row_key(KFunction(k, 1, range(k)), "sub") == \
            ("E1", tuple(range(k)))


class TestGroupRows:
    """`group_rows` against `np.unique(axis=0)` as the reference."""

    @staticmethod
    def check(rows):
        first, inverse = group_rows(rows)
        uniq, index, inv, counts = np.unique(
            rows, axis=0, return_index=True, return_inverse=True,
            return_counts=True)
        assert np.array_equal(rows[first], uniq)
        assert np.array_equal(first, index)
        assert np.array_equal(inverse, inv.reshape(-1))
        assert np.array_equal(np.bincount(inverse, minlength=len(first)),
                              counts)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("shape", [(40, 1), (40, 3), (200, 6), (7, 2)])
    def test_seeded_rows_with_ties(self, seed, shape):
        rng = np.random.default_rng(seed)
        self.check(rng.integers(0, 3, size=shape))

    def test_one_row(self):
        self.check(np.array([[4, 0, 2]]))

    def test_all_equal_rows(self):
        self.check(np.full((9, 4), 7))

    @pytest.mark.parametrize("seed", range(3))
    def test_void_column(self, seed):
        # rows viewed as one void scalar each, as `groups._distinct` does:
        # grouped by their bytes
        rows = np.random.default_rng(seed).integers(0, 3, size=(60, 5),
                                                    dtype=np.uint8)
        first, inverse = group_rows(rows.view("V5"))
        _, index, inv = np.unique(rows, axis=0, return_index=True,
                                  return_inverse=True)
        assert np.array_equal(first, index)
        assert np.array_equal(inverse, inv.reshape(-1))

    def test_block_keys_group_like_unique(self):
        # P_2^3 in one block: equal rows are equal keys, and each
        # function's row is the one its own one-function block gives
        keys = bitops.row_keys(bitops.tables_from_ids(np.arange(256), 2, 3), 2)
        for rel, rows in _block_rows(keys, 2, 3,
                                     ("imp", "sub", "sep")).items():
            first, index = group_rows(rows)
            classes = [_key(rel, 2, row) for row in rows[first].tolist()]
            assert len(set(classes)) == len(classes) == index.max() + 1
            assert np.array_equal(index[first], np.arange(len(classes)))
            for i in range(256):
                alone = _block_rows(keys[i:i + 1], 2, 3, (rel,))[rel]
                assert np.array_equal(alone, rows[i:i + 1])


class TestClassifySpace:
    def test_p22_imp_classes(self):
        report = classify_space(2, 2, "imp")
        got = sorted((c.extra["imp"], c.size) for c in report.classes)
        assert got == [(1, 2), (2, 4), (6, 8), (8, 2)]

    def test_p23_sep_classes(self):
        report = classify_space(2, 3, "sep")
        got = sorted((c.extra["sep"], c.size) for c in report.classes)
        assert got == [(0, 2), (1, 6), (3, 30), (6, 24), (7, 194)]

    def test_p23_imp_classes_values_and_sizes(self):
        report = classify_space(2, 3, "imp")
        got = {c.extra["imp"]: c.size for c in report.classes}
        assert got == {1: 2, 2: 6, 6: 24, 8: 6, 28: 24, 21: 16, 23: 48,
                       30: 48, 36: 16, 42: 16, 48: 2, 32: 24, 33: 24}

    def test_sizes_partition_space(self):
        for rel in ("imp", "sub", "sep"):
            report = classify_space(2, 3, rel)
            assert sum(report.sizes()) == 256

    def test_group_relation(self):
        report = classify_space(2, 2, "ge")
        assert report.class_count() == 4
        assert sum(report.sizes()) == 16

    @pytest.mark.parametrize("k, n, relation", [(2, 3, "sep"), (3, 1, "ge")])
    def test_json_round_trip(self, k, n, relation):
        report = classify_space(k, n, relation)
        payload = report.to_json_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert [rec["size"] for rec in payload["classes"]] == report.sizes()
        assert (payload["relation"], payload["k"], payload["n"],
                payload["total"]) == (relation, k, n, k ** k ** n)

    def test_ternary_binary_space_pinned(self):
        # pinned from imp by enumeration of every ordering
        reports = scan_space(3, 2, ("imp", "sub", "sep"))
        got = {rel: [(c.key, c.size, c.representative, c.extra[rel])
                     for c in reports[rel].classes] for rel in reports}
        assert got == P32_CLASSES

    def test_unknown_relation(self):
        with pytest.raises(ValueError):
            classify_space(2, 2, "npn")
        with pytest.raises(ValueError, match="unknown relation 'bogus'"):
            scan_space(2, 3, ("imp", "bogus"))

    def test_repeated_relation_classified_once(self):
        reports = scan_space(2, 2, ("sep", "sep"))
        assert list(reports) == ["sep"]
        once = scan_space(2, 2, ("sep",))
        assert reports["sep"].classes == once["sep"].classes

    def test_budget(self):
        with pytest.raises(MemoryError):
            scan_space(2, 5, ("sep",), max_space=1 << 20)

    def test_ternary_unary_space(self):
        reports = scan_space(3, 1, ("imp", "sub", "sep"))
        # 27 functions: 3 constants and 24 essential-unary ones
        assert sum(reports["imp"].sizes()) == 27
        assert reports["imp"].class_count() == 2
        # unary sub-classes split by range equality: one constant class,
        # the three two-value ranges, and the full range
        assert reports["sub"].class_count() == 5
        assert reports["sep"].class_count() == 2


def direct_scan(k: int, n: int, rel: str):
    """(key, size, representative) per class by least id, and each id's
    class index: the `_key` of each `_block_rows` row over every id of
    P_k^n, no orbits."""
    size = k ** k ** n
    keys = []
    for lo in range(0, size, bitops.BLOCK):
        ids = np.arange(lo, min(lo + bitops.BLOCK, size))
        rows = _block_rows(bitops.row_keys(bitops.tables_from_ids(ids, k, n),
                                           k), k, n, (rel,))[rel]
        keys += [_key(rel, k, row) for row in rows.tolist()]
    least = {}
    for ident, key in enumerate(keys):
        least.setdefault(key, ident)
    order = {key: i for i, key in enumerate(least)}
    sizes = Counter(keys)
    classes = [(_key_str(key), sizes[key],
                KFunction.from_id(ident, k, n).table_text())
               for key, ident in least.items()]
    return classes, np.array([order[key] for key in keys])


class TestOrbitReduction:
    # scan_space classifies one function per g-orbit; the oracle all of them
    @pytest.mark.parametrize("k, n", [(2, 2), (2, 3), (2, 4), (3, 1), (3, 2),
                                      (5, 1)])
    def test_matches_direct_scan(self, k, n):
        reports = scan_space(k, n, keep_assignment=True)
        for rel in ("imp", "sub", "sep"):
            classes, assignment = direct_scan(k, n, rel)
            assert [(c.key, c.size, c.representative)
                    for c in reports[rel].classes] == classes
            assert np.array_equal(reports[rel].assignment, assignment)
            # each record's profile is its representative's own, read off
            # the representative's lattice over its essential variables
            least = np.unique(assignment, return_index=True)[1]
            for c, ident in zip(reports[rel].classes, least.tolist()):
                rep = KFunction.from_id(ident, k, n)
                vec = {"imp": None, "sub": sub_vector(rep),
                       "sep": sep_vector(rep)}[rel]
                assert c.extra == ({"imp": imp_count(rep)} if vec is None else
                                   {rel: sum(vec), f"{rel}_vector": list(vec)})

    @pytest.mark.parametrize("k, n", [(2, 4), (3, 2), (5, 1)])
    def test_independent_of_block_size(self, k, n, monkeypatch):
        # blocks of 7 minima spread the classes over dozens of blocks
        want = scan_space(k, n, keep_assignment=True)
        monkeypatch.setattr(bitops, "BLOCK", 7)
        got = scan_space(k, n, keep_assignment=True)
        for rel in RELATIONS:
            assert got[rel].classes == want[rel].classes
            assert np.array_equal(got[rel].assignment, want[rel].assignment)


class TestCounts:
    def test_reference_counts_small(self):
        assert class_counts(2, 1) == (2, 2, 2)
        assert class_counts(2, 2) == (4, 4, 3)
        assert class_counts(2, 3) == (13, 11, 5)


class TestRefinement:
    def test_refinements_at_n3(self):
        reports = scan_space(2, 3, ("imp", "sub", "sep"), keep_assignment=True)
        assert refinement_check(reports["imp"], reports["sep"])
        assert refinement_check(reports["sub"], reports["sep"])
        assert not refinement_check(reports["imp"], reports["sub"])
        assert not refinement_check(reports["sub"], reports["imp"])

    def test_genus_orbits_refine_all_three(self):
        # every id is in its ge-orbit minimum's class
        reports = scan_space(2, 3, ("imp", "sub", "sep"), keep_assignment=True)
        labels = orbit_partition(GroupDescriptor("ge", 2, 3))
        for rel in ("imp", "sub", "sep"):
            a = reports[rel].assignment
            assert (a == a[labels]).all()

    def test_mismatched_spaces(self):
        a = scan_space(2, 2, ("imp",), keep_assignment=True)["imp"]
        b = scan_space(2, 3, ("imp",), keep_assignment=True)["imp"]
        with pytest.raises(ValueError):
            refinement_check(a, b)

    def test_requires_assignments(self):
        a = classify_space(2, 2, "imp")
        b = classify_space(2, 2, "sep")
        with pytest.raises(ValueError):
            refinement_check(a, b)


class TestReportSerialization:
    def test_json_round_trip_shape(self):
        report = classify_space(2, 2, "sep")
        payload = report.to_json_dict()
        assert payload["relation"] == "sep"
        assert payload["total"] == 16
        assert len(payload["classes"]) == report.class_count()
        for rec in payload["classes"]:
            assert {"index", "key", "size", "representative"} <= set(rec)

    def test_csv_rows(self):
        report = classify_space(2, 2, "imp")
        rows = report.csv_rows()
        assert len(rows) == 4
        assert all(len(r) >= 4 for r in rows)
