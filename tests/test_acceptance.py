"""Acceptance suite: one test per release criterion, exact tolerances.

Every expected number here is pinned.  On a 2-vCPU Intel Xeon VM
criterion 7 takes about 20 s and criterion 8 about 130 s, most of the
tier-1 time.  Run with `pytest tests/test_acceptance.py -v` or deselect via
`-m "not acceptance"` during development.
"""

import itertools

import pytest

from fnclass import diagrams as dg
from fnclass import separability as sp
from fnclass.classify import class_counts, scan_space
from fnclass.groups import GroupDescriptor, count_orbits
from fnclass.kfun import KFunction
from fnclass.scan5 import sample_sep_profiles
from fnclass.spform import parse, to_sp
from fnclass.tables import (EXAMPLE_F, EXAMPLE_G, EXAMPLE_IMPS, EXAMPLE_SEP_G,
                            EXAMPLE_SUB_G, EXAMPLE_VALUES, FIGURE4, TABLE5,
                            reproduce_table)
from fnclass.verify import run_checks

pytestmark = pytest.mark.acceptance


def report(criterion: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {criterion}")
    assert ok


@pytest.fixture(scope="module")
def worked_pair():
    return parse(EXAMPLE_F, 2), parse(EXAMPLE_G, 2)


def test_criterion_1_worked_example_values(worked_pair):
    f, g = worked_pair
    ok = (dg.imp_count(f) == EXAMPLE_VALUES["imp_f"]
          and dg.imp_count(g) == EXAMPLE_VALUES["imp_g"]
          and sum(sp.sub_vector(f)) == EXAMPLE_VALUES["sub_f"]
          and sum(sp.sub_vector(g)) == EXAMPLE_VALUES["sub_g"]
          and sum(sp.sep_vector(f)) == EXAMPLE_VALUES["sep_f"]
          and sum(sp.sep_vector(g)) == EXAMPLE_VALUES["sep_g"])
    ok = ok and sp.subfunctions(g) == {parse(e, 2, arity=3) for e in EXAMPLE_SUB_G}
    ok = ok and sp.separable_sets(g) == {frozenset(m) for m in EXAMPLE_SEP_G}
    ok = ok and sp.distributive_sets({2, 3}, g) == {frozenset({1})}
    report("criterion 1: worked single-function values", ok)


def test_criterion_2_diagram_fixtures(worked_pair):
    f, g = worked_pair
    d_f = dg.reduce(dg.build_odt(f, (1, 2, 3)))
    d_g = dg.reduce(dg.build_odt(g, (1, 2, 3)))
    ok = (dg.path_count(d_f) == EXAMPLE_VALUES["imp_Df_123"]
          and dg.path_count(d_g) == EXAMPLE_VALUES["imp_Dg_123"]
          and dg.depth(d_f) == EXAMPLE_VALUES["depth_Df_123"]
          and dg.depth(d_g) == EXAMPLE_VALUES["depth_Dg_123"])
    for (tag, order), expected in EXAMPLE_IMPS.items():
        fn = f if tag == "f" else g
        got = dg.implementations_of(dg.reduce(dg.build_odt(fn, order)))
        want = {dg.Implementation(tuple(int(c) for c in vw),
                                  tuple(int(c) for c in cw[:-1]), int(cw[-1]))
                for vw, cw in expected}
        ok = ok and got == want
    report("criterion 2: diagram path counts, depths, implementation sets", ok)


def test_criterion_3_two_variable_classes():
    result = reproduce_table("table1")
    report("criterion 3: two-variable classification", result.ok)


def test_criterion_4_three_variable_classification():
    reports = scan_space(2, 3, ("imp", "sub", "sep"))
    imp = {c.extra["imp"]: c.size for c in reports["imp"].classes}
    sub = sorted((c.extra["sub"], c.size) for c in reports["sub"].classes)
    sep = {c.extra["sep"]: c.size for c in reports["sep"].classes}
    ok = (reports["imp"].class_count() == 13
          and reports["sub"].class_count() == 11
          and reports["sep"].class_count() == 5)
    ok = ok and imp == {1: 2, 2: 6, 6: 24, 8: 6, 28: 24, 21: 16, 23: 48,
                        30: 48, 36: 16, 42: 16, 48: 2, 32: 24, 33: 24}
    ok = ok and sub == sorted([(1, 2), (3, 6), (5, 24), (7, 6), (11, 24),
                               (9, 64), (12, 48), (12, 8), (15, 26),
                               (13, 24), (13, 24)])
    ok = ok and sep == {0: 2, 1: 6, 3: 30, 6: 24, 7: 194}
    ok = ok and reproduce_table("table3").ok
    report("criterion 4: three-variable classification and representatives", ok)


def test_criterion_5_class_counts_through_n4():
    ok = class_counts(2, 4) == (104, 74, 11)
    ok = ok and count_orbits(GroupDescriptor("g", 2, 4)) == 402
    for n, want in ((1, (2, 2, 2)), (2, (4, 4, 3)), (3, (13, 11, 5))):
        ok = ok and class_counts(2, n) == want
    for n, want in ((1, 3), (2, 6), (3, 22)):
        ok = ok and count_orbits(GroupDescriptor("g", 2, n)) == want
    report("criterion 5: class counts for arity up to four", ok)


def test_criterion_6_group_orbit_counts():
    ok = True
    for name in ("s", "lg", "a", "ge", "lf", "rag", "axa1"):
        want3, want4 = FIGURE4[name]
        ok = ok and count_orbits(GroupDescriptor(name, 2, 3)) == want3
        ok = ok and count_orbits(GroupDescriptor(name, 2, 4)) == want4
    report("criterion 6: affine-lattice orbit counts", ok)


def test_criterion_7_five_variable_separability():
    rows = {vec: size for vec, _, size in TABLE5}
    # the independent sampled oracle: (a) every observed profile is a table
    # row, (b) observed profiles match the tabulated vectors exactly
    counts = sample_sep_profiles(count=1_000_000, seed=0)
    ok = sum(counts.values()) == 1_000_000
    for profile in counts:
        ok = ok and profile in rows
        ok = ok and sum(profile) == next(t for v, t, _ in TABLE5 if v == profile)
    # and the full table, recomputed
    ok = ok and reproduce_table("table5").ok
    report("criterion 7: five-variable separability classes "
           "(full table and sample)", ok)


CRITERION_8_CHECKS = [
    "strongly-essential-existence",
    "distributive-union-separable",
    "s-system-existence",
    "s-system-transversal-characterization",
    "subfunction-chains",
    "label-lemma",
    "separable-iff-tail-implementation-suffix",
    "separable-implies-implementation-suffix",
    "essential-terminal-letters",
    "imp-recursion-vs-enumeration",
    "depth-theorems",
    "output-permutation-invariance",
    "non-bijective-map-breaks-invariance",
    "symmetric-transform-invariance",
    "classification-refinements",
]


def test_criterion_8_property_suites():
    binary = run_checks(k=2, n_exhaustive=3, n_sampled=4, samples=10_000,
                        seed=0, names=CRITERION_8_CHECKS)
    ternary = run_checks(k=3, n_exhaustive=1, n_sampled=2, samples=10_000,
                         seed=0, names=CRITERION_8_CHECKS)
    ok = True
    for run, tag in ((binary, "k=2"), (ternary, "k=3")):
        for r in run.results:
            print(f"  {tag} {r.line()}")
            ok = ok and r.passed
    report("criterion 8: structural property suites", ok)


def test_criterion_9_parser_round_trip():
    ok = True
    for n in range(4):
        for ident in range(2 ** (2 ** n)):
            f = KFunction.from_id(ident, 2, n)
            ok = ok and parse(to_sp(f), 2, arity=n) == f
    import random
    rng = random.Random(0)
    for _ in range(10_000):
        f = KFunction.from_id(rng.randrange(3 ** 27), 3, 3)
        ok = ok and parse(to_sp(f), 3, arity=3) == f
    report("criterion 9: expression round trip", ok)
