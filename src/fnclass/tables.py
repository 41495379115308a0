"""Reference classification tables and their reproduction.

The expected values live here as frozen fixture data so that table
reproduction is self-contained: each `reproduce_table` call recomputes the
table from scratch, reading and writing no file, and diffs it cell by cell
against the embedded rows.

Available tables:

    table1   imp-classes of the 2-variable binary functions
    table3   the full classification of P_2^3 (sep / sub / imp / genus)
    table4   class counts t(G), t(imp), t(sub), t(sep) for n = 1..4
    table5   sep-classes of P_2^5 (the cofactor join over P_2^4, seconds)
    figure4  orbit counts of the affine-lattice groups on P_2^3 / P_2^4
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .classify import classify_space, scan_space
from .diagrams import imp_count
from .groups import GroupDescriptor, count_orbits, orbit_partition
from .separability import sep_vector, sub_vector
from .spform import parse

# ---------------------------------------------------------------------------
# fixture data
# ---------------------------------------------------------------------------

# imp-classes of P_2^2: (class members as expressions, imp value, class size);
# the imp-6 class is the 8 non-affine functions
TABLE1 = (
    (("0", "1"), 1, 2),
    (("x1", "x2", "x1^0", "x2^0"), 2, 4),
    (("x1*x2", "x1*x2^0", "x1^0*x2", "x1^0*x2^0",
      "x1 + x1^0*x2", "x2^0 + x1*x2", "x1^0 + x1*x2", "x1^0 + x1*x2^0"), 6, 8),
    (("x1 + x2", "x1 + x2^0"), 8, 2),
)

# RAG classes of P_2^2 (two classes; the affine functions and the rest)
TABLE_RAG22 = (
    ("0", "1", "x1", "x2", "x1^0", "x2^0", "x1 + x2", "x1 + x2^0"),
    ("x1*x2", "x1*x2^0", "x1^0*x2", "x1^0*x2^0",
     "x1 + x1^0*x2", "x2^0 + x1*x2", "x1^0 + x1*x2", "x1^0 + x1*x2^0"),
)

# generic (genus) rows of the P_2^3 classification:
# (representative, genus size, imp value, imp class size,
#  sub total, sub class size, sep total, sep class size)
TABLE3 = (
    ("0", 2, 1, 2, 1, 2, 0, 2),
    ("x1", 6, 2, 6, 3, 6, 1, 6),
    ("x1*x2", 24, 6, 24, 5, 24, 3, 30),
    ("x1 + x2", 6, 8, 6, 7, 6, 3, 30),
    ("x1 + x1*x3 + x2*x3", 24, 28, 24, 11, 24, 6, 24),
    ("x1*x2*x3", 16, 21, 16, 9, 64, 7, 194),
    ("x1*x2^0*x3^0 + x1", 48, 23, 48, 9, 64, 7, 194),
    ("x1*x2^0*x3^0 + x2*x3", 48, 30, 48, 12, 48, 7, 194),
    ("x1*x2^0*x3 + x1*x2*x3^0 + x2*x3", 8, 36, 16, 12, 8, 7, 194),
    ("x1^0*x2*x3 + x1*x2^0*x3^0", 8, 36, 16, 15, 26, 7, 194),
    ("x1*x2^0*x3 + x1*x2*x3^0 + x1^0*x2*x3", 16, 42, 16, 15, 26, 7, 194),
    ("x1 + x2 + x3", 2, 48, 2, 15, 26, 7, 194),
    ("x1 + x2*x3", 24, 32, 24, 13, 24, 7, 194),
    ("x1*x2^0*x3 + x1*x2*x3^0", 24, 33, 24, 13, 24, 7, 194),
)

# weighted averages printed under the P_2^3 table, rounded to one decimal:
# mean imp, mean sub, mean sep, mean class sizes (imp, sub, sep, genus)
TABLE3_AVERAGES = {
    "imp": 26.0, "sub": 10.6, "sep": 6.2,
    "imp_class_size": 19.7, "sub_class_size": 23.3,
    "sep_class_size": 51.2, "genus_class_size": 18.3,
}

# class counts per arity: n -> (t(G), t(imp), t(sub), t(sep))
TABLE4 = {
    1: (3, 2, 2, 2),
    2: (6, 4, 4, 3),
    3: (22, 13, 11, 5),
    4: (402, 104, 74, 11),
}
# the n = 5 row of the count table (t(sub) is only bounded there)
TABLE4_ROW5 = {"g": 1_228_158, "imp": 1606, "sep": 38}

# sep-classes of P_2^5: ((sep_1..sep_5), total, cardinality)
TABLE5 = (
    ((0, 0, 0, 0, 0), 0, 2),
    ((1, 0, 0, 0, 0), 1, 10),
    ((2, 1, 0, 0, 0), 3, 100),
    ((3, 2, 1, 0, 0), 6, 240),
    ((3, 3, 1, 0, 0), 7, 1940),
    ((4, 5, 2, 1, 0), 12, 1920),
    ((4, 4, 3, 1, 0), 12, 2400),
    ((4, 5, 3, 1, 0), 13, 8160),
    ((4, 4, 4, 1, 0), 13, 120),
    ((4, 5, 4, 1, 0), 14, 8400),
    ((4, 6, 4, 1, 0), 15, 301970),
    ((5, 9, 7, 2, 1), 24, 20480),
    ((5, 7, 5, 3, 1), 21, 3840),
    ((5, 8, 5, 3, 1), 22, 9600),
    ((5, 6, 6, 3, 1), 21, 1920),
    ((5, 7, 6, 3, 1), 22, 1920),
    ((5, 8, 6, 3, 1), 23, 38400),
    ((5, 7, 7, 3, 1), 23, 1920),
    ((5, 8, 7, 3, 1), 24, 38400),
    ((5, 9, 7, 3, 1), 25, 130560),
    ((5, 6, 6, 4, 1), 22, 3000),
    ((5, 7, 7, 4, 1), 24, 34720),
    ((5, 8, 7, 4, 1), 25, 177120),
    ((5, 9, 7, 4, 1), 26, 274560),
    ((5, 7, 8, 4, 1), 25, 7680),
    ((5, 8, 8, 4, 1), 26, 274560),
    ((5, 9, 8, 4, 1), 27, 1847280),
    ((5, 9, 7, 5, 1), 27, 81920),
    ((5, 8, 8, 5, 1), 27, 600),
    ((5, 9, 8, 5, 1), 28, 1013760),
    ((5, 10, 8, 5, 1), 29, 38400),
    ((5, 7, 9, 5, 1), 27, 1200),
    ((5, 8, 9, 5, 1), 28, 449040),
    ((5, 9, 9, 5, 1), 29, 4093200),
    ((5, 10, 9, 5, 1), 30, 5443200),
    ((5, 8, 10, 5, 1), 29, 13680),
    ((5, 9, 10, 5, 1), 30, 5826160),
    ((5, 10, 10, 5, 1), 31, 4274814914),
)

# orbit counts on P_2^3 / P_2^4 for the affine-lattice groups
FIGURE4 = {
    "s": (80, 3984),
    "lg": (20, 92),
    "a": (10, 32),
    "ge": (14, 222),
    "lf": (32, 4096),
    "rag": (3, 8),
    "axa1": (6, 18),
    "g": (22, 402),
}

# the worked three-variable pair used throughout the examples
EXAMPLE_F = "x1*x2 + x1*x3"
EXAMPLE_G = "x1*x2 + x1^0*x3"
EXAMPLE_VALUES = {
    "imp_f": 33, "imp_g": 28, "sub_f": 13, "sub_g": 11, "sep_f": 7, "sep_g": 6,
    "imp_Df_123": 5, "imp_Dg_123": 4, "depth_Df_123": 4, "depth_Dg_123": 3,
}
EXAMPLE_SUB_G = ("0", "1", "x1", "x2", "x3", "x1^0", "x1*x2", "x1^0*x3",
                 "x1 + x1^0*x3", "x1*x2 + x1^0", "x1*x2 + x1^0*x3")
EXAMPLE_SEP_G = ((1,), (2,), (3,), (1, 2), (1, 3), (1, 2, 3))
EXAMPLE_IMPS = {
    ("f", (1, 2, 3)): (("1", "00"), ("123", "1000"), ("123", "1011"),
                       ("123", "1101"), ("123", "1110")),
    ("f", (2, 1, 3)): (("21", "000"), ("213", "0100"), ("213", "0111"),
                       ("21", "100"), ("213", "1101"), ("213", "1110")),
    ("g", (1, 2, 3)): (("13", "000"), ("13", "011"), ("12", "100"), ("12", "111")),
    ("g", (2, 1, 3)): (("21", "010"), ("213", "0000"), ("213", "0011"),
                       ("213", "1000"), ("213", "1011"), ("21", "111")),
}

# ---------------------------------------------------------------------------
# reproduction
# ---------------------------------------------------------------------------

@dataclass
class TableResult:
    name: str
    header: list[str]
    rows: list[list]
    expected: list[list]
    diffs: list[tuple[int, int, object, object]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.diffs

    @property
    def first_diff(self):
        return self.diffs[0] if self.diffs else None

    def diff_lines(self) -> list[str]:
        return [f"row {r} col {self.header[c]}: got {got!r}, expected {want!r}"
                for r, c, got, want in self.diffs]


def _diff(result: TableResult) -> TableResult:
    for r, (got_row, want_row) in enumerate(zip(result.rows, result.expected)):
        for c, (got, want) in enumerate(zip(got_row, want_row)):
            if got != want:
                result.diffs.append((r, c, got, want))
    if len(result.rows) != len(result.expected):
        result.diffs.append((min(len(result.rows), len(result.expected)), 0,
                             f"{len(result.rows)} rows",
                             f"{len(result.expected)} rows"))
    return result


def _reproduce_table1() -> TableResult:
    report = classify_space(2, 2, "imp")
    by_imp = {c.extra["imp"]: c.size for c in report.classes}
    rows, expected = [], []
    for members, imp, size in TABLE1:
        # the members: `size` distinct functions, each of the class's imp
        functions = [parse(e, 2, arity=2) for e in members]
        imps = {imp_count(f) for f in functions}
        rows.append([imps.pop() if len(imps) == 1 else sorted(imps),
                     by_imp.get(imp), len({f.values for f in functions})])
        expected.append([imp, size, size])
    return _diff(TableResult("table1", ["imp", "class_size", "listed_members"],
                             rows, expected))


def _reproduce_table3() -> TableResult:
    reports = scan_space(2, 3, ("imp", "sub", "sep"))
    imp_sizes = {c.extra["imp"]: c.size for c in reports["imp"].classes}
    sub_sizes = {tuple(c.extra["sub_vector"]): c.size for c in reports["sub"].classes}
    sep_sizes = {tuple(c.extra["sep_vector"]): c.size for c in reports["sep"].classes}

    header = ["representative", "genus_size", "imp", "imp_class_size",
              "sub", "sub_class_size", "sep", "sep_class_size"]
    rows, expected = [], []
    labels = orbit_partition(GroupDescriptor("ge", 2, 3))
    genus_sizes = np.bincount(labels)
    for rep, gen_size, imp, imp_size, sub, sub_size, sep, sep_size in TABLE3:
        f = parse(rep, 2, arity=3)
        sv = sub_vector(f)
        pv = sep_vector(f)
        rows.append([rep, int(genus_sizes[labels[f.id]]), imp_count(f),
                     imp_sizes.get(imp_count(f)),
                     sum(sv), sub_sizes.get(sv), sum(pv), sep_sizes.get(pv)])
        expected.append([rep, gen_size, imp, imp_size, sub, sub_size, sep, sep_size])
    result = _diff(TableResult("table3", header, rows, expected))

    counts = tuple(reports[rel].class_count() for rel in ("imp", "sub", "sep"))
    if counts != (13, 11, 5):
        result.diffs.append((len(rows), 0, f"class counts {counts}",
                             "class counts (13, 11, 5)"))
    return result


def _reproduce_table4() -> TableResult:
    header = ["n", "t_g", "t_imp", "t_sub", "t_sep"]
    rows, expected = [], []
    for n, (tg, ti, tb, tp) in sorted(TABLE4.items()):
        reports = scan_space(2, n, ("imp", "sub", "sep"))
        tg_got = count_orbits(GroupDescriptor("g", 2, n))
        rows.append([n, tg_got, reports["imp"].class_count(),
                     reports["sub"].class_count(), reports["sep"].class_count()])
        expected.append([n, tg, ti, tb, tp])
    return _diff(TableResult("table4", header, rows, expected))


def _reproduce_table5() -> TableResult:
    report = classify_space(2, 5, "sep")
    header = ["sep_1", "sep_2", "sep_3", "sep_4", "sep_5", "sep", "class_size"]
    rows = [[*c.extra["sep_vector"], c.extra["sep"], c.size]
            for c in report.classes]
    expected = [[*vec, total, size] for vec, total, size in TABLE5]
    return _diff(TableResult("table5", header, rows, expected))


def _reproduce_figure4() -> TableResult:
    header = ["group", "t_n3", "t_n4"]
    rows, expected = [], []
    for name, (t3, t4) in FIGURE4.items():
        rows.append([name,
                     count_orbits(GroupDescriptor(name, 2, 3)),
                     count_orbits(GroupDescriptor(name, 2, 4))])
        expected.append([name, t3, t4])
    return _diff(TableResult("figure4", header, rows, expected))


_REPRODUCERS = {"table1": _reproduce_table1, "table3": _reproduce_table3,
                "table4": _reproduce_table4, "table5": _reproduce_table5,
                "figure4": _reproduce_figure4}
TABLE_NAMES = tuple(_REPRODUCERS)


def reproduce_table(name: str) -> TableResult:
    """Recompute one of the reference tables and diff it against the fixture.

    Every table is computed in this process; table4's scans classify one
    function per g-orbit of P_2^n.
    """
    if name not in _REPRODUCERS:
        raise ValueError(f"unknown table {name!r}; choose from {TABLE_NAMES}")
    return _REPRODUCERS[name]()
