import pytest

from fnclass.groups import GroupDescriptor, group_elements, orbit_partition
from fnclass.spform import parse
from fnclass.tables import (EXAMPLE_VALUES, FIGURE4, TABLE3, TABLE3_AVERAGES,
                            TABLE4, TABLE4_ROW5, TABLE5, TABLE_RAG22,
                            reproduce_table)


class TestFixtureConsistency:
    def test_table5_rows_partition_the_space(self):
        assert sum(size for _, _, size in TABLE5) == 2 ** 32

    def test_table5_totals_match_vectors(self):
        for vec, total, _ in TABLE5:
            assert sum(vec) == total

    def test_table3_sizes_sum(self):
        assert sum(row[1] for row in TABLE3) == 256

    def test_table3_averages_match_rows(self):
        mean_sep = sum(row[6] * row[1] for row in TABLE3) / 256
        assert round(mean_sep, 1) == TABLE3_AVERAGES["sep"]
        mean_imp = sum(row[2] * row[1] for row in TABLE3) / 256
        assert round(mean_imp, 1) == TABLE3_AVERAGES["imp"]
        mean_sub = sum(row[4] * row[1] for row in TABLE3) / 256
        assert round(mean_sub, 1) == TABLE3_AVERAGES["sub"]
        assert round(256 / 13, 1) == TABLE3_AVERAGES["imp_class_size"]
        assert round(256 / 11, 1) == TABLE3_AVERAGES["sub_class_size"]
        assert round(256 / 5, 1) == TABLE3_AVERAGES["sep_class_size"]
        assert round(256 / 14, 1) == TABLE3_AVERAGES["genus_class_size"]

    def test_rag22_orbits_are_the_listed_sets(self):
        labels = orbit_partition(GroupDescriptor("rag", 2, 2)).tolist()
        orbits = {}
        for ident, label in enumerate(labels):
            orbits.setdefault(label, set()).add(ident)
        listed = [{parse(e, 2, arity=2).id for e in members}
                  for members in TABLE_RAG22]
        assert sorted(map(sorted, orbits.values())) == \
            sorted(map(sorted, listed))

    def test_figure4_consistent_with_table4(self):
        assert FIGURE4["g"] == (TABLE4[3][0], TABLE4[4][0])
        assert EXAMPLE_VALUES["imp_f"] == 33


class TestTable4Row5:
    def test_g_orbits_by_burnside(self):
        # the mean number of functions an element of g fixes: along each
        # cycle of its domain map a fixed f takes a fixed value of the
        # composed output maps, which then determines the rest of the cycle
        elements = list(group_elements(GroupDescriptor("g", 2, 5)))
        assert len(elements) == 3840
        total = 0
        for t in elements:
            fixed, visited = 1, set()
            for start in range(len(t.domain_map)):
                if start in visited:
                    continue
                composed, x = [0, 1], start
                while x not in visited:
                    visited.add(x)
                    composed = [composed[t.out_maps[x][v]] for v in range(2)]
                    x = t.domain_map[x]
                fixed *= sum(composed[v] == v for v in range(2))
            total += fixed
        assert total % len(elements) == 0
        assert total // len(elements) == TABLE4_ROW5["g"] == 1_228_158

    def test_sep_class_count_is_table5(self):
        assert TABLE4_ROW5["sep"] == len(TABLE5) == 38


class TestReproduction:
    def test_table1(self):
        assert reproduce_table("table1").ok

    def test_table3(self):
        result = reproduce_table("table3")
        assert result.ok, result.diff_lines()

    def test_figure4(self):
        result = reproduce_table("figure4")
        assert result.ok, result.diff_lines()

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            reproduce_table("table9")

    def test_diff_reporting_shape(self):
        result = reproduce_table("table1")
        assert result.first_diff is None
        assert result.header[0] == "imp"
