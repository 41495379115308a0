import numpy as np
import pytest

from fnclass.bitops import sep_profile_word
from fnclass.classify import classify_space
from fnclass.groups import GroupDescriptor, orbit_minima, orbit_partition
from fnclass.kfun import KFunction
from fnclass.scan5 import (GE5_ORBITS, _cofactors, _domain_maps, _orbit,
                           _pair_profiles, _sep_join, _sep_profiles, _unpack,
                           sample_sep_profiles)
from fnclass.tables import TABLE5

TABLE5_PROFILES = {vec: size for vec, _, size in TABLE5}

# least ids of the 38 classes in report order, as the orbit walk found them
TABLE5_REPRESENTATIVES = """
    00000000 0000ffff 000000ff 000ff0ff 0000000f 0003c0c3 0003cccf 000003cf
    03cff3c0 00030ff3 00000003 00018081 000f3355 00018889 001bff1b 035af35a
    00034477 013dc1fd 00035ff3 00000189 00034447 0001aaab 000001ab 00010aa1
    003fdd1d 000305f3 0000001b 00013cc1 00001bd8 000103c1 000108f9 01abfda8
    00010ff1 0000013d 00010247 000f1bd8 0001033d 00000001""".split()


class TestOrbitKernel:
    def test_walk_reproduces_exact_orbits_n4(self):
        # cross-validated against the generator-based partition machinery
        maps = _domain_maps(4)
        seen = np.zeros(1 << 16, dtype=bool)
        walk = []
        w = 0
        while w < 1 << 16:
            if not seen[w]:
                orb = _orbit(w, maps, 4)
                seen[orb.astype(np.int64)] = True
                walk.append((w, orb.size))
            w += 1
        labels = orbit_partition(GroupDescriptor("ge", 2, 4))
        minima, sizes = orbit_minima(labels)
        exact = list(zip(minima.tolist(), sizes.tolist()))
        assert walk == exact

    def test_burnside_count_of_ge5_orbits(self):
        # each (permutation, shift) map fixes 2^cycles tables; with the
        # output complement it fixes them only when every cycle is even
        total = 0
        for row in _domain_maps(5).tolist():
            visited, lengths = set(), []
            for start in range(32):
                x, length = start, 0
                while x not in visited:
                    visited.add(x)
                    x, length = row[x], length + 1
                if length:
                    lengths.append(length)
            even = all(length % 2 == 0 for length in lengths)
            total += 2 ** len(lengths) * (1 + even)
        assert total == GE5_ORBITS * 7680

    def test_orbit_closed_under_membership(self):
        maps = _domain_maps(3)
        orb = _orbit(0xD8, maps, 3)
        for member in orb:
            other = _orbit(int(member), maps, 3)
            assert np.array_equal(orb, other)


class TestCofactorJoin:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_direct_scan(self, n):
        want = {tuple(c.extra["sep_vector"]): (c.size, c.representative)
                for c in classify_space(2, n, "sep").classes}
        got = {prof: (cnt, KFunction.from_word(rep, n).table_text())
               for prof, (cnt, rep) in _sep_join(n).items()}
        assert got == want

    def test_cofactor_keys_stay_two_bytes_per_row(self):
        # the 81 x 2^16 P_2^4 row keys of the join, 10.6 MB as uint16, and
        # its masks, 5.3 MB as uint8 (not 42 MB as int64)
        lattice, present = _cofactors(4)
        assert lattice.keys.dtype == np.uint16
        assert lattice.keys.shape == (81, 1 << 16)
        assert lattice.masks.dtype == np.uint8
        assert lattice.masks.shape == (81, 1 << 16)
        assert present.dtype == np.uint64
        assert present.shape == (1 << 16,)

    def test_pair_profiles_match_the_lattice(self):
        # f0 over orbit minima and over arbitrary functions; the set
        # counting must agree with sep_counts on the whole 243-row lattice
        lattice, present = _cofactors(4)
        rng = np.random.default_rng(11)
        lab = orbit_partition(GroupDescriptor("ge", 2, 4))
        minima = np.flatnonzero(lab == np.arange(lab.size))
        others = rng.integers(0, 1 << 16, size=20)
        assert np.any(lab[others] != others)
        pairs = 0
        for f0 in [*rng.choice(minima, size=6).tolist(), *others.tolist()]:
            codes = _pair_profiles(lattice, present, f0, 5)
            for f1 in rng.integers(0, 1 << 16, size=8).tolist():
                assert _unpack(int(codes[f1]), 5) == \
                    sep_profile_word(f0 | f1 << 16, 5)
                pairs += 1
        assert pairs >= 200


class TestSampledProfiles:
    def test_profiles_appear_in_reference_rows(self):
        counts = sample_sep_profiles(count=3000, seed=5)
        assert sum(counts.values()) == 3000
        for profile in counts:
            assert profile in TABLE5_PROFILES

    def test_sample_is_the_seeded_draw(self):
        words = np.random.default_rng(3).integers(0, 2 ** 32, size=50,
                                                  dtype=np.uint64)
        want: dict = {}
        for w in words:
            prof = sep_profile_word(int(w), 5)
            want[prof] = want.get(prof, 0) + 1
        assert sample_sep_profiles(count=50, seed=3) == want

    @pytest.mark.parametrize("count", [0, 1, 20, 3000])
    def test_counts_match_unique_rows(self, count):
        # np.unique(axis=0) as the reference: same counts, keys ascending
        words = np.random.default_rng(count).integers(0, 2 ** 32, size=count,
                                                      dtype=np.uint64)
        profiles, counts = np.unique(_sep_profiles(words),
                                     axis=0, return_counts=True)
        got = sample_sep_profiles(count=count, seed=count)
        assert list(got.items()) == [
            (tuple(p), c) for p, c in zip(profiles.tolist(), counts.tolist())]
        assert all(type(c) is int for c in got.values())

    def test_profile_kernel_agrees_with_library_route(self):
        # the direct separability oracle shares no code with the lattice
        import itertools
        from fnclass.kfun import KFunction
        from fnclass.separability import is_separable
        rng = np.random.default_rng(9)
        for w in rng.integers(0, 2 ** 32, size=40, dtype=np.uint64):
            f = KFunction.from_word(int(w), 5)
            ess = sorted(f.essential_set())
            want = tuple(sum(is_separable(f, m)
                             for m in itertools.combinations(ess, size))
                         for size in range(1, 6))
            assert sep_profile_word(int(w), 5) == want


class TestClassifySpaceRoute:
    # a stand-in join: the constants and the projections
    STUB = {(0, 0, 0, 0, 0): [2, 0], (1, 0, 0, 0, 0): [10, 0xAAAAAAAA]}
    WANT = [([0, 0, 0, 0, 0], 2), ([1, 0, 0, 0, 0], 10)]

    @pytest.fixture(autouse=True)
    def stub_join(self, monkeypatch):
        import fnclass.scan5 as scan5
        monkeypatch.setattr(scan5, "_sep_join", lambda n: self.STUB)

    def test_classify_space_serves_the_join(self):
        report = classify_space(2, 5, "sep")
        assert [(c.extra["sep_vector"], c.size) for c in report.classes] == \
            self.WANT

    def test_cli_serves_the_join(self, capsys):
        import json
        from fnclass.cli import main
        assert main(["classify", "--k", "2", "--n", "5", "--relation", "sep",
                     "--format", "json"]) == 0
        classes = json.loads(capsys.readouterr().out)["classes"]
        assert [(c["sep_vector"], c["size"]) for c in classes] == self.WANT


class TestFullScan:
    def test_full_scan(self):
        report = classify_space(2, 5, "sep")
        assert [(tuple(c.extra["sep_vector"]), c.extra["sep"], c.size)
                for c in report.classes] == list(TABLE5)
        assert [c.representative for c in report.classes] == \
            TABLE5_REPRESENTATIVES
        assert report.total == sum(c.size for c in report.classes) == 1 << 32
