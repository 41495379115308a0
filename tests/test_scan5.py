import numpy as np
import pytest

from fnclass.bitops import sep_profile_word
from fnclass.scan5 import (GE5_ORBITS, _Bitmap, _domain_maps,
                           _load_transversal, _orbit, ge_transversal,
                           sample_sep_profiles, sep_scan_p2_5)
from fnclass.tables import TABLE5

TABLE5_PROFILES = {vec: size for vec, _, size in TABLE5}


class TestOrbitKernel:
    def test_walk_reproduces_exact_orbits_n4(self):
        # cross-validated against the generator-based partition machinery
        from fnclass.groups import GroupDescriptor, orbit_transversal
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
        exact = [(f.id, s) for f, s in
                 orbit_transversal(GroupDescriptor("ge", 2, 4))]
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


class TestBitmap:
    def test_mark_and_scan(self):
        bm = _Bitmap(np.zeros(1 << 29, dtype=np.uint8))
        bm.mark_many(np.array([0, 1, 2, 5], dtype=np.uint64))
        assert bm.next_clear(0) == 3
        assert bm.next_clear(4) == 4
        assert bm.next_clear(6) == 6
        bm.mark_many(np.arange(0, 100000, dtype=np.uint64))
        assert bm.next_clear(0) == 100000

    def test_end_of_space(self):
        bm = _Bitmap(np.full(1 << 29, 0xFF, dtype=np.uint8))
        assert bm.next_clear(0) is None


class TestSampledProfiles:
    def test_profiles_appear_in_reference_rows(self):
        counts = sample_sep_profiles(count=3000, seed=5)
        assert sum(counts.values()) == 3000
        for profile in counts:
            assert profile in TABLE5_PROFILES

    def test_sample_does_not_depend_on_jobs(self):
        serial = sample_sep_profiles(count=400, seed=3, jobs=1)
        assert serial.keys() <= TABLE5_PROFILES.keys()
        assert sum(serial.values()) == 400
        for jobs in (2, 3):
            assert sample_sep_profiles(count=400, seed=3, jobs=jobs) == serial

    def test_sample_is_the_seeded_draw(self):
        words = np.random.default_rng(3).integers(0, 2 ** 32, size=50,
                                                  dtype=np.uint64)
        want: dict = {}
        for w in words:
            prof = sep_profile_word(int(w), 5)
            want[prof] = want.get(prof, 0) + 1
        assert sample_sep_profiles(count=50, seed=3, jobs=1) == want

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


def synthetic_transversal():
    """Shaped like a P_2^5 transversal: GE5_ORBITS ascending ids whose
    sizes divide 7680 and add up to 2^32 (not the real orbits)."""
    reps = np.arange(GE5_ORBITS, dtype=np.uint64) * np.uint64(5)
    sizes = np.repeat(np.array([256, 3840, 7680], dtype=np.int64),
                      [1, 113_769, 502_356])
    assert sizes.size == GE5_ORBITS and sizes.sum() == 1 << 32
    return reps, sizes


def _drop_last(reps, sizes):
    return reps[:-1], sizes[:-1]


def _double_one_size(reps, sizes):  # sizes still divide 7680
    sizes[1] = 7680
    return reps, sizes


def _swap_two_reps(reps, sizes):
    reps[[5, 6]] = reps[[6, 5]]
    return reps, sizes


def _repeat_a_rep(reps, sizes):
    reps[6] = reps[5]
    return reps, sizes


def _non_divisor_size(reps, sizes):  # the sum is kept
    sizes[0], sizes[1] = 255, 3841
    return reps, sizes


def _empty_orbit(reps, sizes):
    sizes[0] = 0
    return reps, sizes


class TestTransversalCache:
    def test_finished_transversal_reloaded_verbatim(self, tmp_path, monkeypatch):
        monkeypatch.delenv("FNCLASS_CACHE", raising=False)
        reps, sizes = synthetic_transversal()
        np.savez(tmp_path / "scan5_ge_transversal.npz", reps=reps, sizes=sizes)
        got_reps, got_sizes = ge_transversal(cache_dir=str(tmp_path))
        assert np.array_equal(got_reps, reps)
        assert np.array_equal(got_sizes, sizes)

    @pytest.mark.parametrize("corrupt", [
        _drop_last, _double_one_size, _swap_two_reps, _repeat_a_rep,
        _non_divisor_size, _empty_orbit])
    def test_inconsistent_transversal_is_rejected(self, tmp_path, corrupt):
        reps, sizes = corrupt(*synthetic_transversal())
        path = tmp_path / "scan5_ge_transversal.npz"
        np.savez(path, reps=reps, sizes=sizes)
        assert _load_transversal(path) is None

    def test_unreadable_transversal_is_rejected(self, tmp_path):
        reps, sizes = synthetic_transversal()
        path = tmp_path / "scan5_ge_transversal.npz"
        assert _load_transversal(path) is None  # absent
        np.savez(path, reps=reps)
        assert _load_transversal(path) is None  # no sizes
        np.savez(path, reps=reps, sizes=sizes)
        whole = path.read_bytes()
        path.write_bytes(whole[:len(whole) // 2])
        assert _load_transversal(path) is None  # torn
        path.write_bytes(b"")
        assert _load_transversal(path) is None
        np.save(tmp_path / "plain.npy", reps)
        (tmp_path / "plain.npy").replace(path)
        assert _load_transversal(path) is None  # a bare array

    def test_rejected_transversal_is_recomputed(self, tmp_path, monkeypatch):
        import fnclass.scan5 as scan5

        class WalkStarted(Exception):
            pass

        def start_walk():
            raise WalkStarted

        monkeypatch.delenv("FNCLASS_CACHE", raising=False)
        monkeypatch.setattr(scan5, "_domain_maps", start_walk)
        reps, sizes = _drop_last(*synthetic_transversal())
        np.savez(tmp_path / "scan5_ge_transversal.npz", reps=reps, sizes=sizes)
        with pytest.raises(WalkStarted):
            ge_transversal(cache_dir=str(tmp_path))

    def test_stray_temporary_file_is_never_loaded(self, tmp_path,
                                                  monkeypatch):
        # a 64-id space whose orbits are singletons, checkpointed after
        # every orbit; the stray file claims every id is already seen
        import fnclass.scan5 as scan5
        monkeypatch.delenv("FNCLASS_CACHE", raising=False)
        monkeypatch.setattr(scan5, "_SPACE", 64)
        monkeypatch.setattr(scan5, "_domain_maps", lambda: None)
        monkeypatch.setattr(scan5, "_orbit", lambda w, maps: np.array(
            [w], dtype=np.uint64))
        np.savez(tmp_path / "scan5_ge_ckpt.tmp.npz",
                 seen=np.full(8, 0xFF, dtype=np.uint8), pos=np.int64(63),
                 reps=np.array([5], dtype=np.uint64),
                 sizes=np.array([64], dtype=np.int64))
        reps, sizes = ge_transversal(cache_dir=str(tmp_path),
                                     checkpoint_seconds=0.0)
        assert reps.tolist() == list(range(64))
        assert sizes.tolist() == [1] * 64
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["scan5_ge_transversal.npz"]

    def test_resume_appends_remaining_orbits(self, tmp_path, monkeypatch):
        # checkpoint state: everything seen except two chosen targets (plus
        # their orbits); resume must pick them up in id order and finish
        monkeypatch.delenv("FNCLASS_CACHE", raising=False)
        maps = _domain_maps(5)
        targets = [2_000_000_011, 4_000_000_007]
        orbits = {t: _orbit(t, maps, 5) for t in targets}
        seen = np.full(1 << 29, 0xFF, dtype=np.uint8)
        for t in targets:
            idx = orbits[t]
            seen[(idx >> np.uint64(3)).astype(np.int64)] &= np.uint8(
                0xFF) ^ (np.uint8(1) << (idx & np.uint64(7)).astype(np.uint8))
        prefix_reps = np.array([0, 1], dtype=np.uint64)
        prefix_sizes = np.array([2, 7680], dtype=np.int64)
        np.savez(tmp_path / "scan5_ge_ckpt.npz", seen=seen,
                 pos=np.int64(2), reps=prefix_reps, sizes=prefix_sizes)
        reps, sizes = ge_transversal(cache_dir=str(tmp_path))
        expected = sorted({(int(orbits[t].min()), orbits[t].size)
                           for t in targets})
        assert list(reps[:2]) == [0, 1]
        assert [(int(r), int(s)) for r, s in
                zip(reps[2:], sizes[2:])] == expected
        assert not (tmp_path / "scan5_ge_ckpt.npz").exists()
        assert (tmp_path / "scan5_ge_transversal.npz").exists()


def _p2_2_sep_report():
    from fnclass.classify import classify_space
    return classify_space(2, 2, "sep").to_json_dict()


def _sub_report_of_p2_5():  # a decodable report of another relation
    return {**_p2_2_sep_report(), "relation": "sub", "n": 5, "total": 1 << 32}


class TestReportCache:
    @pytest.mark.parametrize("cached", [
        dict,
        lambda: {"relation": "sep", "k": 2, "n": 5, "total": 1 << 32,
                 "classes": [{"index": 1, "key": "V:0:0:0:0:0", "size": 2}]},
        _p2_2_sep_report,
        _sub_report_of_p2_5,
    ], ids=["empty", "record-without-rep", "other-space", "other-relation"])
    def test_undecodable_or_foreign_report_is_recomputed(
            self, tmp_path, monkeypatch, cached):
        import fnclass.scan5 as scan5
        from fnclass.cache import load_json, report_path, save_json
        monkeypatch.delenv("FNCLASS_CACHE", raising=False)
        # a stand-in transversal: the constant 0 and a projection
        monkeypatch.setattr(scan5, "ge_transversal", lambda *a, **kw: (
            np.array([0, 0xAAAAAAAA], dtype=np.uint64),
            np.array([2, 10], dtype=np.int64)))
        path = report_path(tmp_path, "sep", 2, 5)
        save_json(path, cached())
        report = sep_scan_p2_5(cache_dir=str(tmp_path))
        assert [(c.extra["sep_vector"], c.size) for c in report.classes] == \
            [([0, 0, 0, 0, 0], 2), ([1, 0, 0, 0, 0], 10)]
        assert load_json(path) == report.to_json_dict()


@pytest.mark.slow
class TestFullScan:
    def test_full_scan_if_cached(self):
        # runs from the cached transversal when available; skips otherwise
        from fnclass import cache as cache_mod
        base = cache_mod.cache_dir(None)
        if not (base / "scan5_ge_transversal.npz").exists():
            pytest.skip("full transversal not computed on this machine")
        report = sep_scan_p2_5(jobs=2)
        got = {tuple(c.extra["sep_vector"]): c.size for c in report.classes}
        assert got == TABLE5_PROFILES
