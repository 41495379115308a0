from fnclass.cache import cache_dir, load_json, report_path, save_json


class TestCacheDir:
    def test_explicit_path(self, tmp_path, monkeypatch):
        monkeypatch.delenv("FNCLASS_CACHE", raising=False)
        target = tmp_path / "cache"
        assert cache_dir(str(target)) == target
        assert target.is_dir()

    def test_environment_overrides_flag(self, tmp_path, monkeypatch):
        env_dir = tmp_path / "env"
        monkeypatch.setenv("FNCLASS_CACHE", str(env_dir))
        assert cache_dir(str(tmp_path / "flag")) == env_dir


class TestJsonReports:
    def test_round_trip(self, tmp_path):
        path = report_path(tmp_path, "sep", 2, 3)
        payload = {"relation": "sep", "classes": [{"size": 194}]}
        save_json(path, payload)
        assert load_json(path) == payload
        # deterministic byte-for-byte output
        first = path.read_bytes()
        save_json(path, payload)
        assert path.read_bytes() == first

    def test_missing_returns_none(self, tmp_path):
        assert load_json(tmp_path / "absent.json") is None


    def test_damaged_file_returns_none(self, tmp_path):
        path = report_path(tmp_path, "imp", 2, 2)
        save_json(path, {"relation": "imp", "classes": []})
        whole = path.read_bytes()
        for damaged in (whole[:len(whole) // 2], b"", b"\xff\xfe{}",
                        b"[1, 2]", b"null", b'"text"'):
            path.write_bytes(damaged)
            assert load_json(path) is None

    def test_unreadable_path_returns_none(self, tmp_path):
        path = report_path(tmp_path, "imp", 2, 2)
        path.mkdir()
        assert load_json(path) is None
