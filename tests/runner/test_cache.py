"""Content-addressed cell cache: key canonicalization and storage."""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import pytest

from repro.errors import ConfigurationError
from repro.runner import (
    CacheCorruptionWarning,
    Cell,
    RunConfig,
    canonical_encode,
    cell_key,
    default_cache_dir,
    run_cells,
)
from repro.store import STORE_MAGIC, LocalFileStore

from .helpers import square, touch_and_return


@dataclass(frozen=True)
class DemoConfig:
    lines: int = 128
    splits: tuple = ((0.9, 0.1), (0.5, 0.5))
    name: str = "demo"
    flag: bool = True


def demo_cell(x: int = 3) -> Cell:
    return Cell("demo", ("a", x), square, (DemoConfig(), x))


class TestCanonicalEncode:
    def test_primitives_pass_through(self):
        assert canonical_encode(3) == 3
        assert canonical_encode(0.5) == 0.5
        assert canonical_encode("s") == "s"
        assert canonical_encode(None) is None
        assert canonical_encode(True) is True

    def test_tuples_and_lists_equivalent(self):
        assert canonical_encode((1, 2)) == canonical_encode([1, 2])

    def test_dict_keys_sorted(self):
        enc = canonical_encode({"b": 1, "a": 2})
        assert list(enc) == ["a", "b"]

    def test_dataclass_includes_type_and_fields(self):
        enc = canonical_encode(DemoConfig())
        assert "DemoConfig" in enc["__dataclass__"]
        assert enc["fields"]["lines"] == 128
        assert enc["fields"]["splits"] == [[0.9, 0.1], [0.5, 0.5]]

    def test_unsupported_type_raises(self):
        with pytest.raises(ConfigurationError):
            canonical_encode(object())
        with pytest.raises(ConfigurationError):
            canonical_encode({1: "non-string key"})


class TestCellKey:
    def test_stable_within_process(self):
        assert cell_key(demo_cell()) == cell_key(demo_cell())

    def test_stable_across_processes(self):
        """The key must be reproducible in a different interpreter —
        resumption depends on it."""
        with ProcessPoolExecutor(max_workers=1) as ex:
            child_key = ex.submit(cell_key, demo_cell()).result()
        assert child_key == cell_key(demo_cell())

    def test_sensitive_to_config(self):
        a = Cell("demo", ("a", 3), square, (DemoConfig(lines=128), 3))
        b = Cell("demo", ("a", 3), square, (DemoConfig(lines=256), 3))
        assert cell_key(a) != cell_key(b)

    def test_sensitive_to_salt(self):
        key = cell_key(demo_cell())
        assert cell_key(demo_cell(), salt="other") != key

    def test_sensitive_to_function(self):
        a = Cell("demo", ("a", 3), square, (DemoConfig(), 3))
        b = Cell("demo", ("a", 3), touch_and_return, (DemoConfig(), 3))
        assert cell_key(a) != cell_key(b)


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = LocalFileStore(tmp_path)
        key = cell_key(demo_cell())
        assert cache.get(key) == (False, None)
        cache.put(key, {"x": [1, 2, 3]})
        assert key in cache
        assert cache.get(key) == (True, {"x": [1, 2, 3]})
        assert len(cache) == 1

    def test_corrupt_entry_warns_and_quarantines(self, tmp_path):
        cache = LocalFileStore(tmp_path)
        key = cell_key(demo_cell())
        cache.put(key, "value")
        path = cache.path_for(key)
        path.write_bytes(b"\x80truncated garbage")
        with pytest.warns(CacheCorruptionWarning, match="quarantined"):
            assert cache.get(key) == (False, None)
        # The bad bytes were moved aside for inspection, not deleted.
        assert not path.exists()
        corrupt = path.with_name(path.name + ".corrupt")
        assert corrupt.read_bytes() == b"\x80truncated garbage"
        assert len(cache) == 0
        # The quarantined entry does not shadow a fresh write.
        cache.put(key, "value")
        assert cache.get(key) == (True, "value")

    def test_checksum_mismatch_is_detected(self, tmp_path):
        cache = LocalFileStore(tmp_path)
        key = cell_key(demo_cell())
        cache.put(key, [1, 2, 3])
        path = cache.path_for(key)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF  # flip one payload bit; the header stays valid
        path.write_bytes(bytes(blob))
        with pytest.warns(CacheCorruptionWarning, match="checksum mismatch"):
            assert cache.get(key) == (False, None)
        assert path.with_name(path.name + ".corrupt").exists()

    def test_unpicklable_payload_is_quarantined(self, tmp_path):
        """A payload that passes the checksum but fails to unpickle is
        still corruption, not a crash."""
        import hashlib

        cache = LocalFileStore(tmp_path)
        key = cell_key(demo_cell())
        payload = b"definitely not a pickle"
        digest = hashlib.sha256(payload).hexdigest().encode("ascii")
        path = cache.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(STORE_MAGIC + digest + b"\n" + payload)
        with pytest.warns(CacheCorruptionWarning, match="unpickle"):
            assert cache.get(key) == (False, None)
        assert path.with_name(path.name + ".corrupt").exists()

    def test_missing_entry_is_a_silent_miss(self, tmp_path, recwarn):
        cache = LocalFileStore(tmp_path)
        assert cache.get(cell_key(demo_cell())) == (False, None)
        assert not [w for w in recwarn.list
                    if issubclass(w.category, CacheCorruptionWarning)]

    def test_corrupt_entry_triggers_recompute(self, tmp_path):
        """run_cells treats a corrupt entry as a miss: the cell reruns
        and the fresh result overwrites the quarantined one."""
        sentinels = tmp_path / "s"
        sentinels.mkdir()
        cache = LocalFileStore(tmp_path / "cache")
        cells = [Cell("t", (0,), touch_and_return,
                      (str(sentinels), "c0", 41))]
        assert run_cells(cells, RunConfig(store=cache)) == [41]
        key = cell_key(cells[0])
        cache.path_for(key).write_bytes(b"garbage")
        (sentinels / "c0").unlink()
        with pytest.warns(CacheCorruptionWarning):
            assert run_cells(cells, RunConfig(store=cache)) == [41]
        assert (sentinels / "c0").exists()  # really re-executed
        assert cache.get(key) == (True, 41)

    def test_purge(self, tmp_path):
        cache = LocalFileStore(tmp_path)
        for x in range(3):
            cache.put(cell_key(demo_cell(x)), x)
        result = cache.purge()
        assert result.entries == 3
        assert result.quarantined == 0
        assert result.total == 3
        assert len(cache) == 0

    def test_purge_removes_quarantined_entries(self, tmp_path):
        """purge() deletes quarantined *.pkl.corrupt files too, and
        reports them separately from live entries."""
        cache = LocalFileStore(tmp_path)
        keep = cell_key(demo_cell(0))
        bad = cell_key(demo_cell(1))
        cache.put(keep, 0)
        cache.put(bad, 1)
        cache.path_for(bad).write_bytes(b"garbage")
        with pytest.warns(CacheCorruptionWarning):
            cache.get(bad)
        corrupt = cache.path_for(bad).with_name(
            cache.path_for(bad).name + ".corrupt")
        assert corrupt.exists()
        result = cache.purge()
        assert result == (1, 1)  # one live entry, one quarantined
        assert result.total == 2
        assert not corrupt.exists()
        assert len(cache) == 0
        assert cache.quarantined_count() == 0

    def test_default_dir_honors_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
        assert default_cache_dir() == tmp_path / "custom"


class TestCacheShortCircuit:
    def test_hit_skips_execution(self, tmp_path):
        sentinels = tmp_path / "s"
        sentinels.mkdir()
        cache = LocalFileStore(tmp_path / "cache")
        cells = [Cell("t", (i,), touch_and_return,
                      (str(sentinels), f"c{i}", i)) for i in range(3)]
        assert run_cells(cells, RunConfig(store=cache)) == [0, 1, 2]
        # Wipe the execution record; a cached rerun must not recreate it.
        for f in sentinels.iterdir():
            f.unlink()
        assert run_cells(cells, RunConfig(store=cache)) == [0, 1, 2]
        assert list(sentinels.iterdir()) == []

    def test_force_reexecutes(self, tmp_path):
        sentinels = tmp_path / "s"
        sentinels.mkdir()
        cache = LocalFileStore(tmp_path / "cache")
        cells = [Cell("t", (0,), touch_and_return,
                      (str(sentinels), "c0", 7))]
        run_cells(cells, RunConfig(store=cache))
        (sentinels / "c0").unlink()
        assert run_cells(cells, RunConfig(store=cache, force=True)) == [7]
        assert (sentinels / "c0").exists()
