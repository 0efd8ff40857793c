"""RunConfig and the legacy-keyword deprecation shim."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.runner import Cell, RunConfig, run_cells
from repro.runner.config import coerce_run_config
from repro.runner.resilience import RetryPolicy
from repro.store import LocalFileStore

from .helpers import square


class TestRunConfig:
    def test_defaults_run_inline_without_a_store(self):
        cfg = RunConfig()
        assert cfg.jobs == 1
        assert cfg.store is None
        assert cfg.open_store() is None
        assert cfg.policy() == RetryPolicy()

    def test_policy_mirrors_resilience_fields(self):
        cfg = RunConfig(retries=2, backoff_base=0.1, backoff_cap=1.0,
                        cell_timeout=5.0, keep_going=True)
        assert cfg.policy() == RetryPolicy(
            retries=2, backoff_base=0.1, backoff_cap=1.0,
            cell_timeout=5.0, keep_going=True)

    def test_store_field_accepts_url_path_and_instance(self, tmp_path):
        by_url = RunConfig(store=f"local:{tmp_path}/a").open_store()
        assert isinstance(by_url, LocalFileStore)
        by_path = RunConfig(store=tmp_path / "b").open_store()
        assert isinstance(by_path, LocalFileStore)
        inst = LocalFileStore(tmp_path / "c")
        assert RunConfig(store=inst).open_store() is inst

    def test_replace_returns_a_modified_copy(self):
        cfg = RunConfig(jobs=2)
        other = cfg.replace(retries=3)
        assert other.jobs == 2
        assert other.retries == 3
        assert cfg.retries == 0  # original untouched (frozen)

    def test_invalid_resilience_fields_rejected(self):
        with pytest.raises(ConfigurationError):
            RunConfig(retries=-1)
        with pytest.raises(ConfigurationError):
            RunConfig(cell_timeout=0)

    def test_queue_fields_validated(self, tmp_path):
        with pytest.raises(ConfigurationError, match="queue_lease"):
            RunConfig(store=tmp_path, jobs=2, queue_lease=0.0)
        with pytest.raises(ConfigurationError, match="queue_renew"):
            RunConfig(store=tmp_path, jobs=2, queue_renew_interval=-1.0)
        with pytest.raises(ConfigurationError, match="store_retries"):
            RunConfig(jobs=2, store_retries=-1)

    def test_queue_workers_field_is_gone(self, tmp_path):
        """``--jobs N`` with a store is the queue sweep; the separate
        worker-count field was removed without a shim."""
        with pytest.raises(TypeError, match="queue_workers"):
            RunConfig(store=tmp_path, queue_workers=2)


class TestCoerceRunConfig:
    def test_config_passes_through_unchanged(self):
        cfg = RunConfig(jobs=4)
        assert coerce_run_config(cfg, {}, where="t") is cfg

    def test_no_arguments_yield_defaults(self, recwarn):
        assert coerce_run_config(None, {}, where="t") == RunConfig()
        assert len(recwarn.list) == 0

    def test_legacy_kwargs_warn_once_and_map(self, tmp_path):
        store = LocalFileStore(tmp_path)
        with pytest.warns(DeprecationWarning,
                          match="pass a RunConfig") as rec:
            cfg = coerce_run_config(
                None, {"jobs": 3, "store": store, "retries": 1}, where="t")
        assert len(rec.list) == 1  # a single warning per call
        assert cfg.jobs == 3
        assert cfg.store is store
        assert cfg.retries == 1

    def test_removed_cache_alias_is_an_error(self, tmp_path):
        """The cache= -> store= deprecation cycle is over: passing
        cache= now fails fast, naming the replacement field."""
        store = LocalFileStore(tmp_path)
        with pytest.raises(TypeError,
                           match="cache= was renamed to store="):
            coerce_run_config(None, {"jobs": 3, "cache": store}, where="t")

    def test_mixing_styles_is_an_error(self):
        with pytest.raises(ConfigurationError, match="not both"):
            coerce_run_config(RunConfig(), {"jobs": 2}, where="t")

    def test_unknown_keyword_is_a_type_error(self):
        with pytest.raises(TypeError, match="workers"):
            coerce_run_config(None, {"workers": 2}, where="t")


class TestRunnerEntryPoints:
    def cells(self, n=3):
        return [Cell("t", (i,), square, (None, i)) for i in range(n)]

    def test_run_cells_accepts_run_config(self, tmp_path, recwarn):
        cfg = RunConfig(store=LocalFileStore(tmp_path))
        assert run_cells(self.cells(), cfg) == [0, 1, 4]
        assert not [w for w in recwarn.list
                    if issubclass(w.category, DeprecationWarning)]

    def test_run_cells_legacy_kwargs_still_work(self, tmp_path):
        store = LocalFileStore(tmp_path)
        with pytest.warns(DeprecationWarning, match="repro.runner.run_cells"):
            assert run_cells(self.cells(), store=store) == [0, 1, 4]
        # The legacy run populated the store under the new protocol.
        assert len(store) == 3

    def test_run_cells_rejects_removed_cache_alias(self, tmp_path):
        with pytest.raises(TypeError, match="cache= was renamed"):
            run_cells(self.cells(), cache=LocalFileStore(tmp_path))

    def test_experiment_run_accepts_run_config(self, capsys):
        from repro.experiments.registry import get_experiment

        spec = get_experiment("fig3")
        legacy = spec.run(spec.config("smoke"), jobs=1)
        capsys.readouterr()
        modern = spec.run(spec.config("smoke"),
                          run_config=RunConfig(jobs=1))
        assert modern == legacy

