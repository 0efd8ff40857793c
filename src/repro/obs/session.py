"""One telemetry-enabled run: directory layout, activation, manifest.

:class:`TelemetrySession` owns the on-disk telemetry directory for one
experiment run::

    <dir>/
        manifest.json     run manifest (version, config, counts, wall)
        metrics.jsonl     every metric series (deterministic)
        spans.jsonl       one span per cell (wall fields under "wall")
        series/*.jsonl    per-partition time series, one file per
                          simulation a cell ran (deterministic)
        lifecycle/*.jsonl partition control-plane events (create /
                          retire / retarget), written only by cells
                          whose caches saw lifecycle activity
        traces/*.jsonl    distributed-trace spans (``trace=True``):
                          coordinator.jsonl plus one file per worker
                          process; see repro.obs.trace
        profile/*.prof    optional cProfile captures (wall-clock)
        reuse/*.json      per-cell trace reuse counts in transit from
                          the executing processes; folded into
                          spans.jsonl and removed at finish

Used as a context manager around the runner call::

    with TelemetrySession(path, experiment="fig3") as session:
        run_experiment("fig3", ..., telemetry=session.telemetry)

``__enter__`` exports the :mod:`repro.obs.runtime` environment variables
(and creates the directory) so worker processes spawned afterwards
record series; ``__exit__`` restores the environment and writes the
artifacts.  The manifest separates the deterministic facts of the run
(version, configuration, cell counts) from everything wall-clock, which
lives under the single ``"wall"`` key — mirroring the span convention —
so reproducibility checks can compare manifests minus ``"wall"``.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from ..errors import ConfigurationError
from .metrics import MetricsRegistry
from .runtime import (
    DEFAULT_INTERVAL,
    REUSE_DIR,
    TELEMETRY_ENV,
    TELEMETRY_INTERVAL_ENV,
    TELEMETRY_PROFILE_ENV,
)
from .spans import RunTelemetry
from .trace import TRACE_ENV

__all__ = ["TelemetrySession"]


def _package_version() -> str:
    from .. import __version__  # deferred: repro/__init__ may be mid-import
    return __version__


class TelemetrySession:
    """Telemetry directory + activation for one experiment run."""

    def __init__(self, path: Union[str, Path], *, experiment: str = "",
                 interval: int = DEFAULT_INTERVAL,
                 profile: bool = False, trace: bool = False) -> None:
        if interval < 1:
            raise ConfigurationError(
                f"sampling interval must be >= 1, got {interval}")
        self.dir = Path(path)
        self.experiment = experiment
        self.interval = int(interval)
        self.profile = bool(profile)
        self.trace = bool(trace)
        self.metrics = MetricsRegistry()
        #: Hand this to ``run_cells(..., telemetry=...)`` to collect spans.
        self.telemetry = RunTelemetry(self.metrics, experiment)
        if self.trace:
            # Points RunTelemetry.begin at traces/; activation exports
            # $REPRO_TRACE so worker processes write their own files.
            self.telemetry.trace_dir = self.dir / "traces"
        self._phases: List[Tuple[str, float]] = []
        self._saved_env: Dict[str, Optional[str]] = {}
        self._t0: Optional[float] = None
        self._started_iso = ""
        self._active = False

    # -- activation -----------------------------------------------------------
    def activate(self) -> "TelemetrySession":
        """Create the directory and export the worker environment."""
        if self._active:
            raise ConfigurationError("telemetry session is already active")
        self.dir.mkdir(parents=True, exist_ok=True)
        (self.dir / "series").mkdir(exist_ok=True)
        # Left behind only by a run that died before finish().
        shutil.rmtree(self.dir / REUSE_DIR, ignore_errors=True)
        env = {
            TELEMETRY_ENV: str(self.dir),
            TELEMETRY_INTERVAL_ENV: str(self.interval),
            TELEMETRY_PROFILE_ENV: "1" if self.profile else "0",
        }
        if self.trace:
            traces = self.dir / "traces"
            traces.mkdir(exist_ok=True)
            # Trace files are append-mode (workers reopen across
            # items), so a fresh run must start from an empty dir.
            for stale in sorted(traces.glob("*.jsonl")):
                stale.unlink()
            env[TRACE_ENV] = str(traces)
        self._saved_env = {key: os.environ.get(key) for key in env}
        os.environ.update(env)
        self._t0 = time.monotonic()
        # Wall-clock by design: lands only under the manifest's "wall" key.
        self._started_iso = datetime.now(timezone.utc).isoformat()  # reprolint: disable=DET002
        self._active = True
        return self

    def __enter__(self) -> "TelemetrySession":
        return self.activate()

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.finish()

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time one named phase of the run (build / execute / render ...).

        Timings are wall-clock and appear only under the manifest's
        ``"wall"`` key, in phase order.
        """
        start = time.monotonic()
        try:
            yield
        finally:
            self._phases.append((name, time.monotonic() - start))

    # -- artifacts ------------------------------------------------------------
    def _series_files(self) -> List[str]:
        series_dir = self.dir / "series"
        if not series_dir.is_dir():
            return []
        return sorted(p.name for p in series_dir.glob("*.jsonl"))

    def _lifecycle_files(self) -> List[str]:
        lifecycle_dir = self.dir / "lifecycle"
        if not lifecycle_dir.is_dir():
            return []
        return sorted(p.name for p in lifecycle_dir.glob("*.jsonl"))

    def _trace_files(self) -> List[str]:
        traces_dir = self.dir / "traces"
        if not traces_dir.is_dir():
            return []
        return sorted(p.name for p in traces_dir.glob("*.jsonl"))

    def _take_reuse(self) -> Dict[str, Tuple[int, int]]:
        """Read and remove the per-cell ``reuse/`` counts."""
        counts: Dict[str, Tuple[int, int]] = {}
        reuse_dir = self.dir / REUSE_DIR
        for path in sorted(reuse_dir.glob("*.json")):
            try:
                doc = json.loads(path.read_text(encoding="utf-8"))
                counts[path.stem] = (int(doc["synthesized"]),
                                     int(doc["reused"]))
            except (ValueError, KeyError, TypeError):
                continue  # written by a worker killed mid-write
        shutil.rmtree(reuse_dir, ignore_errors=True)
        return counts

    def manifest(self) -> Dict[str, Any]:
        """The run manifest; wall-clock facts live under ``"wall"``.

        The ``artifacts.lifecycle`` key appears only when a cell wrote
        partition-lifecycle events, so runs without control-plane
        activity produce manifests identical to pre-lifecycle ones.
        """
        artifacts: Dict[str, Any] = {
            "metrics": "metrics.jsonl",
            "spans": "spans.jsonl",
            "series": self._series_files(),
        }
        lifecycle = self._lifecycle_files()
        if lifecycle:
            artifacts["lifecycle"] = lifecycle
        traces = self._trace_files()
        if traces:
            artifacts["traces"] = traces
        return {
            "version": _package_version(),
            "experiment": self.experiment,
            "interval": self.interval,
            "profile": self.profile,
            "cells": self.telemetry.counts(),
            "artifacts": artifacts,
            "wall": {
                "started_utc": self._started_iso,
                "total_s": (time.monotonic() - self._t0
                            if self._t0 is not None else None),
                "phases": [
                    {"name": name, "seconds": seconds}
                    for name, seconds in self._phases],
            },
        }

    def finish(self) -> Path:
        """Restore the environment and write metrics/spans/manifest."""
        if self._active:
            for key, value in self._saved_env.items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value
            self._saved_env = {}
            self._active = False
        self.metrics.export_jsonl(self.dir / "metrics.jsonl")
        self.telemetry.attach_reuse(self._take_reuse())
        self.telemetry.write_jsonl(self.dir / "spans.jsonl")
        if self.trace:
            self.telemetry.write_trace()
        manifest_path = self.dir / "manifest.json"
        with open(manifest_path, "w", encoding="utf-8") as fh:
            json.dump(self.manifest(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return manifest_path
