"""Structured runner spans: one record per executed experiment cell.

:class:`RunTelemetry` is the object the runner notifies
(:func:`repro.runner.run_cells` and the queue coordinator
:func:`repro.runner.worker.run_queued` accept it as their optional
``telemetry`` argument).  It materializes a :class:`CellSpan` per cell
covering the full scheduling lifecycle —
queued, started, retried attempts with their error types, worker losses,
cache hits, permanent failure or success — and mirrors the deterministic
facts into a :class:`~repro.obs.metrics.MetricsRegistry`.

Determinism contract: every wall-clock-derived field of a span lives
under its ``"wall"`` sub-object and nowhere else.  Stripping ``"wall"``
from each row leaves content that is byte-identical across repeated
identical runs (attempt counts and error types included, provided
failures themselves are deterministic, e.g. under a
:mod:`repro.store.faults` plan).  Rows are emitted in cell order, not
completion order, for the same reason.  Content-addressed cache keys
and figure outputs never see any of this.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import (TYPE_CHECKING, Any, Dict, List, Optional, Sequence,
                    Tuple, Union)

from ..errors import ConfigurationError
from .metrics import MetricsRegistry
from .trace import TRACE_ID_ENV, TraceWriter, span_id, trace_id_for, wall_now

if TYPE_CHECKING:  # avoid a runtime repro.runner <-> repro.obs cycle
    from ..runner.cells import Cell
    from ..store import StoreStats

__all__ = ["CellSpan", "RunTelemetry"]

#: Bucket bounds for the attempts histogram (1 = first-try success).
_ATTEMPT_BUCKETS = (1.0, 2.0, 3.0, 5.0, 8.0)


class CellSpan:
    """Mutable lifecycle record of one cell within one run."""

    __slots__ = ("index", "cell", "experiment", "key", "status", "attempts",
                 "retries", "losses", "cache_hit", "errors",
                 "queued_s", "started_s", "finished_s", "duration_s",
                 "synthesized", "reused")

    def __init__(self, index: int, label: str, experiment: str,
                 key: str) -> None:
        self.index = index
        self.cell = label
        self.experiment = experiment
        self.key = key
        self.status = "pending"
        self.attempts = 0
        self.retries = 0
        self.losses = 0
        self.cache_hit = False
        #: Error type names of failed attempts, in attempt order.
        self.errors: List[str] = []
        self.queued_s: Optional[float] = None
        self.started_s: Optional[float] = None
        self.finished_s: Optional[float] = None
        self.duration_s: Optional[float] = None
        #: Traces the executing process built for this cell, and those
        #: it reused from earlier cells of the sweep.  Which process ran
        #: which cell first decides them, so they are wall facts.
        self.synthesized: Optional[int] = None
        self.reused: Optional[int] = None

    def to_json(self) -> Dict[str, Any]:
        """Span row with every wall-clock field under ``"wall"``."""
        return {
            "index": self.index,
            "cell": self.cell,
            "experiment": self.experiment,
            "key": self.key,
            "status": self.status,
            "attempts": self.attempts,
            "retries": self.retries,
            "losses": self.losses,
            "cache_hit": self.cache_hit,
            "errors": list(self.errors),
            "wall": {
                "queued_s": self.queued_s,
                "started_s": self.started_s,
                "finished_s": self.finished_s,
                "duration_s": self.duration_s,
                "traces_synthesized": self.synthesized,
                "traces_reused": self.reused,
            },
        }


class RunTelemetry:
    """Collects cell spans and run metrics for one ``run_cells`` sweep.

    The runner drives the lifecycle hooks; everything is parent-process
    state (worker processes never see this object), so recording cannot
    perturb cell execution or results.
    """

    def __init__(self, metrics: Optional[MetricsRegistry] = None,
                 experiment: str = "") -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.experiment = experiment
        self.spans: List[CellSpan] = []
        self._by_index: Dict[int, CellSpan] = {}
        self._t0: Optional[float] = None
        #: Distributed-tracing state: a :class:`TelemetrySession` with
        #: ``trace=True`` points this at its ``traces/`` directory
        #: before the run; ``None`` keeps tracing fully off.
        self.trace_dir: Optional[Path] = None
        self.trace_id: str = ""
        self._trace_wall0: Optional[float] = None
        #: ``(index, error_type, attempts)`` of cells that died without
        #: a worker-side terminal span (lease exhausted, fleet aborted).
        self._trace_lost: List[Tuple[int, str, int]] = []
        #: ``(index, attempt, error_type, outcome, wall)`` of attempts
        #: whose worker the coordinator killed or found dead.
        self._trace_abandoned: List[
            Tuple[int, int, str, Optional[str], float]] = []

    # -- lifecycle hooks (called by repro.runner) ----------------------------
    def begin(self, cells: Sequence["Cell"], keys: Sequence[str]) -> None:
        """Open one span per cell; all cells are queued at sweep start.

        With tracing enabled this also opens the sweep's trace: the
        trace ID (a pure function of the cell keys) is computed here
        and exported as ``$REPRO_TRACE_ID`` so inline attempts — which
        see no queue payload — join the trace from the environment.
        """
        self._t0 = time.monotonic()
        if self.trace_dir is not None:
            self.trace_id = trace_id_for(list(keys))
            self._trace_wall0 = wall_now()
            self._trace_lost = []
            self._trace_abandoned = []
            os.environ[TRACE_ID_ENV] = self.trace_id
        self.spans = [
            CellSpan(i, cell.label, cell.experiment, keys[i])
            for i, cell in enumerate(cells)]
        self._by_index = {span.index: span for span in self.spans}
        for span in self.spans:
            span.queued_s = 0.0
        experiments = sorted({span.experiment for span in self.spans})
        gauge = self.metrics.gauge("runner.cells", ("experiment",))
        for name in experiments:
            gauge.set(sum(1 for s in self.spans if s.experiment == name),
                      experiment=name)

    def _span(self, index: int) -> CellSpan:
        try:
            return self._by_index[index]
        except KeyError:
            raise ConfigurationError(
                f"no span for cell index {index}; was begin() called?"
            ) from None

    def _elapsed(self) -> float:
        return time.monotonic() - self._t0 if self._t0 is not None else 0.0

    def cache_hit(self, index: int) -> None:
        """The cell's result was served from the content-addressed cache."""
        span = self._span(index)
        span.status = "cached"
        span.cache_hit = True
        span.finished_s = self._elapsed()
        self.metrics.counter("runner.cells.cached", ("experiment",)).inc(
            experiment=span.experiment)

    def started(self, index: int, attempt: int) -> None:
        """Attempt ``attempt`` (1-based) was handed to a worker/inline."""
        span = self._span(index)
        span.attempts = max(span.attempts, attempt)
        if span.started_s is None:
            span.started_s = self._elapsed()

    def retried(self, index: int, attempt: int, error_type: str) -> None:
        """Attempt ``attempt`` failed with ``error_type`` (the exception
        class name) and the cell will be retried."""
        span = self._span(index)
        span.retries += 1
        span.errors.append(error_type)
        self.metrics.counter(
            "runner.retries", ("experiment", "error")).inc(
                experiment=span.experiment, error=error_type)

    def lost(self, index: int) -> None:
        """The worker running the cell died (or its lease was stolen)."""
        span = self._span(index)
        span.losses += 1
        self.metrics.counter("runner.pool.losses", ("experiment",)).inc(
            experiment=span.experiment)

    def completed(self, index: int, elapsed: float) -> None:
        """The cell produced a result (``elapsed`` = worker-side seconds)."""
        span = self._span(index)
        span.status = "ok"
        span.attempts = max(span.attempts, 1)
        span.finished_s = self._elapsed()
        span.duration_s = elapsed
        self.metrics.counter("runner.cells.completed", ("experiment",)).inc(
            experiment=span.experiment)
        self.metrics.histogram(
            "runner.cell.attempts", ("experiment",),
            buckets=_ATTEMPT_BUCKETS).observe(
                span.attempts, experiment=span.experiment)

    def failed(self, index: int, error: BaseException, attempts: int,
               elapsed: float) -> None:
        """The cell permanently failed after ``attempts`` attempts."""
        span = self._span(index)
        span.status = "failed"
        span.attempts = max(span.attempts, attempts)
        span.errors.append(type(error).__name__)
        span.finished_s = self._elapsed()
        span.duration_s = elapsed
        self.metrics.counter("runner.cells.failed", ("experiment",)).inc(
            experiment=span.experiment)
        self.metrics.histogram(
            "runner.cell.attempts", ("experiment",),
            buckets=_ATTEMPT_BUCKETS).observe(
                span.attempts, experiment=span.experiment)

    def attach_reuse(self, counts: Dict[str, Tuple[int, int]]) -> None:
        """Attach ``{cell key: (synthesized, reused)}`` to the spans."""
        for span in self.spans:
            if span.key in counts:
                span.synthesized, span.reused = counts[span.key]

    def store_stats(self, stats: "StoreStats") -> None:
        """Mirror the experiment store's end-of-sweep statistics.

        ``entries``/``quarantined`` describe the store's contents;
        ``hits``/``misses``/``puts``/``quarantines`` this run's
        traffic.  All are deterministic facts (no wall-clock), so they
        are safe outside a ``"wall"`` sub-object.
        """
        labels = ("backend",)
        self.metrics.gauge("store.entries", labels).set(
            stats.entries, backend=stats.backend)
        self.metrics.gauge("store.quarantined", labels).set(
            stats.quarantined, backend=stats.backend)
        self.metrics.gauge("store.hits", labels).set(
            stats.hits, backend=stats.backend)
        self.metrics.gauge("store.misses", labels).set(
            stats.misses, backend=stats.backend)
        self.metrics.gauge("store.puts", labels).set(
            stats.puts, backend=stats.backend)
        self.metrics.gauge("store.quarantines", labels).set(
            stats.quarantines, backend=stats.backend)

    def queue_stats(self, queue: str, *, renewals: int,
                    steals: int) -> None:
        """Mirror the work queue's end-of-sweep heartbeat counters.

        ``renewals`` counts lease-renewal heartbeats (live workers
        running cells longer than their lease); ``steals`` counts
        expired-lease steals (workers that died holding an item).
        Together they prove the distinction the heartbeat exists for: a
        healthy fleet shows ``steals == 0`` however slow its cells.
        Both are timing-dependent (like ``runner.retries``), so they
        describe the run without feeding results or cache keys.
        """
        labels = ("queue",)
        self.metrics.gauge("queue.renewals", labels).set(
            renewals, queue=queue)
        self.metrics.gauge("queue.steals", labels).set(
            steals, queue=queue)

    # -- distributed tracing -------------------------------------------------
    def trace_context(self, index: int) -> Optional[Dict[str, str]]:
        """Trace context to stamp into cell ``index``'s queue payload.

        ``{"trace": ..., "parent": ...}`` — the parent is the cell
        span's derived ID, so a worker on any machine can hang its
        ``claim``/``execute`` spans under the right node without
        talking to the coordinator.  ``None`` when tracing is off.
        """
        if not self.trace_id:
            return None
        span = self._span(index)
        return {"trace": self.trace_id,
                "parent": span_id(self.trace_id, "cell", span.key)}

    def trace_lost(self, index: int, error_type: str,
                   attempts: int) -> None:
        """Record a coordinator-side terminal for a worker-less failure.

        Only for cells whose workers died *without* nacking (lease
        stolen past the loss budget, fleet aborted): worker-side
        failures already wrote their own ``nack`` terminal span, and a
        second terminal would break the one-leaf-per-cell invariant.
        """
        if self.trace_id:
            self._trace_lost.append((index, error_type, attempts))

    def trace_abandoned(self, index: int, attempt: int, error_type: str,
                        outcome: Optional[str]) -> None:
        """Close an attempt whose worker died inside its ``execute`` span.

        A worker the coordinator killed (``cell_timeout``) or found dead
        never writes the end of that span, nor its ``nack``.  The
        coordinator writes both: an ``execute`` ending in
        ``error_type`` and a ``nack`` whose ``outcome`` event is
        ``retry_scheduled`` or ``attempts_exhausted``.  ``outcome=None``
        writes no ``nack``: the attempt was the cell's last, and its
        terminal is the :meth:`trace_lost` span.
        """
        if self.trace_id:
            self._trace_abandoned.append(
                (index, attempt, error_type, outcome, wall_now()))

    def write_trace(self) -> Optional[Path]:
        """Write the coordinator's trace file (root sweep + cell spans).

        Timestamps are the sweep-relative monotonic offsets the cell
        spans already carry, rebased onto the wall-clock epoch captured
        at :meth:`begin` — so coordinator rows and worker rows (which
        stamp :func:`repro.obs.trace.wall_now` directly) share one
        timeline.  Returns ``None`` when tracing is off.
        """
        if self.trace_dir is None or not self.trace_id:
            return None
        os.environ.pop(TRACE_ID_ENV, None)
        tid = self.trace_id
        wall0 = self._trace_wall0

        def at(offset: Optional[float]) -> Optional[float]:
            if offset is None or wall0 is None:
                return None
            return wall0 + offset

        root_sid = span_id(tid, "sweep")
        rows: List[Dict[str, Any]] = [{
            "trace": tid, "span": root_sid, "parent": None,
            "kind": "sweep", "name": self.experiment or "sweep",
            "key": "", "attempt": 0, "status": "ok", "events": [],
            "wall": {"start": wall0, "end": wall_now(),
                     "worker": "coordinator"},
        }]
        for span in self.spans:
            rows.append({
                "trace": tid,
                "span": span_id(tid, "cell", span.key),
                "parent": root_sid, "kind": "cell", "name": span.cell,
                "key": span.key, "attempt": span.attempts,
                "status": span.status, "events": [],
                "wall": {"start": at(span.queued_s),
                         "end": at(span.finished_s),
                         "worker": "coordinator"},
            })
        for index, error_type, attempts in self._trace_lost:
            span = self._by_index[index]
            rows.append({
                "trace": tid,
                "span": span_id(tid, "lost", span.key, attempts),
                "parent": span_id(tid, "cell", span.key), "kind": "lost",
                "name": span.cell, "key": span.key, "attempt": attempts,
                "status": "error",
                # Which failures end in a coordinator-side loss is a
                # fact of the schedule (who died when), not of the
                # computation, hence det=False.
                "events": [{"name": "lost", "det": False,
                            "error_type": error_type}],
                "wall": {"start": None, "end": at(span.finished_s),
                         "worker": "coordinator"},
            })
        for index, attempt, error_type, outcome, end in \
                self._trace_abandoned:
            span = self._by_index[index]
            claim = span_id(tid, "claim", span.key, attempt)
            error = {"name": "error", "det": True, "error": error_type}
            ends = [("execute", [error])]
            if outcome is not None:
                ends.append(("nack", [error, {"name": outcome, "det": True}]))
            for kind, events in ends:
                rows.append({
                    "trace": tid,
                    "span": span_id(tid, kind, span.key, attempt),
                    "parent": claim, "kind": kind, "name": span.cell,
                    "key": span.key, "attempt": attempt, "status": "error",
                    "events": events,
                    "wall": {"start": None, "end": end,
                             "worker": "coordinator"},
                })
        writer = TraceWriter(self.trace_dir / "coordinator.jsonl")
        for row in rows:
            writer.write(row)
        writer.close()
        return writer.path

    # -- export ---------------------------------------------------------------
    def rows(self) -> List[Dict[str, Any]]:
        """Span rows in cell order (deterministic modulo ``"wall"``)."""
        return [span.to_json() for span in self.spans]

    def counts(self) -> Dict[str, int]:
        """Summary counters for the run manifest."""
        statuses = [span.status for span in self.spans]
        return {
            "total": len(self.spans),
            "completed": statuses.count("ok"),
            "cached": statuses.count("cached"),
            "failed": statuses.count("failed"),
            "retries": sum(span.retries for span in self.spans),
            "losses": sum(span.losses for span in self.spans),
        }

    def write_jsonl(self, path: Union[str, Path]) -> Path:
        """Write one JSON object per span, in cell order."""
        from .schema import header_line
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(header_line("spans") + "\n")
            for row in self.rows():
                fh.write(json.dumps(row, sort_keys=True,
                                    separators=(",", ":")) + "\n")
        return path
