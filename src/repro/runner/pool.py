"""Parallel, cached execution of experiment cells with an ordered reduce.

:func:`run_cells` is the single entry point.  It resolves store hits in
the parent, executes the remaining cells — inline (``jobs == 1``, or a
single pending cell, with no ``cell_timeout``), or through the store's
work queue drained by ``jobs`` forked local workers (see
:mod:`repro.runner.worker`) — persists every freshly computed result to
the experiment store *as it completes* (so an interrupted sweep resumes
from where it died), and returns results in cell order — the reduce
step therefore sees the exact sequence a sequential run would have
produced, making parallel output byte-identical to sequential output.

Execution is configured by a :class:`~repro.runner.RunConfig`
(``run_cells(cells, RunConfig(jobs=4, store="sqlite:results.db"))``);
the historical keyword style still works behind a deprecation shim
(:func:`repro.runner.config.coerce_run_config`).

Determinism: before executing a cell, the runner reseeds the global
``random`` and ``numpy.random`` generators from the cell's
content-addressed key.  This happens identically inline, in queue
workers, and on *every retry attempt*, so a cell that (incorrectly)
reaches for global randomness still cannot diverge between ``--jobs 1``,
``--jobs N``, or a retried run.

Fault tolerance (``retries`` / ``cell_timeout`` / ``keep_going``)
follows :class:`~repro.runner.resilience.RetryPolicy`; deterministic
fault injection for testing it lives in :mod:`repro.runner.faults`.
"""

from __future__ import annotations

import os
import random
import time
from typing import TYPE_CHECKING, Any, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError, ReproError, WorkerError
from ..store import ExperimentStore
from ..trace.spec import reuse_counts, trace_reuse
from .cache import cell_key
from .cells import Cell
from .config import RunConfig, coerce_run_config
from .faults import active_plan, corrupt_cache_entries, inject
from .progress import Progress
from .resilience import FailedCell, RetryPolicy

if TYPE_CHECKING:
    from ..obs.spans import RunTelemetry

__all__ = ["run_cells", "default_jobs"]

_PENDING = object()


def default_jobs() -> int:
    """Default worker count: ``os.cpu_count()``."""
    return os.cpu_count() or 1


def _seed_from_key(key: str) -> None:
    """Deterministically reseed global RNGs for one cell attempt.

    Cells are expected to derive their own seeded ``random.Random`` from
    their config; this is belt-and-braces so global-state randomness can
    never differ between sequential, parallel, or retried execution.
    """
    seed = int(key[:16], 16)
    random.seed(seed)
    try:
        import numpy as np

        np.random.seed(seed & 0xFFFFFFFF)
    except ImportError:  # numpy is a hard dep, but stay defensive
        pass


def _execute(payload: Sequence[Any]) -> Tuple[int, float, Any]:
    """Worker body: run one cell attempt, returning (index, elapsed, result).

    ``payload`` is ``(index, key, cell, attempt)`` with an optional
    fifth element: the distributed-trace context a queue item carries
    (``{"trace": ..., "parent": ...}``; see :mod:`repro.obs.trace`).
    Inline attempts pass 4-tuples and join the trace through the
    environment instead.

    Reseeds the global RNGs from the cell key before *every* attempt, so
    a retried cell is byte-identical to a first-try run; then gives the
    fault-injection harness its chance to misbehave (a no-op unless a
    plan is active in the environment).
    """
    index, key, cell, attempt = payload[:4]
    if os.environ.get("REPRO_TRACE"):
        # Tracing is on (workers learn via the inherited environment):
        # wrap the attempt in an `execute` span so retries, faults and
        # errors are causally attributed.  Zero code runs without the
        # variable — the determinism contract's zero-overhead clause.
        from ..obs.trace import execute_span

        ctx = payload[4] if len(payload) > 4 else None
        with execute_span(cell.label, key, attempt, ctx):
            return _run_attempt(index, key, cell, attempt)
    return _run_attempt(index, key, cell, attempt)


def _run_attempt(index: int, key: str, cell: Cell,
                 attempt: int) -> Tuple[int, float, Any]:
    _seed_from_key(key)
    inject(cell.label, attempt)
    if os.environ.get("REPRO_TELEMETRY"):
        # Telemetry is on (workers learn via the inherited environment):
        # name the cell so series files land at deterministic paths, and
        # optionally capture a cProfile of the attempt.
        # Also report how many of the cell's traces this process built
        # and how many it reused from earlier cells of the sweep.
        from ..obs.runtime import maybe_profile, record_reuse, set_cell

        set_cell(cell.label)
        synthesized, reused = reuse_counts()
        start = time.perf_counter()
        with maybe_profile(cell.label):
            result = cell.run()
        elapsed = time.perf_counter() - start
        after = reuse_counts()
        record_reuse(key, after[0] - synthesized, after[1] - reused)
        return index, elapsed, result
    start = time.perf_counter()
    result = cell.run()
    return index, time.perf_counter() - start, result


def _run_inline(cells: Sequence[Cell], keys: Sequence[str],
                pending: Sequence[int], policy: RetryPolicy,
                results: List[Any], store: Optional[ExperimentStore],
                progress: Optional[Progress],
                telemetry: Optional["RunTelemetry"] = None) -> None:
    """Sequential execution with retries; raises raw on permanent failure
    (unless ``keep_going``), preserving the historical inline semantics."""
    for i in pending:
        failed_attempts = 0
        total_elapsed = 0.0
        while True:
            attempt = failed_attempts + 1
            if telemetry is not None:
                telemetry.started(i, attempt)
            start = time.monotonic()
            try:
                _, elapsed, value = _execute((i, keys[i], cells[i], attempt))
            except Exception as exc:
                total_elapsed += time.monotonic() - start
                failed_attempts += 1
                if failed_attempts <= policy.retries:
                    backoff = policy.delay(failed_attempts)
                    if telemetry is not None:
                        telemetry.retried(i, attempt, type(exc).__name__)
                    if progress is not None:
                        progress.retry(cells[i], attempt,
                                       type(exc).__name__, str(exc), backoff)
                    time.sleep(backoff)
                    continue
                if telemetry is not None:
                    telemetry.failed(i, exc, attempt, total_elapsed)
                if not policy.keep_going:
                    raise
                results[i] = FailedCell(
                    index=i, label=cells[i].label, key=keys[i],
                    error_type=type(exc).__name__, message=str(exc),
                    attempts=attempt, elapsed=round(total_elapsed, 3),
                    exc=exc)
                if progress is not None:
                    progress.cell(cells[i], failed=True)
                break
            results[i] = value
            if telemetry is not None:
                telemetry.completed(i, elapsed)
            if store is not None:
                store.put(keys[i], value)
            if progress is not None:
                progress.cell(cells[i], elapsed=elapsed)
            break


# One trace-reuse scope per sweep, closed however the sweep ends: inline
# cells share it directly, queue workers open one per drain
# (worker.work_loop).
@trace_reuse()
def run_cells(cells: Sequence[Cell], config: Optional[RunConfig] = None,
              **legacy: Any) -> List[Any]:
    """Execute ``cells`` per ``config`` and return results in cell order.

    ``config`` is a :class:`~repro.runner.RunConfig` — parallelism
    (``jobs``), the experiment store, the
    resilience policy (``retries`` / ``cell_timeout`` / ``keep_going``)
    and the progress/telemetry sinks in one value; see its docstring
    for every field.  The legacy keyword style
    (``run_cells(cells, jobs=4, store=...)``) still works and emits a
    single :class:`DeprecationWarning` per call; the removed ``cache=``
    alias of ``store`` is an error.

    Execution modes (byte-identical in output):

    - inline — ``jobs=1`` (or a single pending cell) and no
      ``cell_timeout``;
    - work queue — otherwise: the pending cells are published to the
      store's claim/ack queue and drained by ``jobs`` local workers
      forked from this process, which the coordinator kills on a
      ``cell_timeout`` and replaces when they die
      (:func:`repro.runner.worker.run_queued`).  Without a store the
      queue lives in a temporary ``sqlite:`` store.

    Store hits short-circuit execution; fresh results persist as each
    cell completes, so interrupted sweeps resume from the store.  Under
    ``keep_going`` permanently failed cells yield
    :class:`~repro.runner.FailedCell` sentinels instead of aborting;
    otherwise a single failing :class:`~repro.errors.ReproError`
    propagates unwrapped and any other permanent failure raises
    :class:`~repro.errors.WorkerError` listing *every* failed cell.
    """
    cfg = coerce_run_config(config, legacy, where="repro.runner.run_cells")
    jobs = cfg.jobs or default_jobs()
    if jobs < 1:
        jobs = default_jobs()
    policy = cfg.policy()
    store = cfg.open_store()
    progress = cfg.progress
    telemetry = cfg.telemetry
    if cfg.trace and (telemetry is None or telemetry.trace_dir is None):
        raise ConfigurationError(
            "trace=True but the telemetry collector has no trace "
            "directory; construct it via TelemetrySession(..., trace=True)")
    cells = list(cells)
    keys = [cell_key(cell) for cell in cells]
    results: List[Any] = [_PENDING] * len(cells)
    if telemetry is not None:
        telemetry.begin(cells, keys)
    if progress is not None:
        progress.begin(len(cells))

    plan = active_plan()
    if plan is not None and store is not None and not cfg.force:
        corrupt_cache_entries(plan, cells, keys, store)

    pending: List[int] = []
    for i, cell in enumerate(cells):
        if store is not None and not cfg.force:
            hit, value = store.get(keys[i])
            if hit:
                results[i] = value
                if telemetry is not None:
                    telemetry.cache_hit(i)
                if progress is not None:
                    progress.cell(cell, cached=True)
                continue
        pending.append(i)

    if pending:
        if policy.cell_timeout is None and (jobs == 1 or len(pending) == 1):
            _run_inline(cells, keys, pending, policy, results, store,
                        progress, telemetry)
        else:
            from .worker import run_queued, sweep_store

            with sweep_store(store) as queue_store:
                queued = run_queued(
                    cells, keys, pending, store=queue_store, policy=policy,
                    workers=jobs, queue_name=cfg.queue_name,
                    lease=cfg.queue_lease, progress=progress,
                    telemetry=telemetry,
                    renew_interval=cfg.queue_renew_interval,
                    store_retries=cfg.store_retries,
                    queue_gauges=store is not None)
            for i, value in queued.items():
                results[i] = value

    if telemetry is not None and store is not None:
        telemetry.store_stats(store.stats())

    failures = [r for r in results if isinstance(r, FailedCell)]
    if failures and not policy.keep_going:
        # (The inline path raised already; this is the queue path.)
        if len(failures) == 1 and isinstance(failures[0].exc, ReproError):
            raise failures[0].exc
        detail = "; ".join(f"{f.label}: {f.error_type}: {f.message}"
                           for f in failures)
        raise WorkerError(
            f"{len(failures)} cell(s) failed: {detail}") from failures[0].exc

    missing = [i for i, r in enumerate(results) if r is _PENDING]
    if missing:  # defensive: should be unreachable
        raise WorkerError(
            f"{len(missing)} cell(s) produced no result "
            f"(first: {cells[missing[0]].label})")
    return results
