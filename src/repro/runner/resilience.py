"""Fault-tolerant cell execution: retries, timeouts, pool recovery.

The engine behind :func:`repro.runner.run_cells`'s resilience options.
Partial failure is treated as the normal case for paper-sized sweeps —
one crashing cell, a hung simulation or a dead worker must not discard
hours of completed in-flight work:

* **Retries** — a failed attempt is re-executed up to ``retries`` more
  times with capped deterministic exponential backoff (no jitter: the
  delay sequence is a pure function of the attempt number).  The runner
  reseeds the global RNGs from the cell key before *every* attempt, so
  a retried cell's result is byte-identical to a first-try run.
* **Timeouts** — with ``cell_timeout`` set, a cell still running past
  its wall-clock deadline is charged a failed attempt, its (hung)
  worker pool is torn down, and every innocent in-flight cell is
  requeued at no cost.
* **Pool recovery** — a dead worker (``BrokenProcessPool``) kills every
  in-flight future; the engine respawns the pool and requeues only the
  lost cells.  Each loss is charged against a separate loss budget so a
  cell that *keeps* killing its worker eventually fails instead of
  looping forever.
* **Keep-going** — permanently failed cells become
  :class:`FailedCell` sentinels in the result list instead of aborting
  the sweep; every other cell completes and persists to the cache, and
  the failures serialize to a JSON manifest (:func:`write_manifest`).

Wall-clock note: this module deliberately uses ``time.monotonic`` /
``time.sleep`` for deadlines and backoff.  Interval timing never feeds
results or cache keys, so reprolint's DET002 does not (and must not)
flag it; see CONTRIBUTING.md.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures import wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..errors import CellTimeoutError, ConfigurationError, WorkerError
from ..store import ExperimentStore
from ..trace.spec import worker_trace_reuse
from .cells import Cell
from .progress import Progress

if TYPE_CHECKING:
    from ..obs.spans import RunTelemetry

__all__ = [
    "MANIFEST_VERSION",
    "FailedCell",
    "RetryPolicy",
    "load_manifest",
    "run_pool",
    "write_manifest",
]

#: Bump when the failure-manifest JSON layout changes.
MANIFEST_VERSION = 1

#: Payload type of one executed cell: ``(index, elapsed, result)``.
CellOutcome = Tuple[int, float, Any]

#: Worker entry point: ``(index, key, cell, attempt) -> CellOutcome``.
ExecuteFn = Callable[[Tuple[int, str, Cell, int]], CellOutcome]


@dataclass(frozen=True)
class RetryPolicy:
    """How :func:`repro.runner.run_cells` treats failing cells.

    Parameters
    ----------
    retries:
        Extra attempts per cell after its first failure (0 = fail fast,
        the historical behavior).
    backoff_base / backoff_cap:
        Deterministic capped exponential backoff: the delay before
        retry ``n`` is ``min(backoff_cap, backoff_base * 2**(n-1))``
        seconds.  No jitter — determinism is the whole point.
    cell_timeout:
        Per-cell wall-clock limit in seconds (``None`` = unlimited).
        Enforced by the pool path; a single in-process cell cannot be
        killed, so timeouts route execution through a worker pool even
        at ``jobs=1``.
    keep_going:
        Complete the sweep despite permanently failed cells, standing
        in :class:`FailedCell` sentinels for their results.
    """

    retries: int = 0
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    cell_timeout: Optional[float] = None
    keep_going: bool = False

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ConfigurationError(
                f"retries must be >= 0, got {self.retries}")
        if self.cell_timeout is not None and self.cell_timeout <= 0:
            raise ConfigurationError(
                f"cell_timeout must be positive, got {self.cell_timeout}")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ConfigurationError("backoff delays must be non-negative")

    def delay(self, failures: int) -> float:
        """Backoff before the next attempt after ``failures`` failures."""
        return min(self.backoff_cap,
                   self.backoff_base * (2 ** (failures - 1)))

    @property
    def loss_budget(self) -> int:
        """How many pool breakages one cell may be implicated in."""
        return max(self.retries, 1)


@dataclass(frozen=True)
class FailedCell:
    """Sentinel standing in for a permanently failed cell's result.

    Appears in :func:`repro.runner.run_cells` output under
    ``keep_going`` and in :class:`~repro.errors.SweepError.failures`;
    serializes into the JSON failure manifest via :meth:`to_json`.
    """

    index: int
    label: str
    key: str
    error_type: str
    message: str
    attempts: int
    elapsed: float
    #: The final exception (in-memory only; not serialized).
    exc: Optional[BaseException] = field(
        default=None, compare=False, repr=False)

    def to_json(self) -> Dict[str, Any]:
        """Manifest entry: everything but the live exception object."""
        return {
            "cell": self.label,
            "key": self.key,
            "index": self.index,
            "error_type": self.error_type,
            "message": self.message,
            "attempts": self.attempts,
            "elapsed": self.elapsed,
        }


def write_manifest(path: Union[str, "Path"], experiment: str,
                   failures: Sequence[FailedCell]) -> Path:
    """Persist a failure manifest (atomically) and return its path.

    An *empty* manifest is meaningful: it records that a ``keep_going``
    sweep completed with zero permanent failures.  Rerunning the same
    command re-executes only the failed cells — every successful cell
    is already in the result cache.
    """
    path = Path(path)
    payload = {
        "manifest_version": MANIFEST_VERSION,
        "experiment": experiment,
        "failures": [f.to_json()
                     for f in sorted(failures, key=lambda f: f.index)],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".manifest-",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def load_manifest(path: Union[str, "Path"]) -> Dict[str, Any]:
    """Read a manifest written by :func:`write_manifest`."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "failures" not in doc:
        raise ConfigurationError(
            f"{path} is not a failure manifest (no 'failures' key)")
    return doc


@dataclass
class _CellRun:
    """Mutable per-cell scheduling state inside :func:`run_pool`."""

    index: int
    submissions: int = 0  # attempts handed to a worker so far
    failures: int = 0     # attempts that raised or timed out
    losses: int = 0       # times lost to a pool breakage
    elapsed: float = 0.0  # cumulative wall-clock across attempts
    ready_at: float = 0.0  # monotonic time when (re)submission is allowed


@dataclass(frozen=True)
class _Flight:
    """One submitted attempt: which cell, when, and its deadline."""

    index: int
    submitted_at: float
    deadline: Optional[float]


def _kill_workers(ex: ProcessPoolExecutor) -> None:
    """SIGKILL every worker process of ``ex`` (hung pools only)."""
    for proc in list((getattr(ex, "_processes", None) or {}).values()):
        try:
            proc.kill()
        except (OSError, AttributeError):
            pass


def _new_pool(workers: int) -> ProcessPoolExecutor:
    """A pool whose workers each reuse traces across their cells.

    The scope opens in the initializer rather than being inherited, so
    it holds under any start method, and it ends with the worker.
    """
    return ProcessPoolExecutor(max_workers=workers,
                               initializer=worker_trace_reuse)


def _respawn(ex: ProcessPoolExecutor, workers: int) -> ProcessPoolExecutor:
    """Tear down a broken/hung pool and return a fresh one."""
    _kill_workers(ex)
    ex.shutdown(wait=True, cancel_futures=True)
    return _new_pool(workers)


def run_pool(cells: Sequence[Cell], keys: Sequence[str],
             pending: Sequence[int], *, jobs: int, policy: RetryPolicy,
             execute: ExecuteFn, store: Optional[ExperimentStore] = None,
             progress: Optional[Progress] = None,
             telemetry: Optional["RunTelemetry"] = None,
             ) -> Tuple[Dict[int, Any], Dict[int, FailedCell]]:
    """Execute ``pending`` cell indices across a self-healing pool.

    Returns ``(results, failures)``: ``results`` maps every pending
    index to its value (or its :class:`FailedCell`), ``failures`` the
    subset that permanently failed.  Raising (or not) on failures is
    the caller's policy decision.  ``telemetry`` (when given) receives
    the full scheduling lifecycle of every cell — submissions, retries,
    pool losses, completion — as structured spans.

    Cells are dispatched at most ``workers`` at a time so a submitted
    cell starts (approximately) immediately — that is what makes the
    per-cell deadline meaningful and lets a breakage implicate only the
    genuinely in-flight cells.
    """
    results: Dict[int, Any] = {}
    failures: Dict[int, FailedCell] = {}
    states = {i: _CellRun(i) for i in pending}
    queue: List[int] = list(pending)
    workers = max(1, min(jobs, len(pending)))
    inflight: Dict["Future[CellOutcome]", _Flight] = {}
    ex = _new_pool(workers)

    def conclude_failure(i: int, exc: BaseException) -> None:
        st = states[i]
        failed = FailedCell(
            index=i, label=cells[i].label, key=keys[i],
            error_type=type(exc).__name__, message=str(exc),
            attempts=st.submissions, elapsed=round(st.elapsed, 3), exc=exc)
        failures[i] = failed
        results[i] = failed
        if telemetry is not None:
            telemetry.failed(i, exc, st.submissions, st.elapsed)
        if progress is not None:
            progress.cell(cells[i], failed=True)

    def conclude_success(i: int, cell_elapsed: float, value: Any) -> None:
        states[i].elapsed += cell_elapsed
        results[i] = value
        if telemetry is not None:
            telemetry.completed(i, cell_elapsed)
        # Persist immediately: an interrupt later in the sweep must not
        # lose cells that already finished.
        if store is not None:
            store.put(keys[i], value)
        if progress is not None:
            progress.cell(cells[i], elapsed=cell_elapsed)

    def cell_failed(i: int, exc: BaseException) -> None:
        """One attempt raised (or timed out): retry or fail permanently."""
        st = states[i]
        st.failures += 1
        if st.failures > policy.retries:
            conclude_failure(i, exc)
            return
        backoff = policy.delay(st.failures)
        st.ready_at = time.monotonic() + backoff
        queue.append(i)
        if telemetry is not None:
            telemetry.retried(i, st.submissions, exc)
        if progress is not None:
            progress.retry(cells[i], st.submissions, exc, backoff)

    def cell_lost(i: int) -> None:
        """The pool broke while this cell was in flight."""
        st = states[i]
        st.losses += 1
        if telemetry is not None:
            telemetry.lost(i)
        if st.losses > policy.loss_budget:
            conclude_failure(i, WorkerError(
                f"worker pool broke {st.losses} times while cell "
                f"{cells[i].label} was in flight (worker killed or died?)"))
            return
        st.ready_at = 0.0
        queue.append(i)

    def settle(fut: "Future[CellOutcome]", flight: _Flight) -> bool:
        """Resolve one finished future; True when pool breakage was seen."""
        i = flight.index
        try:
            _, cell_elapsed, value = fut.result(timeout=60)
        except (BrokenProcessPool, FutureTimeoutError):
            cell_lost(i)
            return True
        except Exception as exc:  # the cell itself raised in the worker
            states[i].elapsed += max(
                0.0, time.monotonic() - flight.submitted_at)
            cell_failed(i, exc)
            return False
        conclude_success(i, cell_elapsed, value)
        return False

    clean_exit = False
    try:
        while queue or inflight:
            now = time.monotonic()
            queue.sort(key=lambda i: (states[i].ready_at, i))
            while (queue and len(inflight) < workers
                   and states[queue[0]].ready_at <= now):
                i = queue.pop(0)
                st = states[i]
                st.submissions += 1
                if telemetry is not None:
                    telemetry.started(i, st.submissions)
                fut = ex.submit(
                    execute, (i, keys[i], cells[i], st.submissions))
                deadline = (now + policy.cell_timeout
                            if policy.cell_timeout is not None else None)
                inflight[fut] = _Flight(i, now, deadline)

            if not inflight:
                # Everything runnable is backing off; sleep to the
                # earliest retry and loop.
                time.sleep(max(
                    0.0, states[queue[0]].ready_at - time.monotonic()))
                continue

            # Wake for the nearest deadline or backoff expiry; a plain
            # capacity wait blocks until the first completion.
            marks = [fl.deadline for fl in inflight.values()
                     if fl.deadline is not None]
            marks += [states[i].ready_at for i in queue
                      if states[i].ready_at > now]
            wait_for = (max(0.0, min(marks) - now) + 0.01) if marks else None
            done, _ = wait(list(inflight), timeout=wait_for,
                           return_when=FIRST_COMPLETED)

            broken = False
            for fut in done:
                broken = settle(fut, inflight.pop(fut)) or broken
            if broken:
                # The pool is unusable: every other in-flight future
                # fails with BrokenProcessPool almost immediately (or
                # already completed) — drain them, then respawn and let
                # the queue resubmit only the lost cells.
                for fut in list(inflight):
                    settle(fut, inflight.pop(fut))
                ex = _respawn(ex, workers)
                continue

            if policy.cell_timeout is None:
                continue
            now = time.monotonic()
            overdue = {fut for fut, fl in inflight.items()
                       if fl.deadline is not None and fl.deadline <= now
                       and not fut.done()}
            if not overdue:
                continue
            # Hung worker(s): settle whatever finished meanwhile, charge
            # the overdue cells a failed attempt, requeue the innocent
            # in-flight cells for free, and rebuild the pool.
            for fut in list(inflight):
                fl = inflight.pop(fut)
                i = fl.index
                if fut.done():
                    settle(fut, fl)
                elif fut in overdue:
                    states[i].elapsed += now - fl.submitted_at
                    cell_failed(i, CellTimeoutError(
                        f"cell {cells[i].label} exceeded its cell-timeout "
                        f"of {policy.cell_timeout:g}s on attempt "
                        f"{states[i].submissions}"))
                else:
                    states[i].ready_at = 0.0
                    queue.append(i)
            ex = _respawn(ex, workers)
        clean_exit = True
    finally:
        if not clean_exit:
            # Interrupted mid-sweep (possibly with hung workers): make
            # sure no worker outlives us.
            _kill_workers(ex)
        ex.shutdown(wait=True, cancel_futures=True)
    return results, failures
