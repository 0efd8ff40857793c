"""Queue-driven sweep execution: the coordinator and its workers.

Two halves of one protocol (see :mod:`repro.store.queue`):

* :func:`work_loop` — the worker side: claim items one at a time, run
  each cell through the same :func:`repro.runner.pool._execute` body as
  inline execution, persist the result and ack, or nack with the
  attempt's pickled exception.  ``python -m repro.runner.worker --store
  URL --queue NAME`` joins a published sweep from any process that can
  reach the store.
* :func:`run_queued` — the coordinator side, which
  :func:`repro.runner.run_cells` uses for every parallel or timed
  sweep: publish the pending cells (item id = cell index, so resume is
  stable), fork ``jobs`` local workers with the ``multiprocessing``
  default context (each opens an empty trace-reuse scope), and fold the
  queue's state into results, spans and progress as items finish.

The coordinator owns its forked workers, so it kills one whose cell
runs past ``cell_timeout`` (the item is nacked as
:class:`~repro.errors.CellTimeoutError`; the replacement is free),
releases the item of one that died at once instead of waiting out the
lease (a loss; the next hand-out is a new attempt; replacements come
out of a respawn budget), and wakes idle ones to exit as soon as the
last result is in.

Workers it does not own recover through leases: a heartbeat thread
renews the lease every ``renew_interval`` seconds (default
``lease / 3``) while a cell runs, so a live worker is never stolen
from; a dead one stops renewing, and another worker steals its item
after the lease expires, with the same attempt number.  Delivery is
at-least-once, which is safe: cells are deterministic and store puts
idempotent.

Every store/queue operation retries transient errors
(:mod:`repro.store.retry`); a permanent one (malformed database,
``ENOSPC``) aborts the worker with :data:`EXIT_STORE_PERMANENT`, and
the coordinator does not respawn into a broken store.
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import pickle
import shutil
import sqlite3
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from multiprocessing.connection import wait
from typing import (TYPE_CHECKING, Any, Dict, Iterator, List, Optional,
                    Sequence, Tuple)

from ..errors import CellTimeoutError, WorkerError
from ..store import ExperimentStore, open_store
from ..store.faults import maybe_faulty_store
from ..store.queue import ItemState, QueueItem, WorkQueue
from ..store.retry import (RetryingStore, RetryObserver, StoreRetryPolicy,
                           is_transient_store_error)
from ..trace.spec import trace_reuse, worker_trace_reuse
from .cells import Cell
from .pool import _execute
from .progress import Progress
from .resilience import FailedCell, RetryPolicy

if TYPE_CHECKING:
    from multiprocessing.synchronize import Event

    from ..obs.spans import RunTelemetry

__all__ = ["EXIT_STORE_PERMANENT", "work_loop", "run_queued", "main"]

#: Worker exit code for a permanent store failure (malformed database,
#: ``ENOSPC``, missing table) — distinct from a cell-induced crash so
#: the coordinator knows respawning cannot help.
EXIT_STORE_PERMANENT = 3


def _wrap_store(store: ExperimentStore, store_retries: int,
                on_retry: Optional[RetryObserver] = None) -> ExperimentStore:
    """The standard resilience stack around a freshly opened store.

    Fault injection (when the ``$REPRO_FAULTS`` plan has op entries)
    goes innermost so the retry layer sees — and absorbs — the injected
    transients, exactly as it would absorb real ones.  ``on_retry``
    observes each absorbed transient (tracing hangs ``store_retry``
    events off it).
    """
    return RetryingStore(maybe_faulty_store(store),
                         StoreRetryPolicy(retries=store_retries),
                         on_retry)


def _trace_event(name: str, det: bool = False, **fields: Any) -> None:
    """Forward a point event to the active trace span, if tracing is on.

    The ``$REPRO_TRACE`` guard keeps the tracing-off path at one dict
    lookup and zero imports — the zero-overhead contract of
    :mod:`repro.obs.trace`.
    """
    if os.environ.get("REPRO_TRACE"):
        from ..obs.trace import add_event

        add_event(name, det=det, **fields)


class _Heartbeat:
    """Background lease-renewal loop for one claimed queue item.

    Beats every ``interval`` seconds until stopped.  A renewal that
    *fails* transiently (the retry stack re-raises past its budget) is
    skipped — the next beat tries again, and the lease survives one
    missed beat because ``interval < lease``.  A renewal that is
    *refused* (the item was stolen; this worker no longer holds it)
    sets :attr:`lost` and stops beating — finishing the cell stays
    safe, delivery is at-least-once.
    """

    def __init__(self, queue: WorkQueue, item_id: int, worker: str,
                 lease: float, interval: float) -> None:
        self.queue = queue
        self.item_id = item_id
        self.worker = worker
        self.lease = lease
        self.interval = interval
        self.lost = threading.Event()
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, daemon=True,
            name=f"heartbeat-{worker}-{item_id}")

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                renewed = self.queue.renew(self.item_id, self.worker,
                                           self.lease)
            except Exception:
                # Renewal could not reach the store even after retries;
                # keep beating — the item may survive, and the cell's
                # outcome is protected by at-least-once delivery anyway.
                continue
            if not renewed:
                # Someone stole the lease: a schedule fact, not a
                # computation fact, hence det=False.
                _trace_event("lease_lost", worker=self.worker)
                self.lost.set()
                return
            _trace_event("lease_renew", worker=self.worker)


def _pickled(exc: BaseException) -> bytes:
    """``exc`` pickled for the coordinator to re-raise.

    An exception that does not survive a pickle round trip travels as a
    :class:`~repro.errors.WorkerError` naming its type and message.
    """
    try:
        blob = pickle.dumps(exc, protocol=pickle.HIGHEST_PROTOCOL)
        pickle.loads(blob)
        return blob
    except Exception:
        return pickle.dumps(WorkerError(f"{type(exc).__name__}: {exc}"),
                            protocol=pickle.HIGHEST_PROTOCOL)


def _unpickled(state: ItemState) -> BaseException:
    """The exception a failed item carries (see :func:`_pickled`), or a
    :class:`~repro.errors.WorkerError` from its type and message when it
    carries none (a lost lease, an older worker)."""
    if state.exception:
        try:
            exc = pickle.loads(state.exception)
        except Exception:
            exc = None
        if isinstance(exc, BaseException):
            return exc
    return WorkerError(f"{state.error_type or 'WorkerError'}: "
                       f"{state.message}")


# One drain is one sweep: its cells share traces, and the scope ends
# with the drain.
@trace_reuse()
def work_loop(store_url: str, queue_name: str = "sweep", *,
              lease: float = 60.0, poll: float = 0.2,
              max_items: Optional[int] = None,
              worker_id: Optional[str] = None,
              backoff_base: float = 0.05,
              backoff_cap: float = 2.0,
              renew_interval: Optional[float] = None,
              store_retries: int = 5,
              stop: Optional["Event"] = None) -> int:
    """Claim and execute queue items until the queue drains.

    Returns the number of items processed (successful or not).  The
    loop exits when every published item is ``done`` or ``failed``,
    after ``max_items`` claims (a test/ops hook: a worker stopped at
    ``--max-items K`` leaves a partially drained queue that the next
    worker — or a full rerun — picks up seamlessly), or once ``stop``
    is set (the coordinator has every result; an idle worker wakes from
    its poll at once).

    While a cell runs, a :class:`_Heartbeat` thread renews the lease
    every ``renew_interval`` seconds (``None`` = ``lease / 3``; ``0``
    disables renewal, restoring steal-on-slow behavior).  Transient
    store errors retry per ``store_retries``; a permanent one
    propagates out for :func:`main` to turn into
    :data:`EXIT_STORE_PERMANENT`.
    """
    interval = lease / 3.0 if renew_interval is None else renew_interval
    wid = worker_id or f"worker-{os.getpid()}"
    tracing = bool(os.environ.get("REPRO_TRACE"))
    on_retry: Optional[RetryObserver] = None
    if tracing:
        from ..obs.trace import (add_event, ambient_tracer, set_worker,
                                 span_id, wall_now)

        set_worker(wid)  # names this process's traces/<wid>.jsonl file

        def _store_retry(operation: str, exc: BaseException,
                         failures: int) -> None:
            add_event("store_retry", op=operation,
                      error=type(exc).__name__, n=failures)

        on_retry = _store_retry
    store = _wrap_store(open_store(store_url), store_retries, on_retry)
    queue = store.make_queue(queue_name)
    processed = 0
    try:
        while ((max_items is None or processed < max_items)
               and not (stop is not None and stop.is_set())):
            claim_t0 = wall_now() if tracing else None
            item = queue.claim(wid, lease)
            if item is None:
                if queue.unfinished() == 0:
                    break
                # Everything runnable is claimed by someone else (or
                # backing off); poll until a lease frees or expires.
                if stop is None:
                    time.sleep(poll)
                else:
                    stop.wait(poll)
                continue
            loaded = pickle.loads(item.payload)
            index, key, cell = loaded[:3]
            # Coordinators with tracing on publish a 4th element: the
            # trace context ({"trace", "parent"}); plain 3-tuples from
            # untraced (or older) coordinators still work everywhere.
            ctx = loaded[3] if len(loaded) > 3 else None
            attempt = item.attempts + 1
            processed += 1
            tracer = (ambient_tracer(ctx.get("trace"))
                      if tracing and ctx else None)
            exec_ctx: Optional[Dict[str, Any]] = None
            if tracer is not None:
                # The claim span covers queue.claim itself (claim_t0 ..
                # now); a re-claim of a stolen item carries the same
                # attempt number, so its span ID — and the stitched
                # tree — deduplicate instead of forking.
                claim = tracer.span("claim", cell.label, key=key,
                                    attempt=attempt,
                                    parent=ctx.get("parent"),
                                    start=claim_t0)
                if item.stolen:
                    claim.event("steal", worker=wid)
                claim.end()
                # Derived from the pure ID function (== claim.span), so
                # the context provably carries no wall-clock taint.
                exec_ctx = {"trace": tracer.trace_id,
                            "parent": span_id(tracer.trace_id, "claim",
                                              key, attempt)}
            beat: Optional[_Heartbeat] = None
            if interval > 0:
                beat = _Heartbeat(queue, item.item_id, wid, lease, interval)
                beat.start()
            try:
                _, elapsed, value = _execute(
                    (index, key, cell, attempt, exec_ctx))
            except Exception as exc:
                if beat is not None:
                    beat.stop()
                blob = _pickled(exc)
                if tracer is not None and exec_ctx is not None:
                    with tracer.span("nack", cell.label, key=key,
                                     attempt=attempt,
                                     parent=exec_ctx["parent"]) as nspan:
                        nspan.status = "error"
                        nspan.event("error", det=True,
                                    error=type(exc).__name__)
                        retry = queue.nack(item.item_id, type(exc).__name__,
                                           str(exc), blob)
                        nspan.event(
                            "retry_scheduled" if retry
                            else "attempts_exhausted", det=True)
                else:
                    retry = queue.nack(item.item_id, type(exc).__name__,
                                       str(exc), blob)
                if retry:
                    # Same deterministic capped backoff as inline.
                    time.sleep(min(backoff_cap,
                                   backoff_base * 2 ** item.attempts))
                continue
            finally:
                if beat is not None:
                    beat.stop()
            # Persist and ack even when the lease was stolen mid-cell:
            # the put is idempotent (deterministic cells, same bytes)
            # and an ack of an already-reassigned item merely marks it
            # done — exactly the at-least-once contract.
            if tracer is not None and exec_ctx is not None:
                with tracer.span("ack", cell.label, key=key,
                                 attempt=attempt,
                                 parent=exec_ctx["parent"]):
                    store.put(key, value)
                    queue.ack(item.item_id, elapsed)
            else:
                store.put(key, value)
                queue.ack(item.item_id, elapsed)
    finally:
        store.close()
        if tracing:
            from ..obs.trace import close_ambient_writers

            close_ambient_writers()
    return processed


def _drain(store_url: str, queue_name: str, wid: str,
           **options: Any) -> int:
    """Run :func:`work_loop` as worker ``wid``; return its exit code.

    A store error escaping the loop survived the transient-retry budget
    (or was permanent outright): this worker cannot make progress
    against this store, so it exits :data:`EXIT_STORE_PERMANENT`.
    """
    try:
        processed = work_loop(store_url, queue_name, worker_id=wid,
                              **options)
    except (sqlite3.Error, OSError) as exc:
        flavor = ("transient, retry budget exhausted"
                  if is_transient_store_error(exc) else "permanent")
        print(f"[{wid}] store failure ({flavor}): "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_STORE_PERMANENT
    print(f"[{wid}] processed {processed} queue item(s)", file=sys.stderr)
    return 0


def _local_worker(store_url: str, queue_name: str, wid: str,
                  options: Dict[str, Any]) -> None:
    """A forked worker: an empty trace-reuse scope, then one drain."""
    worker_trace_reuse()
    sys.exit(_drain(store_url, queue_name, wid, **options))


class _Fleet:
    """The coordinator's forked workers, by worker ID.

    ``budget`` bounds how many dead workers are replaced; a worker the
    coordinator killed itself is replaced for free.  :attr:`stop` wakes
    idle workers to exit.
    """

    def __init__(self, store_url: str, queue_name: str,
                 options: Dict[str, Any], budget: int) -> None:
        # The default start method (fork on Linux): workers inherit the
        # coordinator's modules, and whatever was installed in them,
        # without paying an interpreter start-up per worker.
        self._ctx = multiprocessing.get_context()
        self.stop = self._ctx.Event()
        self._args = (store_url, queue_name, dict(options, stop=self.stop))
        self.procs: Dict[str, Any] = {}
        self.ids: List[str] = []  # every worker ever started
        self.budget = budget

    def start(self, *, free: bool = True) -> None:
        if not free:
            if self.budget <= 0:
                return
            self.budget -= 1
        wid = f"worker-{len(self.ids) + 1}-{os.getpid()}"
        store_url, queue_name, options = self._args
        proc = self._ctx.Process(target=_local_worker, name=wid,
                                 args=(store_url, queue_name, wid, options))
        proc.start()
        self.procs[wid] = proc
        self.ids.append(wid)

    def reap(self) -> List[Tuple[str, int]]:
        """Forget exited workers; their ``(worker ID, exit code)``."""
        exited = [(wid, proc.exitcode) for wid, proc in self.procs.items()
                  if proc.exitcode is not None]
        for wid, _ in exited:
            self.procs.pop(wid).join()
        return exited

    def kill(self, wid: str) -> None:
        proc = self.procs.pop(wid)
        proc.kill()
        proc.join()

    def shutdown(self, grace: float = 10.0) -> None:
        """Stop every worker: idle ones at once, busy ones after their
        cell, stragglers past ``grace`` seconds by force."""
        self.stop.set()
        deadline = time.monotonic() + grace
        for wid in list(self.procs):
            self.procs[wid].join(max(0.1, deadline - time.monotonic()))
            self.kill(wid)


@contextmanager
def sweep_store(store: Optional[ExperimentStore]
                ) -> Iterator[ExperimentStore]:
    """``store``, or for a sweep without one a throwaway ``sqlite:``
    store that holds the queue and hands results back."""
    if store is not None:
        yield store
        return
    scratch = tempfile.mkdtemp(prefix="repro-sweep-")
    store = open_store(f"sqlite:{os.path.join(scratch, 'queue.db')}")
    try:
        yield store
    finally:
        store.close()
        shutil.rmtree(scratch, ignore_errors=True)


def run_queued(cells: Sequence[Cell], keys: Sequence[str],
               pending: Sequence[int], *, store: ExperimentStore,
               policy: RetryPolicy, workers: int,
               queue_name: str = "sweep", lease: float = 60.0,
               poll: float = 0.1, progress: Optional[Progress] = None,
               telemetry: Optional["RunTelemetry"] = None,
               renew_interval: Optional[float] = None,
               store_retries: int = 5, queue_gauges: bool = True,
               ) -> Dict[int, Any]:
    """Coordinator: drive ``pending`` cell indices through the queue.

    Forks ``workers`` local workers (at most one per pending cell) and
    returns every pending index's value or :class:`FailedCell`;
    raising on failures is the caller's decision.
    Spans, retry lines and failures match inline execution: the queue's
    error history replays every failed attempt, however many
    transitions one poll spans.  ``queue_gauges`` mirrors the queue's
    renewal and steal counts (schedule facts) into ``telemetry``; the
    runner asks for them only for a queue in the user's own store.
    """
    # The coordinator's own store traffic (publish, snapshots, result
    # collection) gets the same fault-injection + retry stack the
    # workers build for themselves; ``store.url`` still resolves to the
    # raw backend through the proxies.
    store = _wrap_store(store, store_retries)
    queue = store.make_queue(queue_name)

    def _payload(i: int) -> bytes:
        # With tracing on, items carry their trace context so a worker
        # on any machine can parent its spans without the coordinator.
        # Untraced payloads keep the historical 3-tuple shape.
        ctx = telemetry.trace_context(i) if telemetry is not None else None
        body: Tuple[Any, ...] = ((i, keys[i], cells[i], ctx) if ctx
                                 else (i, keys[i], cells[i]))
        return pickle.dumps(body, protocol=pickle.HIGHEST_PROTOCOL)

    queue.publish([
        QueueItem(item_id=i, key=keys[i], label=cells[i].label,
                  payload=_payload(i), max_attempts=policy.retries + 1)
        for i in pending])
    # A rerun after failures retries exactly the failed cells, matching
    # the failure-manifest contract of inline execution.
    queue.requeue_failed()
    # The store, not the queue, is the durability source of truth:
    # every index in ``pending`` is already known missing from the
    # store, so an item still marked ``done`` from an earlier run
    # (results purged, or quarantined as corrupt) is stale and must be
    # re-executed rather than trusted.
    states = queue.snapshot()
    queue.reset_items([i for i in pending
                       if i in states and states[i].status == "done"])

    results: Dict[int, Any] = {}
    replayed = dict.fromkeys(pending, 0)  # error-history entries folded
    losses = dict.fromkeys(pending, 0)
    claimed_at: Dict[Tuple[int, str, int], float] = {}
    nworkers = max(1, min(workers, len(pending)))
    fleet = _Fleet(store.url, queue_name, {
        "lease": lease, "backoff_base": policy.backoff_base,
        "backoff_cap": policy.backoff_cap, "renew_interval": renew_interval,
        "store_retries": store_retries},
        budget=nworkers * (policy.loss_budget + 1))

    def fold(states: Dict[int, ItemState]) -> None:
        """Fold the queue's state into results, spans and progress."""
        now = time.monotonic()
        for i in pending:
            state = states.get(i)
            if i in results or state is None:
                continue
            # An item that spent its attempts ends on a nack: its last
            # history entry is the terminal error, not a retry.
            nacked = (state.status == "failed"
                      and len(state.errors) > policy.retries)
            retried = len(state.errors) - nacked
            for n in range(replayed[i], retried):
                attempt, error_type, message = state.errors[n]
                if telemetry is not None:
                    telemetry.retried(i, attempt, error_type)
                if progress is not None:
                    progress.retry(cells[i], attempt, error_type, message,
                                   policy.delay(n + 1))
            replayed[i] = max(replayed[i], retried)
            if telemetry is not None:
                for _ in range(state.losses - losses[i]):
                    telemetry.lost(i)
                if state.status in ("claimed", "done"):
                    telemetry.started(i, state.attempts + 1)
            losses[i] = max(losses[i], state.losses)
            if state.status == "claimed":
                claimed_at.setdefault((i, state.worker, state.attempts), now)
            elif state.status == "done":
                hit, value = store.get(keys[i])
                if not hit:
                    # Acked but unreadable (store corrupted between ack
                    # and collect): surface it as a failure.
                    fail(i, WorkerError(
                        f"queue marked {cells[i].label} done but its "
                        f"result is missing from {store.url}"),
                        state.attempts + 1)
                    continue
                results[i] = value
                if telemetry is not None:
                    telemetry.completed(i, state.elapsed)
                if progress is not None:
                    progress.cell(cells[i], elapsed=state.elapsed)
            elif state.status == "failed":
                fail(i, _unpickled(state), max(state.attempts, 1),
                     state.error_type, state.message, lost=not nacked)

    def fail(i: int, exc: BaseException, attempts: int,
             error_type: str = "WorkerError", message: str = "",
             lost: bool = True) -> None:
        message = message or str(exc)
        failed = results[i] = FailedCell(
            index=i, label=cells[i].label, key=keys[i],
            error_type=error_type or "WorkerError", message=message,
            attempts=attempts, elapsed=0.0, exc=exc)
        if telemetry is not None:
            telemetry.failed(i, exc, attempts, 0.0)
            if lost:
                # No worker nacked the final attempt, so no worker-side
                # terminal span exists: the coordinator writes ``lost``.
                telemetry.trace_lost(i, failed.error_type, attempts)
        if progress is not None:
            progress.cell(cells[i], failed=True)

    def time_out(states: Dict[int, ItemState], timeout: float) -> None:
        """Kill workers whose cell is past ``timeout``; nack the cell."""
        now = time.monotonic()
        for i in pending:
            state = states.get(i)
            if (i in results or state is None or state.status != "claimed"
                    or state.worker not in fleet.procs
                    or now - claimed_at[(i, state.worker, state.attempts)]
                    < timeout):
                continue
            fleet.kill(state.worker)
            fleet.start()
            current = queue.snapshot().get(i)
            if current is not None and current.worker == state.worker:
                exc = CellTimeoutError(
                    f"cell {cells[i].label} exceeded its cell-timeout of "
                    f"{timeout:g}s on attempt {state.attempts + 1}")
                retry = queue.nack(i, type(exc).__name__, str(exc),
                                   _pickled(exc))
                if telemetry is not None:
                    telemetry.trace_abandoned(
                        i, state.attempts + 1, type(exc).__name__,
                        "retry_scheduled" if retry
                        else "attempts_exhausted")

    def release(dead: Sequence[str]) -> None:
        """Hand back at once every item a dead worker held."""
        for i, state in queue.snapshot().items():
            if state.status == "claimed" and state.worker in dead:
                exc = WorkerError(
                    f"worker pool broke {policy.loss_budget + 1} times "
                    f"while cell {cells[i].label} was in flight (worker "
                    f"killed or died?)")
                retry = queue.release(i, state.worker, "WorkerError",
                                      str(exc), _pickled(exc))
                if telemetry is not None:
                    # Past the loss budget, fold() writes the ``lost``
                    # terminal; otherwise the next attempt follows a nack.
                    telemetry.trace_abandoned(
                        i, state.attempts + 1, "WorkerError",
                        "retry_scheduled" if retry else None)

    permanent_exits = 0
    try:
        for _ in range(nworkers):
            fleet.start()
        while True:
            states = queue.snapshot()
            fold(states)
            if len(results) == len(pending):
                break
            if policy.cell_timeout is not None:
                time_out(states, policy.cell_timeout)
            # A dead worker is replaced out of the respawn budget; one
            # that exited on a permanent store error is not — a broken
            # store will not heal with a fresh process.
            dead = []
            for wid, code in fleet.reap():
                if code == EXIT_STORE_PERMANENT:
                    permanent_exits += 1
                elif code != 0:
                    dead.append(wid)
                    fleet.start(free=False)
            if dead:
                release(dead)
            elif not fleet.procs:
                # Workers exit cleanly only once the queue has drained:
                # one more look, then fail whatever is left.
                fold(queue.snapshot())
                reason = (
                    f"queue workers aborted on permanent store errors "
                    f"({permanent_exits} worker(s); see worker stderr)"
                    if permanent_exits else
                    "queue workers exhausted their respawn budget "
                    "before the cell finished")
                states = queue.snapshot()
                for i in pending:
                    if i not in results:
                        attempts = states[i].attempts if i in states else 0
                        fail(i, WorkerError(f"WorkerError: {reason}"),
                             attempts or 1, message=reason)
                break
            else:
                wait([proc.sentinel for proc in fleet.procs.values()],
                     poll)
        if telemetry is not None and queue_gauges:
            final = queue.snapshot()
            telemetry.queue_stats(
                queue_name,
                renewals=sum(s.renewals for s in final.values()),
                steals=sum(s.losses for s in final.values()))
    finally:
        fleet.shutdown()
        if len(results) < len(pending):
            # Interrupted: the workers are gone, so hand back what they
            # still held rather than make the rerun wait out their
            # leases.  Best effort — the interruption is what to report.
            try:
                queue.reset_items([
                    i for i, state in queue.snapshot().items()
                    if state.status == "claimed"
                    and state.worker in fleet.ids])
            except (sqlite3.Error, OSError):
                pass
    return results


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI: drain a store's work queue in this process."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.runner.worker",
        description="Claim and execute experiment sweep cells from a "
                    "store's work queue (see repro.store.queue).")
    parser.add_argument("--store", required=True, metavar="URL",
                        help="experiment store URL (local:PATH or "
                             "sqlite:PATH) holding the queue and results")
    parser.add_argument("--queue", default="sweep", metavar="NAME",
                        help="queue name within the store "
                             "(default: sweep)")
    parser.add_argument("--lease", type=float, default=60.0, metavar="SEC",
                        help="claim lease; a worker silent past this is "
                             "presumed dead and its item is stolen "
                             "(default: 60)")
    parser.add_argument("--poll", type=float, default=0.2, metavar="SEC",
                        help="idle poll interval while other workers "
                             "hold the remaining items (default: 0.2)")
    parser.add_argument("--max-items", type=int, default=None, metavar="N",
                        help="exit after processing N items (default: "
                             "run until the queue drains)")
    parser.add_argument("--worker-id", default=None, metavar="ID",
                        help="claim identity (default: worker-<pid>)")
    parser.add_argument("--renew-interval", type=float, default=None,
                        metavar="SEC",
                        help="lease-renewal heartbeat period while a cell "
                             "runs (default: lease/3; 0 disables renewal "
                             "and restores steal-on-slow behavior)")
    parser.add_argument("--store-retries", type=int, default=5, metavar="N",
                        help="bounded retries for transient store errors "
                             "(locked database, EAGAIN); permanent errors "
                             f"exit {EXIT_STORE_PERMANENT} immediately "
                             "(default: 5)")
    parser.add_argument("--backoff-base", type=float, default=0.05)
    parser.add_argument("--backoff-cap", type=float, default=2.0)
    args = parser.parse_args(argv)
    return _drain(
        args.store, args.queue, args.worker_id or f"worker-{os.getpid()}",
        lease=args.lease, poll=args.poll, max_items=args.max_items,
        backoff_base=args.backoff_base, backoff_cap=args.backoff_cap,
        renew_interval=args.renew_interval,
        store_retries=args.store_retries)


if __name__ == "__main__":
    sys.exit(main())
