"""Queue-driven sweep execution: independent worker processes.

Two halves of one protocol (see :mod:`repro.store.queue`):

* :func:`work_loop` — the worker side.  ``python -m repro.runner.worker
  --store sqlite:results.db`` opens the store, claims queue items one
  at a time, executes each cell through the same
  :func:`repro.runner.pool._execute` body as the in-process pool (same
  per-attempt RNG reseed, same fault injection, same telemetry
  environment), persists the result to the store and acks.  Any number
  of workers may run concurrently — on this machine or any machine
  that can reach the store.
* :func:`run_queued` — the coordinator side, called by
  :func:`repro.runner.run_cells` when ``queue_workers=N`` is set.  It
  publishes the pending cells as queue items (one per cell index, so
  resume is stable), spawns ``N`` worker subprocesses, collects
  results from the store as items complete, and maps queue failures
  onto the usual :class:`~repro.runner.FailedCell` sentinels — retry
  policies, failure manifests and ``keep_going`` semantics are
  identical to pool execution, and so is the output, byte for byte.

Crash recovery is the lease-renewal protocol of
:mod:`repro.store.queue`: while a claimed cell executes, a background
*heartbeat thread* renews the worker's lease every ``renew_interval``
seconds (default ``lease / 3``), so a **live** worker running a long
cell is never stolen from, no matter how slow the cell.  A worker that
**dies** mid-cell (crashed, killed, wedged) stops heartbeating; its
lease expires and another worker steals the item — charged against the
item's loss budget — while the coordinator respawns replacement workers
up to a budget.  Delivery is therefore at-least-once: a stall longer
than the heartbeat can still race a stealer, and both may execute the
same cell.  That is safe by construction — cells are deterministic
(per-attempt RNG reseed from the cell key) and store puts are
idempotent, so a double execution is invisible in the results.

Store resilience: every store/queue operation a worker makes goes
through :mod:`repro.store.retry` — transient errors (SQLite lock
contention, ``EAGAIN``-family ``OSError``) retry with bounded
deterministic backoff; a *permanent* store error (malformed database,
``ENOSPC``) aborts the worker with :data:`EXIT_STORE_PERMANENT`, which
the coordinator treats as "do not respawn" — a broken store will not
heal by throwing fresh processes at it.
"""

from __future__ import annotations

import argparse
import os
import pickle
import sqlite3
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from ..errors import WorkerError
from ..store import ExperimentStore, open_store
from ..store.faults import maybe_faulty_store
from ..store.queue import LOST_ERROR_TYPE, QueueItem, WorkQueue
from ..store.retry import (RetryingStore, RetryObserver, StoreRetryPolicy,
                           is_transient_store_error)
from ..trace.spec import trace_reuse
from .cells import Cell
from .pool import _execute
from .progress import Progress
from .resilience import FailedCell, RetryPolicy

if TYPE_CHECKING:
    from ..obs.spans import RunTelemetry

__all__ = ["EXIT_STORE_PERMANENT", "work_loop", "run_queued", "main"]

#: Worker exit code for a permanent store failure (malformed database,
#: ``ENOSPC``, missing table) — distinct from a cell-induced crash so
#: the coordinator knows respawning cannot help.
EXIT_STORE_PERMANENT = 3


def _wrap_store(store: ExperimentStore, store_retries: int,
                on_retry: Optional[RetryObserver] = None) -> ExperimentStore:
    """The standard resilience stack around a freshly opened store.

    Fault injection (when ``$REPRO_STORE_FAULTS`` is set) goes innermost
    so the retry layer sees — and absorbs — the injected transients,
    exactly as it would absorb real ones.  ``on_retry`` observes each
    absorbed transient (tracing hangs ``store_retry`` events off it).
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
              store_retries: int = 5) -> int:
    """Claim and execute queue items until the queue drains.

    Returns the number of items processed (successful or not).  The
    loop exits when every published item is ``done`` or ``failed``, or
    after ``max_items`` claims (a test/ops hook: a worker stopped at
    ``--max-items K`` leaves a partially drained queue that the next
    worker — or a full rerun — picks up seamlessly).

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
        while max_items is None or processed < max_items:
            claim_t0 = wall_now() if tracing else None
            item = queue.claim(wid, lease)
            if item is None:
                if queue.unfinished() == 0:
                    break
                # Everything runnable is claimed by someone else (or
                # backing off); poll until a lease frees or expires.
                time.sleep(poll)
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
                if tracer is not None and exec_ctx is not None:
                    with tracer.span("nack", cell.label, key=key,
                                     attempt=attempt,
                                     parent=exec_ctx["parent"]) as nspan:
                        nspan.status = "error"
                        nspan.event("error", det=True,
                                    error=type(exc).__name__)
                        retry = queue.nack(item.item_id,
                                           type(exc).__name__, str(exc))
                        nspan.event(
                            "retry_scheduled" if retry
                            else "attempts_exhausted", det=True)
                else:
                    retry = queue.nack(item.item_id, type(exc).__name__,
                                       str(exc))
                if retry:
                    # Same deterministic capped backoff as the pool.
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


def _spawn_worker(store: ExperimentStore, queue_name: str, lease: float,
                  policy: RetryPolicy, ordinal: int,
                  renew_interval: Optional[float] = None,
                  store_retries: int = 5) -> "subprocess.Popen[bytes]":
    """Start one ``python -m repro.runner.worker`` subprocess.

    The environment is inherited wholesale, so fault plans
    (``REPRO_FAULTS``, ``REPRO_STORE_FAULTS``), telemetry
    (``REPRO_TELEMETRY``) and cache salts reach workers exactly as they
    reach pool workers; the package's own source tree is prepended to
    ``PYTHONPATH`` so workers resolve the same ``repro`` the
    coordinator runs.  ``store.url`` is always the *raw* backend URL
    (proxies delegate it), so each worker builds its own
    fault-injection/retry stack from the inherited environment.
    """
    env = dict(os.environ)
    src_root = str(Path(__file__).resolve().parents[2])
    env["PYTHONPATH"] = os.pathsep.join(
        [src_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, "-m", "repro.runner.worker",
           "--store", store.url, "--queue", queue_name,
           "--lease", repr(lease),
           "--backoff-base", repr(policy.backoff_base),
           "--backoff-cap", repr(policy.backoff_cap),
           "--store-retries", str(store_retries),
           "--worker-id", f"worker-{ordinal}-{os.getpid()}"]
    if renew_interval is not None:
        # Omitted = each worker derives lease / 3 itself.
        cmd += ["--renew-interval", repr(renew_interval)]
    return subprocess.Popen(cmd, env=env)


def run_queued(cells: Sequence[Cell], keys: Sequence[str],
               pending: Sequence[int], *, store: ExperimentStore,
               policy: RetryPolicy, workers: int,
               queue_name: str = "sweep", lease: float = 60.0,
               poll: float = 0.1, progress: Optional[Progress] = None,
               telemetry: Optional["RunTelemetry"] = None,
               renew_interval: Optional[float] = None,
               store_retries: int = 5,
               ) -> Tuple[Dict[int, Any], Dict[int, FailedCell]]:
    """Coordinator: drive ``pending`` cell indices through the queue.

    Returns ``(results, failures)`` with the same contract as
    :func:`repro.runner.resilience.run_pool` — every pending index maps
    to its value or its :class:`FailedCell`; raising on failures is the
    caller's policy decision.
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
    # the failure-manifest contract of pool execution.
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
    failures: Dict[int, FailedCell] = {}
    nworkers = max(1, min(workers, len(pending)))
    respawn_budget = nworkers * (policy.loss_budget + 1)
    permanent_exits = 0
    procs: List["subprocess.Popen[bytes]"] = [
        _spawn_worker(store, queue_name, lease, policy, n,
                      renew_interval, store_retries)
        for n in range(nworkers)]

    def collect() -> bool:
        """Fold finished queue items into results; True when all are in."""
        states = queue.snapshot()
        for i in pending:
            if i in results:
                continue
            state = states.get(i)
            if state is None:
                continue
            if state.status == "done":
                hit, value = store.get(keys[i])
                if not hit:
                    # Acked but unreadable (store corrupted between ack
                    # and collect): surface it as a failure.
                    _fail(i, "WorkerError",
                          f"queue marked {cells[i].label} done but its "
                          f"result is missing from {store.url}",
                          state.attempts or 1, state.elapsed)
                    continue
                results[i] = value
                if telemetry is not None:
                    telemetry.completed(i, state.elapsed)
                if progress is not None:
                    progress.cell(cells[i], elapsed=state.elapsed)
            elif state.status == "failed":
                _fail(i, state.error_type or "WorkerError", state.message,
                      max(state.attempts, 1), state.elapsed)
        return len(results) == len(pending)

    def _fail(i: int, error_type: str, message: str, attempts: int,
              elapsed: float) -> None:
        exc = WorkerError(f"{error_type}: {message}")
        failed = FailedCell(
            index=i, label=cells[i].label, key=keys[i],
            error_type=error_type, message=message, attempts=attempts,
            elapsed=round(elapsed, 3), exc=exc)
        failures[i] = failed
        results[i] = failed
        if telemetry is not None:
            telemetry.failed(i, exc, attempts, elapsed)
            if error_type in (LOST_ERROR_TYPE, "WorkerError"):
                # The worker died (or the fleet aborted) without
                # nacking, so no worker-side terminal span exists; the
                # coordinator writes a ``lost`` leaf instead.  Worker-
                # nacked failures already have their nack terminal.
                telemetry.trace_lost(i, error_type, attempts)
        if progress is not None:
            progress.cell(cells[i], failed=True)

    try:
        while not collect():
            # Reap dead workers; respawn while budget remains (a worker
            # killed by a cell exercises the lease-steal path, but with
            # one worker someone must still be alive to steal).  A
            # worker reporting EXIT_STORE_PERMANENT shrinks the fleet
            # instead: a broken store will not heal with a fresh
            # process, so burning respawn budget on it only loops.
            alive: List["subprocess.Popen[bytes]"] = []
            for p in procs:
                code = p.poll()
                if code is None:
                    alive.append(p)
                elif code == EXIT_STORE_PERMANENT:
                    permanent_exits += 1
                    nworkers = max(nworkers - 1, 0)
            procs = alive
            missing = nworkers - len(procs)
            while missing > 0 and respawn_budget > 0:
                procs.append(_spawn_worker(
                    store, queue_name, lease, policy, respawn_budget,
                    renew_interval, store_retries))
                respawn_budget -= 1
                missing -= 1
            if not procs:
                # No workers and no budget: fail whatever is unfinished
                # rather than waiting forever.
                reason = (
                    f"queue workers aborted on permanent store errors "
                    f"({permanent_exits} worker(s); see worker stderr)"
                    if permanent_exits and nworkers == 0 else
                    "queue workers exhausted their respawn budget "
                    "before the cell finished")
                states = queue.snapshot()
                for i in pending:
                    if i not in results:
                        state = states.get(i)
                        _fail(i, "WorkerError", reason,
                              (state.attempts if state else 0) or 1,
                              state.elapsed if state else 0.0)
                break
            time.sleep(poll)
        if telemetry is not None:
            final = queue.snapshot()
            telemetry.queue_stats(
                queue_name,
                renewals=sum(s.renewals for s in final.values()),
                steals=sum(s.losses for s in final.values()))
    finally:
        deadline = time.monotonic() + 10.0
        for proc in procs:
            # Workers exit on their own once the queue drains; give
            # them a moment, then insist.
            try:
                proc.wait(timeout=max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
    return results, failures


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
    wid = args.worker_id or f"worker-{os.getpid()}"
    try:
        processed = work_loop(
            args.store, args.queue, lease=args.lease, poll=args.poll,
            max_items=args.max_items, worker_id=args.worker_id,
            backoff_base=args.backoff_base, backoff_cap=args.backoff_cap,
            renew_interval=args.renew_interval,
            store_retries=args.store_retries)
    except (sqlite3.Error, OSError) as exc:
        # A store-layer error escaping work_loop already survived the
        # transient-retry budget (or was permanent outright): either
        # way this worker cannot make progress against this store.
        flavor = ("transient, retry budget exhausted"
                  if is_transient_store_error(exc) else "permanent")
        print(f"[{wid}] store failure ({flavor}): "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_STORE_PERMANENT
    print(f"[{wid}] processed {processed} queue item(s)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
