"""Deterministic fault injection: one plan for cells and the store.

None of the runner's fault tolerance (retries, timeouts, worker
recovery, quarantine — :mod:`repro.runner.resilience`) and none of the
fleet's storage resilience (transient-error retries in
:mod:`repro.store.retry`, lease renewal under latency, torn-write
quarantine, the coordinator's permanent-error handling) is testable
without failures on command.  A :class:`FaultPlan` injects them on a
*deterministic schedule* — never on wall-clock state — so a plan plus a
retry budget either always recovers or always fails, and a chaos run's
final stdout stays byte-identical to a fault-free run.

The plan travels through :data:`REPRO_FAULTS <FAULTS_ENV>` (inline
JSON, or ``@/path/to/plan.json``), which worker processes inherit, so
faults trigger identically whether a cell runs inline or in a queue
worker.  One document holds two kinds of entry.

**Cell-targeted** entries (``cell``: an exact ``Cell.label``) fire on
the listed 1-based ``attempts``:

``raise``
    Raise :class:`InjectedFaultError` in the executing process before
    the cell body runs (a transient cell exception).
``hang``
    Sleep ``seconds`` (default 30) before the cell body runs (pair with
    the runner's ``cell_timeout`` to exercise hung-cell recovery).
``kill``
    ``SIGKILL`` the executing process (a dead worker; inline it kills
    the parent, exactly as a real crash would).
``corrupt``
    Parent-side, before store hits are resolved: overwrite the cell's
    *existing* store entry with garbage bytes, exercising the
    checksum/quarantine path.  Ignores ``attempts``.

**Op-targeted** entries (``op``: one of :data:`FAULT_OPS`, ``*`` for
any) wrap the store and its work queues (:func:`maybe_faulty_store`).
Each counts the operations it matches and fires on every ``every``-th
one (capped by ``times``), or on a seeded pseudo-random ``rate``.
Every process replays the same schedule with its own counters.  The
raised exceptions are the *real* production types, so the
classification in :mod:`repro.store.retry` is exercised, not mocked:

``busy``
    ``sqlite3.OperationalError('database is locked [...]')`` — the
    transient contention error any concurrent SQLite writer can see.
``oserror``
    ``OSError(EAGAIN)`` — a momentarily overloaded disk.
``latency``
    Sleep ``seconds`` (default 0.05) before the operation proceeds (a
    slow disk; pair with a short ``--queue-lease`` to exercise
    heartbeat renewal).
``torn``
    On ``put`` only: write a *truncated* entry (the prefix of the real
    checksummed blob), then raise ``OSError(EIO)`` — a crash mid-write.
``fatal``
    ``sqlite3.DatabaseError('database disk image is malformed [...]')``
    — a *permanent* error; workers exit with
    :data:`repro.runner.worker.EXIT_STORE_PERMANENT`.

Plan JSON::

    {"faults": [
        {"cell": "fig3[0.6]", "kind": "raise", "attempts": [1]},
        {"cell": "fig3[0.8]", "kind": "corrupt"},
        {"op": "put", "kind": "busy", "every": 3, "times": 2},
        {"op": "get", "kind": "oserror", "rate": 0.2, "seed": 7}
    ]}
"""

from __future__ import annotations

import errno
import json
import os
import random
import signal
import sqlite3
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from .base import ExperimentStore, StoreProxy, encode_entry
from .queue import ItemState, QueueItem, WorkQueue, WorkQueueProxy

__all__ = [
    "CELL_FAULT_KINDS",
    "FAULTS_ENV",
    "FAULT_OPS",
    "OP_FAULT_KINDS",
    "Fault",
    "FaultInjector",
    "FaultPlan",
    "FaultyQueue",
    "FaultyStore",
    "InjectedFaultError",
    "active_plan",
    "corrupt_entries",
    "inject",
    "maybe_faulty_store",
]

#: Environment variable carrying the active plan (inline JSON or ``@path``).
FAULTS_ENV = "REPRO_FAULTS"

#: The retired store-only plan variable; setting it is an error.
_RETIRED_ENV = "REPRO_STORE_FAULTS"

#: Kinds of cell-targeted and op-targeted entries.
CELL_FAULT_KINDS = ("raise", "hang", "kill", "corrupt")
OP_FAULT_KINDS = ("busy", "oserror", "latency", "torn", "fatal")

#: Interceptable store/queue operations; ``*`` matches all of them.
FAULT_OPS = ("get", "put", "quarantine", "claim", "ack", "nack",
             "release", "renew", "publish", "snapshot", "*")

#: Per target (``cell`` or ``op``): the name errors use, the kinds,
#: the allowed fields, and the ``seconds`` / ``message`` defaults.
_WHAT = {"cell": "cell-fault", "op": "store-fault"}
_KINDS = {"cell": CELL_FAULT_KINDS, "op": OP_FAULT_KINDS}
_FIELDS = {
    "cell": frozenset({"cell", "kind", "attempts", "seconds", "message"}),
    "op": frozenset({"op", "kind", "every", "times", "rate", "seed",
                     "seconds", "message"}),
}
_DEFAULTS = {"cell": (30.0, "injected fault"),
             "op": (0.05, "injected store fault")}

#: What a ``corrupt`` fault writes over a store entry (fails the
#: checksum check by construction: no valid header).
_CORRUPT_BYTES = b"\x00injected corruption (repro.store.faults)\x00"


class InjectedFaultError(RuntimeError):
    """Raised by a ``raise`` fault.

    Deliberately *not* a :class:`~repro.errors.ReproError`: injected
    exceptions exercise the foreign-exception wrapping path, the one a
    genuine infrastructure failure would take.
    """


@dataclass(frozen=True)
class Fault:
    """One injected failure, aimed at a cell *or* a store operation.

    Exactly one of ``cell`` (a ``Cell.label``) and ``op`` (one of
    :data:`FAULT_OPS`) is set; ``kind`` comes from the matching
    :data:`CELL_FAULT_KINDS` or :data:`OP_FAULT_KINDS`.  Cell faults
    fire on the 1-based ``attempts``; op faults on every ``every``-th
    matching operation, at most ``times`` times, or with seeded
    probability ``rate``.  ``seconds`` is the sleep of a ``hang``
    (default 30) or ``latency`` (default 0.05); ``message`` is carried
    by the injected exception.
    """

    kind: str
    cell: Optional[str] = None
    op: Optional[str] = None
    attempts: Tuple[int, ...] = (1,)
    every: int = 1
    times: Optional[int] = None
    rate: Optional[float] = None
    seed: int = 0
    seconds: Optional[float] = None
    message: Optional[str] = None

    def __post_init__(self) -> None:
        if (self.cell is None) == (self.op is None):
            raise ConfigurationError(
                f"a fault targets exactly one of 'cell' or 'op', got "
                f"cell={self.cell!r}, op={self.op!r}")
        target = "cell" if self.cell is not None else "op"
        what = _WHAT[target]
        seconds, message = _DEFAULTS[target]
        if self.seconds is None:
            object.__setattr__(self, "seconds", seconds)
        if self.message is None:
            object.__setattr__(self, "message", message)
        if self.kind not in _KINDS[target]:
            raise ConfigurationError(
                f"unknown {what} kind {self.kind!r}; expected one of "
                f"{list(_KINDS[target])}")
        if self.seconds < 0:
            raise ConfigurationError(
                f"{what} seconds must be non-negative, got {self.seconds!r}")
        if target == "cell":
            if not self.attempts or any(a < 1 for a in self.attempts):
                raise ConfigurationError(
                    f"cell-fault attempts must be 1-based attempt "
                    f"numbers, got {self.attempts!r}")
            return
        if self.op not in FAULT_OPS:
            raise ConfigurationError(
                f"unknown store-fault op {self.op!r}; expected one of "
                f"{list(FAULT_OPS)}")
        if self.every < 1:
            raise ConfigurationError(
                f"store-fault every must be >= 1, got {self.every}")
        if self.times is not None and self.times < 0:
            raise ConfigurationError(
                f"store-fault times must be >= 0, got {self.times}")
        if self.rate is not None and not 0.0 < self.rate <= 1.0:
            raise ConfigurationError(
                f"store-fault rate must be in (0, 1], got {self.rate!r}")
        if self.kind == "torn" and self.op not in ("put", "*"):
            raise ConfigurationError(
                f"torn faults only apply to 'put', got op {self.op!r}")

    def triggers(self, label: str, attempt: int) -> bool:
        """Does this cell fault fire for ``label`` on ``attempt``?"""
        return self.cell == label and attempt in self.attempts

    def matches(self, op: str) -> bool:
        """Does this op fault intercept store operation ``op``?"""
        return self.op == "*" or (self.op is not None and self.op == op)

    def to_entry(self) -> Dict[str, Any]:
        """This fault as one entry of the plan document."""
        if self.cell is not None:
            return {"cell": self.cell, "kind": self.kind,
                    "attempts": list(self.attempts),
                    "seconds": self.seconds, "message": self.message}
        entry: Dict[str, Any] = {
            "op": self.op, "kind": self.kind, "every": self.every,
            "seconds": self.seconds, "seed": self.seed,
            "message": self.message}
        if self.times is not None:
            entry["times"] = self.times
        if self.rate is not None:
            entry["rate"] = self.rate
        return entry

    @classmethod
    def from_entry(cls, entry: Any) -> "Fault":
        """Parse one plan entry, failing loudly on malformed input."""
        if not isinstance(entry, dict):
            raise ConfigurationError(
                f"each fault must be an object, got {entry!r}")
        if "cell" in entry and "op" in entry:
            raise ConfigurationError(
                f"fault entry {entry!r} targets both a 'cell' and an "
                f"'op'; split it into two entries")
        if "cell" not in entry and "op" not in entry:
            raise ConfigurationError(
                f"fault entry {entry!r} is missing required field "
                f"'cell' or 'op'")
        target = "cell" if "cell" in entry else "op"
        what = _WHAT[target]
        unknown = sorted(set(entry) - _FIELDS[target])
        if unknown:
            raise ConfigurationError(
                f"unknown {what} fields {unknown}; expected a subset of "
                f"{sorted(_FIELDS[target])}")
        if "kind" not in entry:
            raise ConfigurationError(
                f"{what} entry is missing required field 'kind'")
        times, rate = entry.get("times"), entry.get("rate")
        seconds, message = entry.get("seconds"), entry.get("message")
        return cls(
            kind=str(entry["kind"]),
            cell=str(entry["cell"]) if target == "cell" else None,
            op=str(entry["op"]) if target == "op" else None,
            attempts=tuple(int(a) for a in entry.get("attempts", (1,))),
            every=int(entry.get("every", 1)),
            times=None if times is None else int(times),
            rate=None if rate is None else float(rate),
            seed=int(entry.get("seed", 0)),
            seconds=None if seconds is None else float(seconds),
            message=None if message is None else str(message))


@dataclass(frozen=True)
class FaultPlan:
    """An ordered collection of :class:`Fault`\\ s."""

    faults: Tuple[Fault, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.faults)

    def for_cell(self, label: str,
                 kind: Optional[str] = None) -> List[Fault]:
        """Faults aimed at ``label`` (optionally restricted to ``kind``)."""
        return [f for f in self.faults
                if f.cell == label and (kind is None or f.kind == kind)]

    def to_json(self) -> str:
        """Serialize to the ``REPRO_FAULTS`` JSON format."""
        return json.dumps({"faults": [f.to_entry() for f in self.faults]},
                          sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Parse a plan document, failing loudly on malformed input."""
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"fault plan is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict) or not isinstance(
                doc.get("faults", []), list):
            raise ConfigurationError(
                "fault plan must be an object with a 'faults' list")
        return cls(faults=tuple(
            Fault.from_entry(entry) for entry in doc.get("faults", [])))


#: The last ``(raw env value, plan)`` parsed by :func:`active_plan`.
_parsed: Tuple[str, Optional[FaultPlan]] = ("", None)


def active_plan() -> Optional[FaultPlan]:
    """The plan named by ``$REPRO_FAULTS``, or ``None`` when unset.

    ``@/path/to/plan.json`` loads from a file; anything else parses as
    inline JSON.  A value is parsed once and reused until it changes.
    Setting the retired store-only plan variable is an error, so a
    chaos script written for it cannot silently run fault-free.
    """
    global _parsed
    if os.environ.get(_RETIRED_ENV):
        raise ConfigurationError(
            f"${_RETIRED_ENV} is no longer read: put its op-targeted "
            f"entries in the ${FAULTS_ENV} plan")
    raw = os.environ.get(FAULTS_ENV)
    if not raw:
        return None
    if raw != _parsed[0]:
        text = raw
        if raw.startswith("@"):
            path = Path(raw[1:])
            try:
                text = path.read_text(encoding="utf-8")
            except OSError as exc:
                raise ConfigurationError(
                    f"cannot read fault plan file {path}: {exc}") from exc
        _parsed = (raw, FaultPlan.from_json(text))
    return _parsed[1]


# -- cell faults ---------------------------------------------------------


def inject(label: str, attempt: int) -> None:
    """Fire any execution-side cell faults aimed at ``label``/``attempt``.

    Called by the runner in the executing process (worker or inline)
    immediately before the cell body runs.  Without a plan this is one
    environment lookup.
    """
    if not os.environ.get(FAULTS_ENV):
        return
    plan = active_plan()
    for fault in plan.faults if plan is not None else ():
        if fault.kind == "corrupt" or not fault.triggers(label, attempt):
            continue
        if os.environ.get("REPRO_TRACE"):
            # Which fault fired where is a deterministic fact of the
            # plan, so the trace event survives canonical projection.
            from ..obs.trace import add_event

            add_event("fault", det=True, kind=fault.kind, cell=label,
                      attempt=attempt)
        if fault.kind == "raise":
            raise InjectedFaultError(
                f"{fault.message} (cell {label}, attempt {attempt})")
        if fault.kind == "hang":
            time.sleep(fault.seconds)
        elif fault.kind == "kill":
            os.kill(os.getpid(), getattr(signal, "SIGKILL", signal.SIGTERM))


def corrupt_entries(plan: FaultPlan, labels: Sequence[str],
                    keys: Sequence[str], store: ExperimentStore) -> int:
    """Apply the plan's ``corrupt`` faults to existing store entries.

    Parent-side, before store hits are resolved: each targeted cell's
    existing entry is overwritten with garbage (via
    :meth:`~repro.store.ExperimentStore.write_raw`, so it works on any
    backend) and the subsequent ``get`` exercises checksum detection
    and quarantine.  Returns the number of entries corrupted.
    """
    corrupted = 0
    for label, key in zip(labels, keys):
        if plan.for_cell(label, kind="corrupt") and key in store:
            store.write_raw(key, _CORRUPT_BYTES)
            corrupted += 1
    return corrupted


# -- op faults -----------------------------------------------------------


class FaultInjector:
    """Stateful schedule evaluator shared by a wrapped store + queues.

    Counts matching operations per fault and decides, deterministically,
    which faults fire on each call.  ``injected`` tallies fired faults
    by ``"op:kind"`` for tests and diagnostics.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.injected: Dict[str, int] = {}
        self._seen = [0] * len(plan.faults)
        self._fired = [0] * len(plan.faults)
        self._rngs = [random.Random(f.seed) for f in plan.faults]

    def fire(self, op: str) -> List[Fault]:
        """Faults firing on this occurrence of ``op``, in plan order."""
        fired: List[Fault] = []
        for i, fault in enumerate(self.plan.faults):
            if not fault.matches(op):
                continue
            self._seen[i] += 1
            if fault.times is not None and self._fired[i] >= fault.times:
                continue
            if fault.rate is not None:
                due = self._rngs[i].random() < fault.rate
            else:
                due = self._seen[i] % fault.every == 0
            if due:
                self._fired[i] += 1
                key = f"{op}:{fault.kind}"
                self.injected[key] = self.injected.get(key, 0) + 1
                fired.append(fault)
        return fired

    def raise_or_wait(self, op: str, fired: Sequence[Fault]) -> None:
        """Apply non-torn faults: sleep latencies, raise the first error."""
        for fault in fired:
            if fault.kind == "latency":
                time.sleep(fault.seconds)
        for fault in fired:
            if fault.kind == "busy":
                raise sqlite3.OperationalError(
                    f"database is locked [{fault.message}: {op}]")
            if fault.kind == "oserror":
                raise OSError(errno.EAGAIN,
                              f"{fault.message} [{op}]")
            if fault.kind == "fatal":
                raise sqlite3.DatabaseError(
                    f"database disk image is malformed "
                    f"[{fault.message}: {op}]")

    def inject(self, op: str) -> List[Fault]:
        """:meth:`fire` + :meth:`raise_or_wait`; returns torn faults."""
        fired = self.fire(op)
        torn = [f for f in fired if f.kind == "torn"]
        self.raise_or_wait(op, fired)
        return torn


class FaultyQueue(WorkQueueProxy):
    """A :class:`~repro.store.queue.WorkQueue` that injects faults."""

    def __init__(self, inner: WorkQueue, injector: FaultInjector) -> None:
        super().__init__(inner)
        self.injector = injector

    def publish(self, items: Sequence[QueueItem]) -> int:
        self.injector.inject("publish")
        return self.inner.publish(items)

    def claim(self, worker: str, lease: float) -> Optional[QueueItem]:
        self.injector.inject("claim")
        return self.inner.claim(worker, lease)

    def renew(self, item_id: int, worker: str, lease: float) -> bool:
        self.injector.inject("renew")
        return self.inner.renew(item_id, worker, lease)

    def ack(self, item_id: int, elapsed: float = 0.0) -> None:
        self.injector.inject("ack")
        self.inner.ack(item_id, elapsed)

    def nack(self, item_id: int, error_type: str, message: str,
             exception: bytes = b"") -> bool:
        self.injector.inject("nack")
        return self.inner.nack(item_id, error_type, message, exception)

    def release(self, item_id: int, worker: str, error_type: str,
                message: str, exception: bytes = b"") -> bool:
        self.injector.inject("release")
        return self.inner.release(item_id, worker, error_type, message,
                                  exception)

    def snapshot(self) -> Dict[int, ItemState]:
        self.injector.inject("snapshot")
        return self.inner.snapshot()


class FaultyStore(StoreProxy):
    """An :class:`~repro.store.ExperimentStore` that injects faults.

    Queues opened through :meth:`make_queue` share this store's
    injector, so one plan's counters cover the whole surface.
    """

    def __init__(self, inner: ExperimentStore, plan: FaultPlan) -> None:
        super().__init__(inner)
        self.injector = FaultInjector(plan)

    def get(self, key: str) -> Tuple[bool, Any]:
        self.injector.inject("get")
        return self.inner.get(key)

    def put(self, key: str, value: Any) -> None:
        torn = self.injector.inject("put")
        if torn:
            # A crash mid-write: persist a truncated prefix of the real
            # entry, then fail the call like the kernel would.
            blob = encode_entry(value)
            self.inner.write_raw(key, blob[:max(len(blob) // 2, 1)])
            raise OSError(errno.EIO, f"{torn[0].message} [torn put]")
        self.inner.put(key, value)

    def quarantine(self, key: str) -> Optional[str]:
        self.injector.inject("quarantine")
        return self.inner.quarantine(key)

    def make_queue(self, name: str) -> WorkQueue:
        return FaultyQueue(self.inner.make_queue(name), self.injector)


def maybe_faulty_store(store: ExperimentStore) -> ExperimentStore:
    """Wrap ``store`` when the active plan has op-targeted entries.

    The coordinator and every worker call this on the store they just
    opened, so each process counts its own operations; without op
    faults the store passes through untouched.
    """
    plan = active_plan()
    if plan is None or not any(f.op is not None for f in plan.faults):
        return store
    return FaultyStore(store, plan)
