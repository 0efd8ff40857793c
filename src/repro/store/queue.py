"""Claim/ack/requeue work queue over an experiment store.

The queue is how every parallel sweep fans out across processes: the
coordinator publishes one item per pending cell (the pickled cell rides
along as an opaque payload), its forked local workers — and any
``python -m repro.runner.worker`` joining from elsewhere — claim items,
execute them, persist results to the store and acknowledge; the
coordinator collects results from the store as items finish.

Protocol (mirrors the in-process retry policy of
:mod:`repro.runner.resilience`):

* **claim** — atomically take the lowest-id runnable item and hold a
  wall-clock *lease* on it.  An item whose lease expired is claimable
  again (its worker is presumed dead); each such steal charges the item
  a *loss*, and an item lost more than its loss budget times fails
  permanently — a poison cell cannot wedge the sweep.
* **renew** — extend a held lease from a worker heartbeat.  A live
  worker running a cell longer than its lease renews periodically and
  is never stolen from; only a worker that *stops* renewing (crashed,
  killed, wedged) loses its item.  Renewal is guarded by the holder's
  identity, so a stolen item cannot be revived by its old worker.
* **ack** — the item's result is safely in the store; mark it done.
* **nack** — the attempt raised; the item returns to ``pending`` until
  its ``max_attempts`` budget (retries + 1) is spent, then it is marked
  ``failed`` with the final error, exactly like a
  :class:`~repro.runner.resilience.FailedCell`.  Every nack appends to
  the item's error history and keeps the attempt's pickled exception,
  so a coordinator can replay retries and re-raise the cell's own error.
* **release** — the holder is *known* dead (its coordinator reaped the
  process): hand the item back at once instead of waiting out the
  lease.  Charged as a loss like a steal, but the dead attempt is over,
  so the next claim is a new attempt.

Delivery is **at-least-once**: a worker that stalls past its lease may
race a stealer, and both may execute the same cell.  That is safe by
construction — cells are deterministic (the runner reseeds per attempt
from the cell key), so both produce byte-identical results and the
store's atomic put makes the double write invisible.

Publishing is idempotent and resumable: items are keyed by cell index,
a queue remembers the fingerprint of the cell-key list it was built
for, and re-publishing the same sweep preserves ``done`` states (the
resume path) while a *different* sweep under the same name resets the
queue wholesale.

Wall-clock note: leases deliberately use ``time.time`` — monotonic
clocks are per-process and leases must be comparable *across* worker
processes.  Lease timing schedules work; it never feeds results or
cache keys (reprolint DET002 sanctions this file for exactly that
reason).
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import pickle
import shutil
import sqlite3
import tempfile
import time
from abc import ABC, abstractmethod
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import (TYPE_CHECKING, Any, Dict, List, Optional, Sequence,
                    Tuple)

if TYPE_CHECKING:  # runtime-free: retry/faults import this module
    from .sqlite import SQLiteStore

__all__ = [
    "ItemState",
    "QueueItem",
    "WorkQueue",
    "WorkQueueProxy",
    "LocalWorkQueue",
    "SQLiteWorkQueue",
    "sweep_fingerprint",
]

#: Item lifecycle states.
STATUSES = ("pending", "claimed", "done", "failed")

#: Error type recorded when an item exhausts its loss budget (workers
#: kept dying while holding its lease).
LOST_ERROR_TYPE = "WorkerLost"


@dataclass(frozen=True)
class QueueItem:
    """One published unit of work: a pending sweep cell.

    ``item_id`` is the cell's index within the sweep (stable across
    runs of the same config — that is what makes resume work);
    ``payload`` is the pickled :class:`~repro.runner.cells.Cell`,
    opaque to the queue.  ``stolen`` is stamped by :meth:`claim` when
    this claim took the item from an expired lease — observability
    only (trace events, dashboards), never part of queue identity, and
    always ``False`` on rows returned by :meth:`publish`/``peek``.
    """

    item_id: int
    key: str
    label: str
    payload: bytes
    attempts: int = 0
    max_attempts: int = 1
    stolen: bool = False

    @property
    def loss_budget(self) -> int:
        """How many lost holders this item survives (cf.
        :attr:`repro.runner.resilience.RetryPolicy.loss_budget`)."""
        return _loss_budget(self.max_attempts)


def _loss_budget(max_attempts: int) -> int:
    return max(max_attempts - 1, 1)


@dataclass
class ItemState:
    """Mutable status of one published item (payload excluded).

    ``worker`` / ``lease_expires`` identify the current claim holder
    (empty / ``0.0`` outside ``claimed``); ``losses`` counts lease
    steals and releases, ``renewals`` heartbeat renewals — together they
    tell a live long cell (renewals, no losses) from a dead worker
    (losses).  ``attempts`` counts the attempts that ended without a
    result (nacked or released), so the next claim runs attempt
    ``attempts + 1``; ``errors`` holds ``(attempt, error_type,
    message)`` for each nacked attempt, oldest first, and ``exception``
    the last nack's pickled exception (``b""`` when it had none).
    """

    status: str = "pending"
    attempts: int = 0
    losses: int = 0
    renewals: int = 0
    error_type: str = ""
    message: str = ""
    elapsed: float = 0.0
    worker: str = ""
    lease_expires: float = 0.0
    errors: List[Tuple[int, str, str]] = field(default_factory=list)
    exception: bytes = b""


def sweep_fingerprint(items: Sequence[QueueItem]) -> str:
    """Identity of a published sweep: its ordered (index, key) pairs.

    A queue whose stored fingerprint differs was built for a different
    sweep (changed config, changed code) and is reset on publish.
    """
    blob = json.dumps([[item.item_id, item.key] for item in
                       sorted(items, key=lambda it: it.item_id)],
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class WorkQueue(ABC):
    """Abstract claim/ack/requeue queue; one instance per sweep name."""

    @abstractmethod
    def publish(self, items: Sequence[QueueItem]) -> int:
        """Idempotently enqueue ``items``; returns how many were new.

        Items already present (same id, same sweep fingerprint) keep
        their state — that is the resume path.  A fingerprint mismatch
        resets the queue before enqueueing.
        """

    @abstractmethod
    def claim(self, worker: str, lease: float) -> Optional[QueueItem]:
        """Atomically claim the lowest-id runnable item, or ``None``.

        Runnable means ``pending``, or ``claimed`` with an expired
        lease (charged as a loss; over-budget items fail instead).
        """

    @abstractmethod
    def renew(self, item_id: int, worker: str, lease: float) -> bool:
        """Extend ``worker``'s lease on ``item_id`` by ``lease`` seconds.

        The heartbeat operation: succeeds (``True``) only while the
        item is still ``claimed`` *by this worker* — after a steal the
        old holder's renewals return ``False`` and it must abandon the
        item's bookkeeping (finishing the cell itself stays safe:
        delivery is at-least-once and results are idempotent puts).
        A renewal past expiry but before any steal revives the lease —
        the worker is demonstrably alive, just late.
        """

    @abstractmethod
    def ack(self, item_id: int, elapsed: float = 0.0) -> None:
        """Mark ``item_id`` done (its result is in the store)."""

    @abstractmethod
    def nack(self, item_id: int, error_type: str, message: str,
             exception: bytes = b"") -> bool:
        """Record a failed attempt; ``True`` when the item re-queued,
        ``False`` when its attempt budget is spent (now ``failed``).

        ``exception`` is the attempt's pickled exception, kept so the
        coordinator can surface the cell's own error.
        """

    @abstractmethod
    def release(self, item_id: int, worker: str, error_type: str,
                message: str, exception: bytes = b"") -> bool:
        """Hand back ``worker``'s claim on ``item_id``: its holder died.

        Charged as a loss; the next claim is a new attempt.  ``True``
        when the item re-queued; ``False`` when ``worker`` no longer
        holds it, or when the loss spent the item's loss budget — it is
        then ``failed`` with the given error.
        """

    @abstractmethod
    def requeue_failed(self) -> int:
        """Reset every ``failed`` item to a fresh ``pending`` state.

        The queue analogue of rerunning a ``keep_going`` sweep after a
        failure manifest: only the failed cells execute again (done
        items keep their results).  Returns how many were reset.
        """

    @abstractmethod
    def reset_items(self, item_ids: Sequence[int]) -> int:
        """Reset the given published items to a fresh ``pending`` state.

        The store, not the queue, is the durability source of truth:
        the coordinator uses this to re-run items still marked ``done``
        whose results have vanished from the store (purged, or
        quarantined as corrupt).  Unknown ids are ignored; returns how
        many items were reset.
        """

    @abstractmethod
    def snapshot(self) -> Dict[int, ItemState]:
        """Current state of every published item, by id."""

    @abstractmethod
    def peek(self, item_id: int) -> Optional[QueueItem]:
        """The published item (payload included) without claiming it.

        Inspection hook for the status CLI (``python -m repro.store``);
        ``None`` for unknown ids.
        """

    @abstractmethod
    def clear(self) -> None:
        """Drop the queue's items and metadata entirely."""

    def counts(self) -> Dict[str, int]:
        """Item counts by status (every status always present)."""
        out = {status: 0 for status in STATUSES}
        for state in self.snapshot().values():
            out[state.status] = out.get(state.status, 0) + 1
        return out

    def unfinished(self) -> int:
        """Items not yet ``done`` or ``failed``."""
        counts = self.counts()
        return counts["pending"] + counts["claimed"]


#: Column assignments that return a row to a fresh ``pending`` state —
#: everything cleared, the stale worker/lease of the last holder too.
_FRESH = ("status = 'pending', attempts = 0, losses = 0, renewals = 0, "
          "error_type = '', message = '', elapsed = 0, worker = '', "
          "lease_expires = 0, errors = '[]', exception = x''")


def _history(rows: Sequence[Sequence[Any]]) -> List[Tuple[int, str, str]]:
    """Decoded error history: JSON arrays back to typed tuples."""
    return [(int(a), str(t), str(m)) for a, t, m in rows]


class SQLiteWorkQueue(WorkQueue):
    """Queue rows in the store's own database (``work_queue`` table).

    Claims run inside ``BEGIN IMMEDIATE`` transactions, so concurrent
    workers on one database file serialize through SQLite's write lock;
    the store's WAL mode keeps readers unblocked meanwhile.
    """

    def __init__(self, store: "SQLiteStore", name: str) -> None:
        self.store = store
        self.name = name

    def _fingerprint(self) -> Optional[str]:
        rows = self.store.query(
            "SELECT fingerprint FROM queue_meta WHERE queue = ?",
            (self.name,))
        return rows[0][0] if rows else None

    def publish(self, items: Sequence[QueueItem]) -> int:
        fingerprint = sweep_fingerprint(items)
        stored = self._fingerprint()
        if stored is not None and stored != fingerprint:
            self.clear()
        statements: List[Tuple[str, Tuple[Any, ...]]] = [
            ("INSERT OR REPLACE INTO queue_meta (queue, fingerprint) "
             "VALUES (?, ?)", (self.name, fingerprint))]
        statements += [
            ("INSERT OR IGNORE INTO work_queue "
             "(queue, item_id, key, label, payload, max_attempts) "
             "VALUES (?, ?, ?, ?, ?, ?)",
             (self.name, item.item_id, item.key, item.label,
              sqlite3.Binary(item.payload), item.max_attempts))
            for item in items]
        before = self._count_items()
        self.store.transaction(statements)
        return self._count_items() - before

    def _count_items(self) -> int:
        return int(self.store.query(
            "SELECT COUNT(*) FROM work_queue WHERE queue = ?",
            (self.name,))[0][0])

    def claim(self, worker: str, lease: float) -> Optional[QueueItem]:
        while True:
            now = time.time()
            with self.store.locked() as conn:
                conn.execute("BEGIN IMMEDIATE")
                try:
                    row = conn.execute(
                        "SELECT item_id, key, label, payload, attempts, "
                        "max_attempts, status, losses FROM work_queue "
                        "WHERE queue = ? AND (status = 'pending' OR "
                        "(status = 'claimed' AND lease_expires < ?)) "
                        "ORDER BY item_id LIMIT 1",
                        (self.name, now)).fetchone()
                    if row is None:
                        conn.execute("COMMIT")
                        return None
                    (item_id, key, label, payload, attempts,
                     max_attempts, status, losses) = row
                    item = QueueItem(
                        item_id=int(item_id), key=key, label=label,
                        payload=bytes(payload), attempts=int(attempts),
                        max_attempts=int(max_attempts),
                        stolen=(status == "claimed"))
                    if status == "claimed":
                        # Lease expired under another worker: a loss.
                        losses = int(losses) + 1
                        if losses > item.loss_budget:
                            conn.execute(
                                "UPDATE work_queue SET status = 'failed', "
                                "losses = ?, error_type = ?, message = ?, "
                                "exception = x'' "
                                "WHERE queue = ? AND item_id = ?",
                                (losses, LOST_ERROR_TYPE,
                                 f"lease on {label} expired {losses} "
                                 f"times (worker killed or died?)",
                                 self.name, item_id))
                            conn.execute("COMMIT")
                            continue
                    conn.execute(
                        "UPDATE work_queue SET status = 'claimed', "
                        "worker = ?, lease_expires = ?, losses = ? "
                        "WHERE queue = ? AND item_id = ?",
                        (worker, now + lease, int(losses),
                         self.name, item_id))
                    conn.execute("COMMIT")
                    return item
                except BaseException:
                    conn.execute("ROLLBACK")
                    raise

    def renew(self, item_id: int, worker: str, lease: float) -> bool:
        now = time.time()
        with self.store.locked() as conn:
            cursor = conn.execute(
                "UPDATE work_queue SET lease_expires = ?, "
                "renewals = renewals + 1 "
                "WHERE queue = ? AND item_id = ? AND status = 'claimed' "
                "AND worker = ?",
                (now + lease, self.name, item_id, worker))
            return cursor.rowcount == 1

    def ack(self, item_id: int, elapsed: float = 0.0) -> None:
        self.store.execute(
            "UPDATE work_queue SET status = 'done', elapsed = ?, "
            "error_type = '', message = '', exception = x'', "
            "worker = '', lease_expires = 0 "
            "WHERE queue = ? AND item_id = ?",
            (round(elapsed, 6), self.name, item_id))

    def nack(self, item_id: int, error_type: str, message: str,
             exception: bytes = b"") -> bool:
        with self.store.locked() as conn:
            conn.execute("BEGIN IMMEDIATE")
            try:
                row = conn.execute(
                    "SELECT attempts, max_attempts, errors FROM work_queue "
                    "WHERE queue = ? AND item_id = ?",
                    (self.name, item_id)).fetchone()
                if row is None:
                    conn.execute("COMMIT")
                    return False
                attempts = int(row[0]) + 1
                errors = json.loads(row[2])
                errors.append([attempts, error_type, message])
                retry = len(errors) < int(row[1])
                conn.execute(
                    "UPDATE work_queue SET status = ?, attempts = ?, "
                    "errors = ?, error_type = ?, message = ?, "
                    "exception = ?, worker = '', lease_expires = 0 "
                    "WHERE queue = ? AND item_id = ?",
                    ("pending" if retry else "failed", attempts,
                     json.dumps(errors), error_type, message,
                     sqlite3.Binary(exception), self.name, item_id))
                conn.execute("COMMIT")
                return retry
            except BaseException:
                conn.execute("ROLLBACK")
                raise

    def release(self, item_id: int, worker: str, error_type: str,
                message: str, exception: bytes = b"") -> bool:
        with self.store.locked() as conn:
            conn.execute("BEGIN IMMEDIATE")
            try:
                row = conn.execute(
                    "SELECT losses, max_attempts FROM work_queue "
                    "WHERE queue = ? AND item_id = ? "
                    "AND status = 'claimed' AND worker = ?",
                    (self.name, item_id, worker)).fetchone()
                if row is None:
                    conn.execute("COMMIT")
                    return False
                losses = int(row[0]) + 1
                retry = losses <= _loss_budget(int(row[1]))
                conn.execute(
                    "UPDATE work_queue SET status = ?, losses = ?, "
                    "attempts = attempts + 1, worker = '', "
                    "lease_expires = 0 WHERE queue = ? AND item_id = ?",
                    ("pending" if retry else "failed", losses,
                     self.name, item_id))
                if not retry:
                    conn.execute(
                        "UPDATE work_queue SET error_type = ?, "
                        "message = ?, exception = ? "
                        "WHERE queue = ? AND item_id = ?",
                        (error_type, message, sqlite3.Binary(exception),
                         self.name, item_id))
                conn.execute("COMMIT")
                return retry
            except BaseException:
                conn.execute("ROLLBACK")
                raise

    def requeue_failed(self) -> int:
        failed = int(self.store.query(
            "SELECT COUNT(*) FROM work_queue "
            "WHERE queue = ? AND status = 'failed'", (self.name,))[0][0])
        if failed:
            # A fresh pending state clears *everything* — the stale
            # worker/lease of the last holder included — matching
            # reset_items and the local backend.
            self.store.execute(
                f"UPDATE work_queue SET {_FRESH} "
                "WHERE queue = ? AND status = 'failed'", (self.name,))
        return failed

    def reset_items(self, item_ids: Sequence[int]) -> int:
        wanted = sorted({int(i) for i in item_ids})
        if not wanted:
            return 0
        rows = self.store.query(
            "SELECT item_id FROM work_queue WHERE queue = ?", (self.name,))
        existing = sorted({int(r[0]) for r in rows} & set(wanted))
        if existing:
            self.store.transaction([
                (f"UPDATE work_queue SET {_FRESH} "
                 "WHERE queue = ? AND item_id = ?", (self.name, item_id))
                for item_id in existing])
        return len(existing)

    def snapshot(self) -> Dict[int, ItemState]:
        rows = self.store.query(
            "SELECT item_id, status, attempts, losses, renewals, "
            "error_type, message, elapsed, worker, lease_expires, "
            "errors, exception FROM work_queue WHERE queue = ?",
            (self.name,))
        return {int(r[0]): ItemState(status=r[1], attempts=int(r[2]),
                                     losses=int(r[3]), renewals=int(r[4]),
                                     error_type=r[5], message=r[6],
                                     elapsed=float(r[7]), worker=r[8],
                                     lease_expires=float(r[9]),
                                     errors=_history(json.loads(r[10])),
                                     exception=bytes(r[11]))
                for r in rows}

    def peek(self, item_id: int) -> Optional[QueueItem]:
        rows = self.store.query(
            "SELECT item_id, key, label, payload, attempts, max_attempts "
            "FROM work_queue WHERE queue = ? AND item_id = ?",
            (self.name, int(item_id)))
        if not rows:
            return None
        row = rows[0]
        return QueueItem(item_id=int(row[0]), key=row[1], label=row[2],
                         payload=bytes(row[3]), attempts=int(row[4]),
                         max_attempts=int(row[5]))

    def clear(self) -> None:
        self.store.transaction([
            ("DELETE FROM work_queue WHERE queue = ?", (self.name,)),
            ("DELETE FROM queue_meta WHERE queue = ?", (self.name,)),
        ])


class LocalWorkQueue(WorkQueue):
    """Directory-backed queue for the ``local`` store backend.

    Layout under the queue root::

        meta.json            sweep fingerprint
        items/<id>.item      pickled QueueItem (written once)
        state/<id>.json      mutable ItemState (atomic replace)
        claims/<id>.tok      claim token {worker, expires}

    Claiming a ``pending`` item creates its token with
    ``O_CREAT | O_EXCL`` — the filesystem arbitrates racing workers.
    An expired token (or an expired ``claimed`` state) is *stolen* with
    an atomic replace; two stealers can race, which at worst double-
    executes a deterministic cell (see the module docstring).
    """

    def __init__(self, root: "os.PathLike[str]") -> None:
        self.root = Path(root)
        for sub in ("items", "state", "claims"):
            (self.root / sub).mkdir(parents=True, exist_ok=True)

    # -- small atomic-file helpers -------------------------------------

    def _item_path(self, item_id: int) -> Path:
        return self.root / "items" / f"{item_id:08d}.item"

    def _state_path(self, item_id: int) -> Path:
        return self.root / "state" / f"{item_id:08d}.json"

    def _token_path(self, item_id: int) -> Path:
        return self.root / "claims" / f"{item_id:08d}.tok"

    @staticmethod
    def _replace_bytes(path: Path, blob: bytes) -> None:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".w-",
                                   suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(blob)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def _read_state(self, item_id: int) -> Optional[ItemState]:
        try:
            doc = json.loads(self._state_path(item_id).read_text())
        except (OSError, ValueError):
            return None
        state = ItemState()
        for name, value in doc.items():
            if hasattr(state, name):
                setattr(state, name, value)
        state.errors = _history(state.errors)
        state.exception = base64.b64decode(state.exception)
        return state

    def _write_state(self, item_id: int, state: ItemState) -> None:
        doc = asdict(state)
        doc["exception"] = base64.b64encode(state.exception).decode("ascii")
        self._replace_bytes(self._state_path(item_id),
                            json.dumps(doc, sort_keys=True).encode("utf-8"))

    def _read_lease(self, item_id: int) -> float:
        try:
            doc = json.loads(self._state_path(item_id).read_text())
            return float(doc.get("lease_expires", 0.0))
        except (OSError, ValueError):
            return 0.0

    def _drop_token(self, item_id: int) -> None:
        try:
            os.unlink(self._token_path(item_id))
        except OSError:
            pass

    def _read_item(self, item_id: int) -> Optional[QueueItem]:
        try:
            blob = self._item_path(item_id).read_bytes()
        except OSError:
            return None
        item = pickle.loads(blob)
        return item if isinstance(item, QueueItem) else None

    def _ids(self) -> List[int]:
        try:
            names = list((self.root / "items").iterdir())
        except OSError:  # queue cleared (root removed) -> empty
            return []
        return sorted(int(p.stem) for p in names if p.suffix == ".item")

    # -- WorkQueue protocol --------------------------------------------

    def publish(self, items: Sequence[QueueItem]) -> int:
        fingerprint = sweep_fingerprint(items)
        meta = self.root / "meta.json"
        try:
            stored = json.loads(meta.read_text()).get("fingerprint")
        except (OSError, ValueError):
            stored = None
        if stored is not None and stored != fingerprint:
            self.clear()
            for sub in ("items", "state", "claims"):
                (self.root / sub).mkdir(parents=True, exist_ok=True)
        self._replace_bytes(meta, json.dumps(
            {"fingerprint": fingerprint}, sort_keys=True).encode("utf-8"))
        published = 0
        for item in items:
            path = self._item_path(item.item_id)
            if path.exists():
                continue
            self._replace_bytes(path, pickle.dumps(
                item, protocol=pickle.HIGHEST_PROTOCOL))
            self._write_state(item.item_id, ItemState())
            published += 1
        return published

    def _take_token(self, item_id: int, worker: str,
                    expires: float) -> bool:
        """Win the claim token exclusively; steal it when expired."""
        token = self._token_path(item_id)
        blob = json.dumps({"worker": worker, "expires": expires},
                          sort_keys=True).encode("utf-8")
        try:
            fd = os.open(token, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            try:
                held = json.loads(token.read_text()).get("expires", 0.0)
            except (OSError, ValueError):
                held = 0.0
            if held >= time.time():
                return False
            # Expired token: previous holder died between token and
            # state writes (or mid-cell).  Replace is atomic; a racing
            # stealer merely double-executes a deterministic cell.
            self._replace_bytes(token, blob)
            return True
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        return True

    def claim(self, worker: str, lease: float) -> Optional[QueueItem]:
        for item_id in self._ids():
            state = self._read_state(item_id)
            if state is None or state.status in ("done", "failed"):
                continue
            now = time.time()
            stolen = False
            if state.status == "claimed":
                if self._read_lease(item_id) >= now:
                    continue
                stolen = True
            if not self._take_token(item_id, worker, now + lease):
                continue
            item = self._read_item(item_id)
            if item is None:
                continue
            if stolen:
                state.losses += 1
                if state.losses > item.loss_budget:
                    state.status = "failed"
                    state.error_type = LOST_ERROR_TYPE
                    state.message = (f"lease on {item.label} expired "
                                     f"{state.losses} times (worker "
                                     f"killed or died?)")
                    state.exception = b""
                    self._write_state(item_id, state)
                    self._drop_token(item_id)
                    continue
            state.status = "claimed"
            state.worker = worker
            state.lease_expires = now + lease
            self._write_state(item_id, state)
            return QueueItem(item_id=item.item_id, key=item.key,
                             label=item.label, payload=item.payload,
                             attempts=state.attempts,
                             max_attempts=item.max_attempts,
                             stolen=stolen)
        return None

    def renew(self, item_id: int, worker: str, lease: float) -> bool:
        state = self._read_state(item_id)
        if (state is None or state.status != "claimed"
                or state.worker != worker):
            return False
        now = time.time()
        state.lease_expires = now + lease
        state.renewals += 1
        # The claim token's expiry gates stealing too; refresh both so
        # a renewed holder cannot lose a token race it already won.
        self._replace_bytes(
            self._token_path(item_id),
            json.dumps({"worker": worker, "expires": now + lease},
                       sort_keys=True).encode("utf-8"))
        self._write_state(item_id, state)
        return True

    def ack(self, item_id: int, elapsed: float = 0.0) -> None:
        state = self._read_state(item_id) or ItemState()
        state.status = "done"
        state.elapsed = round(elapsed, 6)
        state.error_type = ""
        state.message = ""
        state.worker = ""
        state.lease_expires = 0.0
        state.exception = b""
        self._write_state(item_id, state)
        self._drop_token(item_id)

    def nack(self, item_id: int, error_type: str, message: str,
             exception: bytes = b"") -> bool:
        state = self._read_state(item_id) or ItemState()
        item = self._read_item(item_id)
        max_attempts = item.max_attempts if item is not None else 1
        state.attempts += 1
        state.errors.append((state.attempts, error_type, message))
        retry = len(state.errors) < max_attempts
        state.status = "pending" if retry else "failed"
        state.error_type = error_type
        state.message = message
        state.exception = exception
        state.worker = ""
        state.lease_expires = 0.0
        self._write_state(item_id, state)
        self._drop_token(item_id)
        return retry

    def release(self, item_id: int, worker: str, error_type: str,
                message: str, exception: bytes = b"") -> bool:
        state = self._read_state(item_id)
        item = self._read_item(item_id)
        if (state is None or item is None or state.status != "claimed"
                or state.worker != worker):
            return False
        state.losses += 1
        state.attempts += 1
        retry = state.losses <= item.loss_budget
        state.status = "pending" if retry else "failed"
        if not retry:
            state.error_type = error_type
            state.message = message
            state.exception = exception
        state.worker = ""
        state.lease_expires = 0.0
        self._write_state(item_id, state)
        self._drop_token(item_id)
        return retry

    def requeue_failed(self) -> int:
        reset = 0
        for item_id in self._ids():
            state = self._read_state(item_id)
            if state is None or state.status != "failed":
                continue
            self._write_state(item_id, ItemState())
            self._drop_token(item_id)
            reset += 1
        return reset

    def reset_items(self, item_ids: Sequence[int]) -> int:
        reset = 0
        for item_id in sorted({int(i) for i in item_ids}):
            if self._read_item(item_id) is None:
                continue
            self._write_state(item_id, ItemState())
            self._drop_token(item_id)
            reset += 1
        return reset

    def snapshot(self) -> Dict[int, ItemState]:
        out: Dict[int, ItemState] = {}
        for item_id in self._ids():
            state = self._read_state(item_id)
            if state is not None:
                out[item_id] = state
        return out

    def peek(self, item_id: int) -> Optional[QueueItem]:
        item = self._read_item(int(item_id))
        if item is None:
            return None
        state = self._read_state(int(item_id))
        return QueueItem(item_id=item.item_id, key=item.key,
                         label=item.label, payload=item.payload,
                         attempts=state.attempts if state else item.attempts,
                         max_attempts=item.max_attempts)

    def clear(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


class WorkQueueProxy(WorkQueue):
    """Transparent pass-through wrapper around another :class:`WorkQueue`.

    Base class for decorating queues — fault injection
    (:mod:`repro.store.faults`) and transient-error retries
    (:mod:`repro.store.retry`) both subclass this and override only the
    operations they intercept; everything else delegates to ``inner``.
    """

    def __init__(self, inner: WorkQueue) -> None:
        self.inner = inner

    def publish(self, items: Sequence[QueueItem]) -> int:
        return self.inner.publish(items)

    def claim(self, worker: str, lease: float) -> Optional[QueueItem]:
        return self.inner.claim(worker, lease)

    def renew(self, item_id: int, worker: str, lease: float) -> bool:
        return self.inner.renew(item_id, worker, lease)

    def ack(self, item_id: int, elapsed: float = 0.0) -> None:
        self.inner.ack(item_id, elapsed)

    def nack(self, item_id: int, error_type: str, message: str,
             exception: bytes = b"") -> bool:
        return self.inner.nack(item_id, error_type, message, exception)

    def release(self, item_id: int, worker: str, error_type: str,
                message: str, exception: bytes = b"") -> bool:
        return self.inner.release(item_id, worker, error_type, message,
                                  exception)

    def requeue_failed(self) -> int:
        return self.inner.requeue_failed()

    def reset_items(self, item_ids: Sequence[int]) -> int:
        return self.inner.reset_items(item_ids)

    def snapshot(self) -> Dict[int, ItemState]:
        return self.inner.snapshot()

    def peek(self, item_id: int) -> Optional[QueueItem]:
        return self.inner.peek(item_id)

    def clear(self) -> None:
        self.inner.clear()
