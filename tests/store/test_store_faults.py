"""The fault harness and the store's transient-retry stack, end to end.

Covers the layers the chaos smoke relies on: the one ``$REPRO_FAULTS``
plan format and its deterministic schedules (:mod:`repro.store.faults`),
the transient/permanent error line and bounded retries
(:mod:`repro.store.retry`), and their composition — a retried put
through an injected torn write must leave a valid entry behind.
"""

from __future__ import annotations

import errno
import sqlite3

import pytest

from repro.errors import ConfigurationError
from repro.store import (
    CacheCorruptionWarning,
    LocalFileStore,
    QueueItem,
    RetryingQueue,
    RetryingStore,
    StoreRetryPolicy,
    call_with_retries,
    is_transient_store_error,
)
from repro.store import faults
from repro.store.faults import (
    FAULTS_ENV,
    Fault,
    FaultInjector,
    FaultPlan,
    FaultyStore,
    InjectedFaultError,
    active_plan,
    inject,
    maybe_faulty_store,
)

from .helpers import key_of


def plan_of(*entries: Fault) -> FaultPlan:
    return FaultPlan(faults=tuple(entries))


#: One document aimed at both halves of the harness.
MIXED = plan_of(
    Fault(cell="fig3[0.6]", kind="raise", attempts=(1, 2)),
    Fault(cell="fig3[0.7]", kind="hang", seconds=1.5),
    Fault(cell="fig3[0.8]", kind="corrupt"),
    Fault(op="put", kind="busy", every=3, times=2),
    Fault(op="get", kind="oserror", rate=0.5, seed=7))


@pytest.fixture(autouse=True)
def _no_ambient_plan(monkeypatch):
    """Never inherit a fault plan from the invoking environment."""
    monkeypatch.delenv(FAULTS_ENV, raising=False)


# ------------------------------------------------------------- parsing --


class TestPlanParsing:
    def test_round_trip(self):
        assert FaultPlan.from_json(MIXED.to_json()) == MIXED

    def test_defaults(self):
        plan = FaultPlan.from_json(
            '{"faults": [{"op": "claim", "kind": "latency"},'
            ' {"cell": "t[0]", "kind": "hang"}]}')
        op, cell = plan.faults
        assert (op.every, op.times, op.rate) == (1, None, None)
        assert op.seconds == 0.05
        assert (cell.attempts, cell.seconds) == ((1,), 30.0)
        assert cell.message == "injected fault"

    @pytest.mark.parametrize("doc,match", [
        ("nonsense", "not valid JSON"),
        ('["not", "an", "object"]', "must be an object"),
        ('{"faults": ["nope"]}', "must be an object"),
        ('{"faults": [{"kind": "busy"}]}', "missing required field"),
        ('{"faults": [{"op": "put"}]}', "missing required field"),
        ('{"faults": [{"op": "put", "kind": "busy", "wat": 1}]}',
         "unknown store-fault fields"),
        ('{"faults": [{"cell": "t[0]"}]}', "missing required field"),
        ('{"faults": [{"cell": "t[0]", "kind": "raise", "when": 1}]}',
         "unknown cell-fault fields"),
        ('{"faults": [{"cell": "t[0]", "kind": "raise", "every": 2}]}',
         "unknown cell-fault fields"),
        ('{"faults": [{"op": "put", "kind": "busy", "attempts": [1]}]}',
         "unknown store-fault fields"),
        ('{"faults": [{"cell": "t[0]", "op": "put", "kind": "busy"}]}',
         "targets both"),
    ])
    def test_malformed_documents_fail_loudly(self, doc, match):
        with pytest.raises(ConfigurationError, match=match):
            FaultPlan.from_json(doc)

    @pytest.mark.parametrize("kwargs,match", [
        (dict(op="frobnicate", kind="busy"), "unknown store-fault op"),
        (dict(op="put", kind="explode"), "unknown store-fault kind"),
        (dict(op="put", kind="busy", every=0), "every must be >= 1"),
        (dict(op="put", kind="busy", times=-1), "times must be >= 0"),
        (dict(op="put", kind="latency", seconds=-1.0), "non-negative"),
        (dict(op="put", kind="busy", rate=1.5), "rate must be in"),
        (dict(op="get", kind="torn"), "only apply to 'put'"),
        (dict(cell="t[0]", kind="explode"), "unknown cell-fault kind"),
        (dict(cell="t[0]", kind="busy"), "unknown cell-fault kind"),
        (dict(op="put", kind="raise"), "unknown store-fault kind"),
        (dict(cell="t[0]", kind="raise", attempts=(0,)), "1-based"),
        (dict(cell="t[0]", kind="raise", attempts=()), "1-based"),
        (dict(cell="t[0]", kind="hang", seconds=-1.0), "non-negative"),
        (dict(kind="raise"), "exactly one of"),
        (dict(cell="t[0]", op="put", kind="busy"), "exactly one of"),
    ])
    def test_fault_validation(self, kwargs, match):
        with pytest.raises(ConfigurationError, match=match):
            Fault(**kwargs)

    def test_env_unset_means_no_plan(self):
        assert active_plan() is None

    def test_env_inline_json(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, MIXED.to_json())
        assert active_plan() == MIXED

    def test_env_at_path_indirection(self, monkeypatch, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text('{"faults": [{"op": "ack", "kind": "oserror"},'
                        ' {"cell": "t[0]", "kind": "kill"}]}')
        monkeypatch.setenv(FAULTS_ENV, f"@{path}")
        plan = active_plan()
        assert plan is not None
        assert [f.op for f in plan.faults] == ["ack", None]
        assert plan.for_cell("t[0]", kind="kill")

    def test_env_missing_plan_file_raises(self, monkeypatch, tmp_path):
        monkeypatch.setenv(FAULTS_ENV, f"@{tmp_path}/absent.json")
        with pytest.raises(ConfigurationError, match="cannot read"):
            active_plan()

    def test_env_value_is_parsed_once(self, monkeypatch):
        parses = []
        real = FaultPlan.from_json.__func__

        def counting(cls, text):
            parses.append(text)
            return real(cls, text)

        monkeypatch.setattr(FaultPlan, "from_json", classmethod(counting))
        monkeypatch.setattr(faults, "_parsed", ("", None))
        monkeypatch.setenv(FAULTS_ENV, MIXED.to_json())
        assert active_plan() is active_plan()
        assert len(parses) == 1
        monkeypatch.setenv(FAULTS_ENV, '{"faults": []}')
        assert active_plan() == FaultPlan()
        assert len(parses) == 2

    def test_retired_store_env_is_rejected(self, monkeypatch):
        """The old store-only variable is an error, not silently
        ignored: a chaos script still setting it would run fault-free."""
        monkeypatch.setenv("REPRO_STORE_FAULTS",
                           '{"faults": [{"op": "*", "kind": "busy"}]}')
        with pytest.raises(ConfigurationError, match=FAULTS_ENV):
            active_plan()

    def test_one_document_drives_cells_and_ops(self, monkeypatch,
                                                tmp_path):
        monkeypatch.setenv(FAULTS_ENV, MIXED.to_json())
        with pytest.raises(InjectedFaultError, match="attempt 2"):
            inject("fig3[0.6]", 2)
        inject("fig3[0.6]", 3)  # not a listed attempt
        wrapped = maybe_faulty_store(LocalFileStore(tmp_path))
        assert isinstance(wrapped, FaultyStore)
        assert wrapped.injector.plan == MIXED


# ----------------------------------------------------------- schedules --


class TestInjectorSchedule:
    def test_cell_faults_trigger_by_label_and_attempt(self):
        fault = Fault(cell="t[0]", kind="raise", attempts=(2,))
        assert fault.triggers("t[0]", 2)
        assert not fault.triggers("t[0]", 1)
        assert not fault.triggers("t[1]", 2)
        # The two halves of a plan never cross: cell entries match no
        # store op, and op entries trigger no cell.
        assert FaultInjector(plan_of(fault)).fire("get") == []
        assert not Fault(op="*", kind="busy").triggers("t[0]", 1)

    def test_every_n_with_times_cap(self):
        injector = FaultInjector(plan_of(
            Fault(op="get", kind="busy", every=3, times=2)))
        fired = [bool(injector.fire("get")) for _ in range(12)]
        # 1-based matches 3 and 6 fire; the times cap stops 9 and 12.
        assert fired == [False, False, True, False, False, True,
                         False, False, False, False, False, False]

    def test_ops_are_counted_independently(self):
        injector = FaultInjector(plan_of(
            Fault(op="put", kind="busy", every=2)))
        assert injector.fire("get") == []      # no match, no count
        assert injector.fire("put") == []      # put #1
        assert injector.fire("get") == []
        assert len(injector.fire("put")) == 1  # put #2 fires

    def test_wildcard_matches_every_op(self):
        injector = FaultInjector(plan_of(
            Fault(op="*", kind="busy", every=1, times=3)))
        assert len(injector.fire("get")) == 1
        assert len(injector.fire("claim")) == 1
        assert len(injector.fire("renew")) == 1
        assert injector.fire("ack") == []  # times exhausted
        assert injector.injected == {"get:busy": 1, "claim:busy": 1,
                                     "renew:busy": 1}

    def test_rate_schedule_is_seed_deterministic(self):
        plan = plan_of(Fault(op="get", kind="busy", rate=0.4, seed=11))
        pattern_a = [bool(FaultInjector(plan).fire("get"))
                     for _ in range(1)]  # fresh injector: first call only
        one = FaultInjector(plan)
        two = FaultInjector(plan)
        seq_one = [bool(one.fire("get")) for _ in range(50)]
        seq_two = [bool(two.fire("get")) for _ in range(50)]
        assert seq_one == seq_two          # pure function of (seed, calls)
        assert any(seq_one) and not all(seq_one)
        assert pattern_a == seq_one[:1]

    def test_kinds_raise_their_production_exceptions(self):
        busy = FaultInjector(plan_of(Fault(op="*", kind="busy")))
        with pytest.raises(sqlite3.OperationalError, match="locked"):
            busy.inject("get")
        oserr = FaultInjector(plan_of(Fault(op="*", kind="oserror")))
        with pytest.raises(OSError) as exc_info:
            oserr.inject("get")
        assert exc_info.value.errno == errno.EAGAIN
        fatal = FaultInjector(plan_of(Fault(op="*", kind="fatal")))
        with pytest.raises(sqlite3.DatabaseError, match="malformed"):
            fatal.inject("get")

    def test_latency_delays_without_raising(self):
        injector = FaultInjector(plan_of(
            Fault(op="get", kind="latency", seconds=0.0)))
        assert injector.inject("get") == []
        assert injector.injected == {"get:latency": 1}


# ------------------------------------------------------ classification --


class TestTransientClassification:
    @pytest.mark.parametrize("exc", [
        sqlite3.OperationalError("database is locked"),
        sqlite3.OperationalError("database table is busy"),
        sqlite3.OperationalError("disk I/O error"),
        OSError(errno.EAGAIN, "try again"),
        OSError(errno.EBUSY, "busy"),
        OSError("errno-less oserror"),
    ])
    def test_transient(self, exc):
        assert is_transient_store_error(exc) is True

    @pytest.mark.parametrize("exc", [
        sqlite3.OperationalError("no such table: entries"),
        sqlite3.DatabaseError("database disk image is malformed"),
        sqlite3.IntegrityError("UNIQUE constraint failed"),
        OSError(errno.ENOSPC, "no space left on device"),
        OSError(errno.ENOENT, "no such file"),
        ValueError("not a store error at all"),
    ])
    def test_permanent(self, exc):
        assert is_transient_store_error(exc) is False


# -------------------------------------------------------------- retries --


class TestCallWithRetries:
    def test_transient_errors_retry_within_budget(self):
        policy = StoreRetryPolicy(retries=3, backoff_base=0.0,
                                  backoff_cap=0.0)
        seen = []
        attempts = [0]

        def flaky():
            attempts[0] += 1
            if attempts[0] <= 2:
                raise sqlite3.OperationalError("database is locked")
            return "ok"

        result = call_with_retries(
            flaky, policy=policy, operation="store.get",
            on_retry=lambda op, exc, n: seen.append((op, n)))
        assert result == "ok"
        assert attempts[0] == 3
        assert seen == [("store.get", 1), ("store.get", 2)]

    def test_budget_exhaustion_reraises_the_transient(self):
        policy = StoreRetryPolicy(retries=2, backoff_base=0.0,
                                  backoff_cap=0.0)

        def always_busy():
            raise sqlite3.OperationalError("database is locked")

        with pytest.raises(sqlite3.OperationalError, match="locked"):
            call_with_retries(always_busy, policy=policy)

    def test_permanent_errors_never_retry(self):
        calls = [0]

        def broken():
            calls[0] += 1
            raise sqlite3.DatabaseError("malformed")

        with pytest.raises(sqlite3.DatabaseError):
            call_with_retries(broken, policy=StoreRetryPolicy(retries=5))
        assert calls[0] == 1

    def test_policy_validation_and_delay_shape(self):
        with pytest.raises(ConfigurationError, match=">= 0"):
            StoreRetryPolicy(retries=-1)
        with pytest.raises(ConfigurationError, match="non-negative"):
            StoreRetryPolicy(backoff_base=-0.1)
        policy = StoreRetryPolicy(backoff_base=0.01, backoff_cap=0.05)
        assert [policy.delay(n) for n in (1, 2, 3, 4)] == \
            [0.01, 0.02, 0.04, 0.05]


# -------------------------------------------------- wrapped store/queue --


FAST = StoreRetryPolicy(retries=5, backoff_base=0.0, backoff_cap=0.0)


def faulty_local(tmp_path, *entries: Fault) -> FaultyStore:
    return FaultyStore(LocalFileStore(tmp_path / "store"), plan_of(*entries))


class TestRetryingOverFaulty:
    def test_put_get_survive_injected_busy(self, tmp_path):
        store = RetryingStore(
            faulty_local(tmp_path,
                         Fault(op="*", kind="busy", every=1, times=4)),
            FAST)
        store.put(key_of(1), {"v": 1})
        assert store.get(key_of(1)) == (True, {"v": 1})
        assert store.inner.injector.injected["put:busy"] >= 1

    def test_fatal_fault_escapes_the_retry_stack(self, tmp_path):
        store = RetryingStore(
            faulty_local(tmp_path, Fault(op="put", kind="fatal")),
            FAST)
        with pytest.raises(sqlite3.DatabaseError, match="malformed"):
            store.put(key_of(2), "doomed")

    def test_torn_write_recovers_through_retry(self, tmp_path):
        """The headline chaos case: a torn put leaves truncated bytes
        and raises EIO; the retry rewrites the full checksummed entry."""
        store = RetryingStore(
            faulty_local(tmp_path,
                         Fault(op="put", kind="torn", times=1)),
            FAST)
        store.put(key_of(3), [1, 2, 3])
        assert store.get(key_of(3)) == (True, [1, 2, 3])
        assert store.quarantined_count() == 0

    def test_unretried_torn_write_is_caught_by_the_checksum(self, tmp_path):
        store = faulty_local(
            tmp_path, Fault(op="put", kind="torn", times=1))
        with pytest.raises(OSError):
            store.put(key_of(4), [1, 2, 3])
        # The truncated entry is on disk; the checksum path quarantines
        # it instead of serving garbage.
        with pytest.warns(CacheCorruptionWarning):
            assert store.get(key_of(4)) == (False, None)
        assert store.quarantined_count() == 1

    def test_queue_shares_the_store_injector(self, tmp_path):
        store = faulty_local(
            tmp_path, Fault(op="claim", kind="busy", every=2))
        queue = RetryingQueue(store.make_queue("sweep"), FAST)
        queue.publish([QueueItem(item_id=0, key=key_of(0), label="c",
                                 payload=b"p")])
        item = queue.claim("w0", 60.0)   # claim #1 clean, retry absorbs #2
        assert item is not None
        queue.ack(item.item_id)
        assert store.injector.injected.get("claim:busy", 0) >= 0
        assert store.injector._seen[0] >= 1

    def test_renew_faults_are_absorbed(self, tmp_path):
        store = faulty_local(
            tmp_path, Fault(op="renew", kind="busy", every=1, times=2))
        queue = RetryingQueue(store.make_queue("sweep"), FAST)
        queue.publish([QueueItem(item_id=0, key=key_of(0), label="c",
                                 payload=b"p")])
        assert queue.claim("w0", 60.0) is not None
        assert queue.renew(0, "w0", 60.0) is True
        assert store.injector.injected["renew:busy"] >= 1


class TestMaybeFaultyStore:
    def test_without_env_the_store_passes_through(self, monkeypatch,
                                                  tmp_path):
        store = LocalFileStore(tmp_path)
        assert maybe_faulty_store(store) is store

    def test_with_env_the_store_is_wrapped(self, monkeypatch, tmp_path):
        monkeypatch.setenv(
            FAULTS_ENV, '{"faults": [{"op": "get", "kind": "busy"}]}')
        store = LocalFileStore(tmp_path)
        wrapped = maybe_faulty_store(store)
        assert isinstance(wrapped, FaultyStore)
        assert wrapped.inner is store
        # Workers respawn the raw URL and wrap it themselves.
        assert wrapped.url == store.url

    def test_empty_plan_passes_through(self, monkeypatch, tmp_path):
        monkeypatch.setenv(FAULTS_ENV, '{"faults": []}')
        store = LocalFileStore(tmp_path)
        assert maybe_faulty_store(store) is store

    def test_cell_only_plan_passes_through(self, monkeypatch, tmp_path):
        monkeypatch.setenv(
            FAULTS_ENV, '{"faults": [{"cell": "t[0]", "kind": "raise"}]}')
        store = LocalFileStore(tmp_path)
        assert maybe_faulty_store(store) is store
