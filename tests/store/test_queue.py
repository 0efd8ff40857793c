"""Work-queue protocol conformance: claim/renew/ack/nack/steal on every
backend.

Leases are wall-clock, so expiry is simulated by claiming with a tiny
(or negative-effect) lease rather than sleeping: ``lease=0.0`` writes an
already-expired lease, making the item immediately stealable.  The
boundary tests go further and pin ``time.time`` itself (both backends
read it through the queue module), so "at exactly the expiry instant"
is a testable moment rather than a race.
"""

from __future__ import annotations

import pickle

import pytest

from repro.store import STORE_BACKENDS, ItemState, QueueItem
from repro.store.queue import LOST_ERROR_TYPE, sweep_fingerprint

from .helpers import make_store

BACKENDS = sorted(STORE_BACKENDS.values(), key=lambda cls: cls.scheme)


@pytest.fixture(params=BACKENDS, ids=lambda cls: cls.scheme)
def queue(request, tmp_path):
    store = make_store(request.param, tmp_path)
    yield store.make_queue("sweep")
    store.close()


def items_for(n, max_attempts=1):
    return [QueueItem(item_id=i, key=f"{i:064x}", label=f"cell-{i}",
                      payload=pickle.dumps(("cell", i)),
                      max_attempts=max_attempts)
            for i in range(n)]


class TestPublish:
    def test_publish_then_counts(self, queue):
        assert queue.publish(items_for(3)) == 3
        assert queue.counts() == {"pending": 3, "claimed": 0,
                                  "done": 0, "failed": 0}
        assert queue.unfinished() == 3

    def test_republish_is_idempotent(self, queue):
        batch = items_for(3)
        queue.publish(batch)
        item = queue.claim("w0", lease=60.0)
        queue.ack(item.item_id)
        # Same sweep again: no new items, done state preserved (resume).
        assert queue.publish(batch) == 0
        counts = queue.counts()
        assert counts["done"] == 1
        assert counts["pending"] == 2

    def test_different_sweep_resets_the_queue(self, queue):
        queue.publish(items_for(3))
        queue.ack(0)
        other = [QueueItem(item_id=i, key=f"{i + 7:064x}", label=f"o-{i}",
                           payload=b"x") for i in range(2)]
        assert sweep_fingerprint(other) != sweep_fingerprint(items_for(3))
        assert queue.publish(other) == 2
        counts = queue.counts()
        assert counts == {"pending": 2, "claimed": 0, "done": 0, "failed": 0}


class TestClaimAckNack:
    def test_claims_come_in_item_order(self, queue):
        queue.publish(items_for(3))
        assert queue.claim("w0", lease=60.0).item_id == 0
        assert queue.claim("w0", lease=60.0).item_id == 1
        assert queue.claim("w0", lease=60.0).item_id == 2
        assert queue.claim("w0", lease=60.0) is None

    def test_claim_round_trips_the_payload(self, queue):
        queue.publish(items_for(1))
        item = queue.claim("w0", lease=60.0)
        assert pickle.loads(item.payload) == ("cell", 0)
        assert item.key == f"{0:064x}"
        assert item.label == "cell-0"

    def test_ack_finishes_the_item(self, queue):
        queue.publish(items_for(1))
        item = queue.claim("w0", lease=60.0)
        queue.ack(item.item_id, elapsed=0.25)
        state = queue.snapshot()[0]
        assert state.status == "done"
        assert state.elapsed == 0.25
        assert queue.unfinished() == 0
        assert queue.claim("w0", lease=60.0) is None

    def test_nack_requeues_until_budget_spent(self, queue):
        queue.publish(items_for(1, max_attempts=2))
        item = queue.claim("w0", lease=60.0)
        assert queue.nack(item.item_id, "ValueError", "boom 1") is True
        item = queue.claim("w1", lease=60.0)  # retry is claimable
        assert item.attempts == 1
        assert queue.nack(item.item_id, "ValueError", "boom 2") is False
        state = queue.snapshot()[0]
        assert state.status == "failed"
        assert state.attempts == 2
        assert state.error_type == "ValueError"
        assert state.message == "boom 2"
        assert queue.claim("w0", lease=60.0) is None
        assert queue.unfinished() == 0

    def test_single_attempt_fails_on_first_nack(self, queue):
        queue.publish(items_for(1, max_attempts=1))
        item = queue.claim("w0", lease=60.0)
        assert queue.nack(item.item_id, "RuntimeError", "boom") is False
        assert queue.snapshot()[0].status == "failed"

    def test_nack_keeps_history_and_the_last_exception(self, queue):
        queue.publish(items_for(1, max_attempts=3))
        queue.claim("w0", lease=60.0)
        queue.nack(0, "ValueError", "boom 1", pickle.dumps(ValueError("1")))
        queue.claim("w0", lease=60.0)
        queue.nack(0, "KeyError", "boom 2", pickle.dumps(KeyError("2")))
        state = queue.snapshot()[0]
        assert state.errors == [(1, "ValueError", "boom 1"),
                                (2, "KeyError", "boom 2")]
        assert pickle.loads(state.exception).args == ("2",)
        # Success keeps the history (the retries happened) but drops
        # the exception with the rest of the error fields.
        queue.claim("w0", lease=60.0)
        queue.ack(0)
        state = queue.snapshot()[0]
        assert len(state.errors) == 2
        assert state.exception == b"" and state.error_type == ""


class TestRelease:
    def test_release_requeues_as_a_new_attempt(self, queue):
        """A known-dead holder's item is claimable at once, charged a
        loss, and handed out as the next attempt; attempts spent on
        releases do not eat the retry budget."""
        queue.publish(items_for(1, max_attempts=2))  # loss budget 1
        assert queue.claim("w0", lease=60.0).attempts == 0
        assert queue.release(0, "w0", "WorkerError", "died") is True
        state = queue.snapshot()[0]
        assert (state.status, state.losses, state.attempts) == \
            ("pending", 1, 1)
        assert state.errors == []
        item = queue.claim("w1", lease=60.0)
        assert item is not None and item.attempts == 1
        assert queue.nack(0, "ValueError", "boom") is True  # 1 of 2 failures

    def test_release_past_the_loss_budget_fails_with_its_error(self, queue):
        queue.publish(items_for(1, max_attempts=1))  # loss budget 1
        queue.claim("w0", lease=60.0)
        assert queue.release(0, "w0", "WorkerError", "died") is True
        queue.claim("w1", lease=60.0)
        blob = pickle.dumps(RuntimeError("died twice"))
        assert queue.release(0, "w1", "WorkerError", "died twice",
                             blob) is False
        state = queue.snapshot()[0]
        assert (state.status, state.losses, state.attempts) == \
            ("failed", 2, 2)
        assert (state.error_type, state.message) == \
            ("WorkerError", "died twice")
        assert state.exception == blob
        assert queue.unfinished() == 0

    def test_release_needs_the_current_holder(self, queue):
        queue.publish(items_for(2))
        queue.claim("w0", lease=60.0)
        assert queue.release(0, "w1", "WorkerError", "x") is False
        assert queue.release(1, "w0", "WorkerError", "x") is False  # pending
        assert queue.snapshot()[0].status == "claimed"
        assert queue.snapshot()[0].losses == 0


class TestLeases:
    def test_live_lease_blocks_other_workers(self, queue):
        queue.publish(items_for(1))
        assert queue.claim("w0", lease=60.0) is not None
        assert queue.claim("w1", lease=60.0) is None

    def test_expired_lease_is_stolen_and_charged(self, queue):
        queue.publish(items_for(1, max_attempts=3))  # loss budget 2
        assert queue.claim("w0", lease=0.0) is not None  # expires at once
        stolen = queue.claim("w1", lease=60.0)
        assert stolen is not None
        assert stolen.item_id == 0
        assert queue.snapshot()[0].losses == 1

    def test_a_lost_lease_does_not_report_an_earlier_exception(self, queue):
        queue.publish(items_for(1, max_attempts=2))  # loss budget 1
        queue.claim("w0", lease=60.0)
        queue.nack(0, "ValueError", "boom", pickle.dumps(ValueError("x")))
        assert queue.claim("w1", lease=0.0) is not None
        assert queue.claim("w2", lease=0.0) is not None   # loss 1
        assert queue.claim("w3", lease=60.0) is None      # loss 2: over
        state = queue.snapshot()[0]
        assert state.error_type == LOST_ERROR_TYPE
        assert state.exception == b""

    def test_loss_budget_exhaustion_fails_permanently(self, queue):
        queue.publish(items_for(1, max_attempts=1))  # loss budget 1
        assert queue.claim("w0", lease=0.0) is not None   # loss 1 pending
        assert queue.claim("w1", lease=0.0) is not None   # charges loss 1
        assert queue.claim("w2", lease=60.0) is None      # loss 2: over
        state = queue.snapshot()[0]
        assert state.status == "failed"
        assert state.losses == 2
        assert state.error_type == LOST_ERROR_TYPE
        assert "expired" in state.message

    def test_final_steal_at_exactly_the_loss_budget_succeeds(self, queue):
        """Off-by-one guard: a steal that *reaches* the budget is still
        granted; only exceeding it fails the item."""
        queue.publish(items_for(1, max_attempts=3))  # loss budget 2
        assert queue.claim("w0", lease=0.0) is not None
        assert queue.claim("w1", lease=0.0) is not None   # loss 1
        assert queue.claim("w2", lease=0.0) is not None   # loss 2 == budget
        assert queue.snapshot()[0].losses == 2
        assert queue.claim("w3", lease=60.0) is None      # loss 3: over
        state = queue.snapshot()[0]
        assert state.status == "failed"
        assert state.losses == 3

    def test_lease_valid_through_its_expiry_instant(self, queue,
                                                    monkeypatch):
        """Both backends treat ``lease_expires == now`` as *held*: an
        item becomes stealable strictly after its expiry instant."""
        queue.publish(items_for(1, max_attempts=3))
        now = [1_000_000.0]
        monkeypatch.setattr("repro.store.queue.time.time",
                            lambda: now[0])
        assert queue.claim("w0", lease=30.0) is not None
        now[0] += 30.0  # exactly lease_expires
        assert queue.claim("w1", lease=30.0) is None
        assert queue.snapshot()[0].losses == 0
        now[0] += 0.001  # strictly past expiry
        stolen = queue.claim("w1", lease=30.0)
        assert stolen is not None and stolen.item_id == 0
        assert queue.snapshot()[0].losses == 1


class TestRenewal:
    def test_renew_extends_a_live_lease(self, queue, monkeypatch):
        queue.publish(items_for(1))
        now = [1_000_000.0]
        monkeypatch.setattr("repro.store.queue.time.time",
                            lambda: now[0])
        assert queue.claim("w0", lease=10.0) is not None
        now[0] += 8.0
        assert queue.renew(0, "w0", 10.0) is True  # expires at t0 + 18
        now[0] += 8.0  # t0 + 16: original lease long gone, renewal holds
        assert queue.claim("w1", lease=10.0) is None
        state = queue.snapshot()[0]
        assert state.status == "claimed"
        assert state.worker == "w0"
        assert state.renewals == 1
        assert state.losses == 0

    def test_late_renewal_before_any_steal_revives_the_lease(
            self, queue, monkeypatch):
        """A renewal past expiry but before a steal proves the worker
        is alive (just late) — the lease revives rather than racing."""
        queue.publish(items_for(1))
        now = [1_000_000.0]
        monkeypatch.setattr("repro.store.queue.time.time",
                            lambda: now[0])
        assert queue.claim("w0", lease=10.0) is not None
        now[0] += 25.0  # well past expiry, nobody stole yet
        assert queue.renew(0, "w0", 10.0) is True
        assert queue.claim("w1", lease=10.0) is None  # held again
        assert queue.snapshot()[0].worker == "w0"

    def test_renew_by_wrong_worker_is_refused(self, queue):
        queue.publish(items_for(1))
        assert queue.claim("w0", lease=60.0) is not None
        assert queue.renew(0, "imposter", 60.0) is False
        state = queue.snapshot()[0]
        assert state.worker == "w0"
        assert state.renewals == 0

    def test_renew_after_steal_cannot_revive_the_old_claim(self, queue):
        queue.publish(items_for(1, max_attempts=3))
        assert queue.claim("w0", lease=0.0) is not None  # expires at once
        assert queue.claim("w1", lease=60.0) is not None  # steals it
        assert queue.renew(0, "w0", 60.0) is False
        state = queue.snapshot()[0]
        assert state.worker == "w1"
        assert state.losses == 1

    def test_renew_of_unclaimed_or_finished_items_is_refused(self, queue):
        queue.publish(items_for(2))
        assert queue.renew(0, "w0", 60.0) is False  # still pending
        item = queue.claim("w0", lease=60.0)
        queue.ack(item.item_id)
        assert queue.renew(item.item_id, "w0", 60.0) is False  # done
        assert queue.renew(99, "w0", 60.0) is False  # unknown id


class TestRequeueFailed:
    def test_failed_items_reset_to_fresh_pending(self, queue):
        queue.publish(items_for(2, max_attempts=1))
        item = queue.claim("w0", lease=60.0)
        queue.nack(item.item_id, "ValueError", "boom")
        item = queue.claim("w0", lease=60.0)
        queue.ack(item.item_id)
        assert queue.requeue_failed() == 1
        state = queue.snapshot()[0]
        assert state.status == "pending"
        assert state.attempts == 0
        assert state.losses == 0
        assert state.error_type == ""
        # The done item stays done; only the failed one is runnable.
        assert queue.snapshot()[1].status == "done"
        assert queue.claim("w0", lease=60.0).item_id == 0

    def test_nothing_failed_is_a_noop(self, queue):
        queue.publish(items_for(2))
        assert queue.requeue_failed() == 0

    def test_requeue_clears_every_lease_and_loss_field(self, queue):
        """A requeued item is indistinguishable from a freshly published
        one — stale worker/lease/losses/renewals must not leak through
        (they would skew the steal accounting of the rerun)."""
        queue.publish(items_for(1, max_attempts=1))  # loss budget 1
        assert queue.claim("w0", lease=60.0) is not None
        assert queue.renew(0, "w0", 0.0) is True     # renewal, then expiry
        assert queue.claim("w1", lease=0.0) is not None  # steal: loss 1
        assert queue.claim("w2", lease=60.0) is None     # loss 2: failed
        assert queue.snapshot()[0].status == "failed"
        assert queue.requeue_failed() == 1
        assert queue.snapshot()[0] == ItemState()


class TestResetConsistency:
    def test_reset_items_clears_every_lease_and_loss_field(self, queue):
        queue.publish(items_for(1, max_attempts=3))
        assert queue.claim("w0", lease=60.0) is not None
        assert queue.renew(0, "w0", 60.0) is True
        queue.ack(0, elapsed=2.5)
        assert queue.reset_items([0]) == 1
        assert queue.snapshot()[0] == ItemState()
        # And the reset item is claimable by anyone, with no history.
        fresh = queue.claim("w9", lease=60.0)
        assert fresh is not None and fresh.attempts == 0


class TestResetItems:
    def test_done_items_reset_to_fresh_pending(self, queue):
        """The coordinator's stale-done path: a done item whose result
        vanished from the store is reset and claimable again."""
        queue.publish(items_for(3))
        item = queue.claim("w0", lease=60.0)
        queue.ack(item.item_id, elapsed=1.5)
        assert queue.reset_items([0, 99]) == 1  # unknown ids ignored
        state = queue.snapshot()[0]
        assert state.status == "pending"
        assert state.attempts == 0
        assert state.elapsed == 0.0
        assert queue.claim("w1", lease=60.0).item_id == 0

    def test_empty_request_is_a_noop(self, queue):
        queue.publish(items_for(1))
        assert queue.reset_items([]) == 0
        assert queue.snapshot()[0].status == "pending"


class TestClear:
    def test_clear_drops_everything(self, queue):
        queue.publish(items_for(3))
        queue.clear()
        assert queue.snapshot() == {}
        assert queue.unfinished() == 0


class TestFingerprint:
    def test_order_insensitive_identity(self):
        batch = items_for(3)
        assert sweep_fingerprint(batch) == sweep_fingerprint(batch[::-1])

    def test_sensitive_to_keys_and_ids(self):
        base = items_for(2)
        rekeyed = [QueueItem(item_id=i.item_id, key="f" * 64,
                             label=i.label, payload=i.payload)
                   for i in base]
        assert sweep_fingerprint(base) != sweep_fingerprint(rekeyed)

    def test_insensitive_to_payload_and_label(self):
        base = items_for(2)
        relabeled = [QueueItem(item_id=i.item_id, key=i.key,
                               label="x", payload=b"other")
                     for i in base]
        assert sweep_fingerprint(base) == sweep_fingerprint(relabeled)
