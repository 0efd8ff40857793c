"""Chaos runs: the worker fleet under injected faults, byte for byte.

The acceptance bar for the resilience layer: a fig3 sweep executed by
queue workers under store fault injection, a cell slower than its
lease, and a broken store prints exactly the bytes a fault-free
``--jobs 1`` run prints — or fails loudly with the right exit code.

The heartbeat distinction, asserted both ways:

* renewal **on** (the default): the slow cell's lease is renewed while
  it runs, so ``steals == 0`` and ``renewals >= 1``;
* renewal **off** (``--queue-renew-interval 0``): the idle worker
  steals the expired lease and re-executes the cell, so
  ``steals > 0`` — and the output *still* matches, because cells are
  deterministic and delivery is at-least-once.
"""

from __future__ import annotations

import json

from repro.experiments.__main__ import main
from repro.runner.worker import EXIT_STORE_PERMANENT
from repro.runner.worker import main as worker_main
from repro.store import open_store
from repro.store.faults import FAULTS_ENV

#: One fig3 cell sleeps well past the 0.4 s lease used below.
SLOW_CELL_PLAN = json.dumps({"faults": [
    {"cell": "fig3[0.6]", "kind": "hang", "seconds": 2.0}]})

#: Every third store/queue call hits lock contention, claims see extra
#: latency, and each worker's first result write is torn mid-blob.
NOISY_STORE_PLAN = json.dumps({"faults": [
    {"op": "*", "kind": "busy", "every": 3},
    {"op": "claim", "kind": "latency", "seconds": 0.01},
    {"op": "put", "kind": "torn", "times": 1}]})

#: One document for both halves of the harness: a cell raises on its
#: first attempt, and every other store/queue call hits contention.
MIXED_PLAN = json.dumps({"faults": [
    {"cell": "fig3[0.7]", "kind": "raise", "attempts": [1]},
    {"op": "*", "kind": "busy", "every": 2}]})

#: Workers die permanently on their first claim; the coordinator —
#: which never claims — keeps running and must notice.
BROKEN_STORE_PLAN = json.dumps({"faults": [
    {"op": "claim", "kind": "fatal"}]})


def baseline_stdout(tmp_path, capsys):
    assert main(["fig3", "--jobs", "1",
                 "--cache-dir", str(tmp_path / "baseline")]) == 0
    return capsys.readouterr().out


def queue_totals(url):
    """(sum of renewals, sum of losses) over the fig3 queue."""
    store = open_store(url)
    try:
        states = store.make_queue("fig3").snapshot()
        return (sum(s.renewals for s in states.values()),
                sum(s.losses for s in states.values()))
    finally:
        store.close()


class TestHeartbeatChaos:
    def test_renewal_keeps_a_slow_cell_unstolen(self, tmp_path, capsys,
                                                monkeypatch):
        """A cell 5x slower than the lease is never stolen while its
        worker heartbeats (the default), and the output is
        byte-identical to a fault-free sequential run."""
        baseline = baseline_stdout(tmp_path, capsys)
        monkeypatch.setenv(FAULTS_ENV, SLOW_CELL_PLAN)
        url = f"sqlite:{tmp_path}/chaos.db"
        rc = main(["fig3", "--store", url, "--jobs", "2",
                   "--queue-lease", "0.4"])
        assert rc == 0
        assert capsys.readouterr().out == baseline
        renewals, steals = queue_totals(url)
        assert steals == 0, "a heartbeating worker must never be stolen from"
        assert renewals >= 1, "the slow cell must have renewed its lease"

    def test_disabled_renewal_forces_a_steal_and_output_still_matches(
            self, tmp_path, capsys, monkeypatch):
        """With heartbeats off the idle worker steals the expired lease
        and re-executes the slow cell — charged to the loss budget, yet
        invisible in the output (deterministic cells, idempotent puts,
        at-least-once delivery)."""
        baseline = baseline_stdout(tmp_path, capsys)
        monkeypatch.setenv(FAULTS_ENV, SLOW_CELL_PLAN)
        url = f"sqlite:{tmp_path}/chaos.db"
        rc = main(["fig3", "--store", url, "--jobs", "2",
                   "--queue-lease", "0.4", "--queue-renew-interval", "0"])
        assert rc == 0
        assert capsys.readouterr().out == baseline
        renewals, steals = queue_totals(url)
        assert steals >= 1, "an expired lease with no heartbeat is stolen"
        assert renewals == 0


class TestStoreFaultChaos:
    def test_injected_store_faults_are_absorbed_byte_identically(
            self, tmp_path, capsys, monkeypatch):
        """Lock contention, claim latency, and torn result writes are
        all absorbed by the retry stack: same bytes, full store, no
        quarantined entries."""
        baseline = baseline_stdout(tmp_path, capsys)
        monkeypatch.setenv(FAULTS_ENV, NOISY_STORE_PLAN)
        url = f"sqlite:{tmp_path}/noisy.db"
        rc = main(["fig3", "--store", url, "--jobs", "2"])
        assert rc == 0
        assert capsys.readouterr().out == baseline
        monkeypatch.delenv(FAULTS_ENV)
        store = open_store(url)
        try:
            assert len(store) == 4
            assert store.quarantined_count() == 0
        finally:
            store.close()

    def test_one_plan_drives_cell_and_store_faults(self, tmp_path, capsys,
                                                   monkeypatch):
        """A single ``$REPRO_FAULTS`` document carries a cell ``raise``
        and an op ``busy``: the retry budget absorbs the first, the
        store retry stack the second, and the bytes still match."""
        baseline = baseline_stdout(tmp_path, capsys)
        monkeypatch.setenv(FAULTS_ENV, MIXED_PLAN)
        rc = main(["fig3", "--store", f"sqlite:{tmp_path}/mixed.db",
                   "--jobs", "2", "--retries", "1"])
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.out == baseline
        assert "fig3[0.7]: attempt 1 failed (InjectedFaultError" \
            in captured.err

    def test_worker_exits_distinctly_on_a_permanent_store_error(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, BROKEN_STORE_PLAN)
        rc = worker_main(["--store", f"local:{tmp_path}/store",
                          "--queue", "doomed"])
        assert rc == EXIT_STORE_PERMANENT
        err = capsys.readouterr().err
        assert "store failure (permanent)" in err
        assert "malformed" in err

    def test_coordinator_stops_respawning_into_a_broken_store(
            self, tmp_path, capsys, monkeypatch):
        """Workers dying with EXIT_STORE_PERMANENT shrink the fleet
        instead of burning the respawn budget; the sweep fails loudly
        with the store-specific reason."""
        monkeypatch.setenv(FAULTS_ENV, BROKEN_STORE_PLAN)
        rc = main(["fig3", "--store", f"sqlite:{tmp_path}/broken.db",
                   "--jobs", "2", "--keep-going"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "aborted on permanent store errors" in err
        assert "4 failed cell(s)" in err
