"""Traced chaos runs: faults, retries, and steals must leave complete,
deterministic traces — and never perturb the experiment's output.

The acceptance bar for the tracing layer, asserted end to end through
the experiments CLI:

* a traced queue fleet under fault injection prints exactly the bytes
  a fault-free untraced ``--jobs 1`` run prints (observation is pure);
* the stitched span tree passes every completeness invariant — the
  claim ladder is 1..K, each claim has its execute, each retried
  attempt has its nack, and exactly one terminal closes the cell;
* the canonical projection is byte-identical across worker counts for
  raise-based fault plans (retries are deterministic; schedules are
  not, and they must not leak into the projection).
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.__main__ import main
from repro.obs.schema import validate_run_dir
from repro.obs.stitch import canonical, completeness, load_trace_rows, stitch
from repro.store import open_store
from repro.store.faults import FAULTS_ENV

#: One fig3 cell raises on its first attempt and succeeds on retry.
RETRY_PLAN = json.dumps({"faults": [
    {"cell": "fig3[0.6]", "kind": "raise", "attempts": [1]}]})

#: One fig3 cell sleeps well past the 0.4 s lease used below.
SLOW_PLAN = json.dumps({"faults": [
    {"cell": "fig3[0.6]", "kind": "hang", "seconds": 1.5}]})

#: One fig3 cell's worker is SIGKILLed on the cell's first attempt.
KILL_PLAN = json.dumps({"faults": [
    {"cell": "fig3[0.6]", "kind": "kill", "attempts": [1]}]})

#: One fig3 cell hangs on its first attempt, far past the timeout.
HANG_PLAN = json.dumps({"faults": [
    {"cell": "fig3[0.6]", "kind": "hang", "seconds": 30.0,
     "attempts": [1]}]})

#: Every other queue/store call hits lock contention first.
BUSY_PLAN = json.dumps({"faults": [{"op": "*", "kind": "busy", "every": 2}]})


def baseline_stdout(tmp_path, capsys):
    assert main(["fig3", "--jobs", "1",
                 "--cache-dir", str(tmp_path / "baseline")]) == 0
    return capsys.readouterr().out


def traced_fleet(tmp_path, tag, *extra):
    """Run a traced fig3 queue fleet; returns the telemetry run dir."""
    obs = tmp_path / f"obs-{tag}"
    rc = main(["fig3", "--store", f"sqlite:{tmp_path}/{tag}.db",
               "--trace", "--telemetry", str(obs), *extra])
    assert rc == 0
    return obs / "fig3"


def stitched(run_dir):
    tree = stitch(load_trace_rows([run_dir]))
    assert completeness(tree) == [], "trace must be causally complete"
    return tree


def spans_for(tree, label, kind):
    """Spans of one cell, selected by label (keys are cache hashes)."""
    return sorted((s for s in tree["spans"].values()
                   if s["name"] == label and s["kind"] == kind),
                  key=lambda s: s["attempt"])


class TestRetriedCellTrace:
    def test_retry_leaves_a_complete_two_attempt_ladder(
            self, tmp_path, capsys, monkeypatch):
        baseline = baseline_stdout(tmp_path, capsys)
        monkeypatch.setenv(FAULTS_ENV, RETRY_PLAN)
        run_dir = traced_fleet(tmp_path, "retry", "--jobs", "2",
                               "--retries", "1")
        assert capsys.readouterr().out == baseline
        assert validate_run_dir(run_dir) == []
        tree = stitched(run_dir)

        label = "fig3[0.6]"
        claims = spans_for(tree, label, "claim")
        assert [c["attempt"] for c in claims] == [1, 2]
        executes = spans_for(tree, label, "execute")
        assert [e["attempt"] for e in executes] == [1, 2]
        # The faulted attempt carries the deterministic fault event.
        fault_events = [e for e in executes[0]["events"]
                        if e["name"] == "fault"]
        assert fault_events and all(e["det"] for e in fault_events)
        # Attempt 1 ends in a nack explaining the error and the retry.
        (nack,) = spans_for(tree, label, "nack")
        assert nack["attempt"] == 1
        names = [e["name"] for e in nack["events"]]
        assert "error" in names and "retry_scheduled" in names
        # Attempt 2 ends in the cell's single ack.
        (ack,) = spans_for(tree, label, "ack")
        assert ack["attempt"] == 2

    def test_canonical_projection_is_worker_count_invariant(
            self, tmp_path, capsys, monkeypatch):
        """Same sweep, same fault plan, different schedules: 2-worker
        and 4-worker fleets must agree byte for byte after the wall
        clock and schedule-dependent events are projected away."""
        monkeypatch.setenv(FAULTS_ENV, RETRY_PLAN)
        duo = traced_fleet(tmp_path, "duo", "--jobs", "2",
                           "--retries", "1")
        quad = traced_fleet(tmp_path, "quad", "--jobs", "4",
                            "--retries", "1")
        capsys.readouterr()
        assert (canonical(stitched(duo)) == canonical(stitched(quad)))


class TestDeadWorkerTrace:
    """The coordinator closes the attempt of a worker that died inside
    its ``execute`` span — killed by a fault, or by the coordinator
    itself on a ``cell_timeout`` — so the ladder stays complete."""

    @pytest.mark.parametrize("plan,extra", [
        (KILL_PLAN, ()),
        (HANG_PLAN, ("--retries", "1", "--cell-timeout", "2")),
    ], ids=["kill", "timeout"])
    def test_dead_attempt_is_closed_by_the_coordinator(
            self, tmp_path, capsys, monkeypatch, plan, extra):
        baseline = baseline_stdout(tmp_path, capsys)
        monkeypatch.setenv(FAULTS_ENV, plan)
        run_dir = traced_fleet(tmp_path, "dead", "--jobs", "2", *extra)
        assert capsys.readouterr().out == baseline
        assert validate_run_dir(run_dir) == []
        tree = stitched(run_dir)

        label = "fig3[0.6]"
        assert [c["attempt"] for c in spans_for(tree, label, "claim")] \
            == [1, 2]
        first, second = spans_for(tree, label, "execute")
        assert first["status"] == "error" and second["status"] == "ok"
        (nack,) = spans_for(tree, label, "nack")
        assert nack["attempt"] == 1
        assert [e["name"] for e in nack["events"]] == [
            "error", "retry_scheduled"]
        (ack,) = spans_for(tree, label, "ack")
        assert ack["attempt"] == 2


class TestStolenCellTrace:
    def test_a_steal_is_traced_and_the_tree_stays_complete(
            self, tmp_path, capsys, monkeypatch):
        """With heartbeats off, the slow cell's lease expires and the
        idle worker steals it. The re-execution is at-least-once noise:
        the output still matches and the stitched tree is complete —
        the steal survives only as a det=False event."""
        baseline = baseline_stdout(tmp_path, capsys)
        monkeypatch.setenv(FAULTS_ENV, SLOW_PLAN)
        url = f"sqlite:{tmp_path}/steal.db"
        obs = tmp_path / "obs-steal"
        rc = main(["fig3", "--store", url, "--jobs", "2",
                   "--queue-lease", "0.4", "--queue-renew-interval", "0",
                   "--trace", "--telemetry", str(obs)])
        assert rc == 0
        assert capsys.readouterr().out == baseline
        run_dir = obs / "fig3"
        tree = stitched(run_dir)
        steal_events = [e for span in tree["spans"].values()
                        for e in span["events"] if e["name"] == "steal"]
        assert steal_events, "the stolen lease must appear in the trace"
        assert all(not e["det"] for e in steal_events)
        store = open_store(url)
        try:
            states = store.make_queue("fig3").snapshot()
            assert sum(s.losses for s in states.values()) >= 1
        finally:
            store.close()


class TestStoreFaultTrace:
    def test_store_retries_are_traced_but_canonically_invisible(
            self, tmp_path, capsys, monkeypatch):
        """Queue-op contention shows up as store_retry events in the
        raw rows, yet the canonical projection equals a fault-free
        run's — backoff is schedule, not causality."""
        clean = traced_fleet(tmp_path, "clean", "--jobs", "2")
        monkeypatch.setenv(FAULTS_ENV, BUSY_PLAN)
        busy = traced_fleet(tmp_path, "busy", "--jobs", "2")
        monkeypatch.delenv(FAULTS_ENV)
        capsys.readouterr()
        rows = load_trace_rows([busy])
        retry_events = [e for row in rows for e in row["events"]
                        if e["name"] == "store_retry"]
        assert retry_events, "busy faults must be traced as store_retry"
        assert all(not e["det"] for e in retry_events)
        assert (canonical(stitched(busy)) == canonical(stitched(clean)))


class TestTracingOff:
    def test_untraced_runs_write_no_trace_artifacts(self, tmp_path,
                                                    capsys):
        obs = tmp_path / "obs-plain"
        rc = main(["fig3", "--store", f"sqlite:{tmp_path}/plain.db",
                   "--jobs", "2", "--telemetry", str(obs)])
        assert rc == 0
        capsys.readouterr()
        assert not (obs / "fig3" / "traces").exists()

    def test_trace_without_telemetry_is_a_usage_error(self, tmp_path,
                                                      capsys):
        with pytest.raises(SystemExit) as err:
            main(["fig3", "--cache-dir", str(tmp_path / "c"), "--trace"])
        assert err.value.code == 2
        assert "--trace requires --telemetry" in capsys.readouterr().err
