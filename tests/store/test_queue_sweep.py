"""End-to-end queue-driven sweeps: byte-identical output and resume.

The acceptance bar for the store/queue redesign: a fig3 sweep executed
by independent queue workers — any backend, any worker count, even
interrupted halfway — prints exactly the bytes a plain ``--jobs 1``
run prints.
"""

from __future__ import annotations

import pickle

from repro.experiments.__main__ import main
from repro.experiments.registry import get_experiment
from repro.runner.cache import cell_key
from repro.store import LocalFileStore, QueueItem


def baseline_stdout(tmp_path, capsys):
    assert main(["fig3", "--jobs", "1",
                 "--cache-dir", str(tmp_path / "baseline")]) == 0
    return capsys.readouterr().out


class TestQueueDrivenSweep:
    def test_two_sqlite_workers_match_jobs_1(self, tmp_path, capsys):
        """``--store sqlite: --jobs 2`` is byte-identical to a
        sequential local-cache run."""
        baseline = baseline_stdout(tmp_path, capsys)
        rc = main(["fig3", "--store", f"sqlite:{tmp_path}/results.db",
                   "--jobs", "2"])
        assert rc == 0
        assert capsys.readouterr().out == baseline

    def test_local_worker_matches_jobs_1(self, tmp_path, capsys):
        baseline = baseline_stdout(tmp_path, capsys)
        rc = main(["fig3", "--store", f"local:{tmp_path}/queue-store",
                   "--jobs", "2"])
        assert rc == 0
        assert capsys.readouterr().out == baseline

    def test_interrupted_worker_resumes_through_the_queue(
            self, tmp_path, capsys):
        """A worker stopped after 2 of 4 items (an 'interrupt') leaves a
        half-drained queue; the next full run serves the finished cells
        from the store, re-queues only the remainder, and still prints
        the baseline bytes."""
        from repro.runner.worker import main as worker_main

        baseline = baseline_stdout(tmp_path, capsys)
        store = LocalFileStore(tmp_path / "queue-store")

        # Publish the full sweep exactly as the coordinator would.
        spec = get_experiment("fig3")
        cells = list(spec.cells(spec.config("scaled")))
        keys = [cell_key(cell) for cell in cells]
        queue = store.make_queue("fig3")
        queue.publish([
            QueueItem(item_id=i, key=keys[i], label=cells[i].label,
                      payload=pickle.dumps((i, keys[i], cells[i]),
                                           protocol=pickle.HIGHEST_PROTOCOL))
            for i in range(len(cells))])

        # The "interrupted" worker: drains exactly 2 items, then exits.
        assert worker_main(["--store", store.url, "--queue", "fig3",
                            "--max-items", "2"]) == 0
        counts = queue.counts()
        assert counts["done"] == 2
        assert counts["pending"] == 2
        assert len(store) == 2
        capsys.readouterr()

        # Full rerun: the 2 finished cells are store hits, so only the
        # remaining 2 are re-published (a smaller sweep fingerprint
        # resets the stale queue) and executed by the forked workers.
        rc = main(["fig3", "--store", store.url, "--jobs", "2"])
        assert rc == 0
        assert capsys.readouterr().out == baseline
        assert len(store) == len(cells)
        resumed = store.make_queue("fig3").snapshot()
        assert len(resumed) == 2
        assert all(s.status == "done" for s in resumed.values())
