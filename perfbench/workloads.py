"""The benchmark's workloads, one measured pass of each, and the output check.

Each workload is a cut of a figure users wait for at ``--scale scaled``,
shrunk so that one pass takes a few seconds and a run can time several
passes.  It is driven only through the public entry points
``repro.api.run_experiment`` and ``ExperimentSpec.format``; the workload
seed goes into the experiment config's ``seed`` field.

The output check (:class:`CellRecorder`) wraps ``Cell.run``,
``MultiprogramSimulator.run`` and ``BenchmarkProfile.trace`` from the
benchmark's side to record, per executed cell, the per-thread
accesses/misses/cycles, whether the cache passes ``check_invariants()``,
the sha256 of the compiled access kernel and the traces synthesized.  It
runs on an untimed pass only; timed passes run the program unwrapped.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro import api
from repro.errors import SweepError
from repro.experiments.fig2 import Fig2Config
from repro.experiments.fig6 import Fig6Config
from repro.experiments.fig7 import Fig7Config
from repro.experiments.registry import get_experiment
from repro.runner import RunConfig
from repro.runner.cells import Cell
from repro.sim.engine import MultiprogramSimulator
from repro.store import ExperimentStore, open_store
from repro.trace.spec import BenchmarkProfile

__all__ = ["WORKLOADS", "Workload", "PassResult", "CellRecorder",
           "run_pass", "digests", "sha256_text"]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``store`` workloads run cold into a fresh ``sqlite:`` store and then
    warm from the same store; ``wall_s`` is the cold pass.
    """

    name: str
    experiment: str
    make_config: Callable[[int], Any]
    jobs: int = 1
    store: bool = False


def _qos32(seed: int) -> Fig7Config:
    # Fig. 7 at one point: 32 threads, 13 gromacs subjects, FS vs Vantage.
    # Both cells synthesize the same 32 traces (32 of 64 calls repeat).
    return dataclasses.replace(
        Fig7Config.scaled(), subject_counts=(13,),
        schemes=("fs-feedback", "vantage"), trace_length=5_000,
        instruction_limit=30_000, seed=seed)


def _pf_opt_n32(seed: int) -> Fig2Config:
    # Fig. 2 for mcf: PF under OPT at N=1 and N=32; the N=32 cell is
    # dominated by the generic PF victim path and the next-use precompute.
    return dataclasses.replace(
        Fig2Config.scaled(), benchmarks=("mcf",), partition_counts=(1, 32),
        trace_length=6_000, seed=seed)


def _assoc_jobs2(seed: int) -> Fig6Config:
    # Fig. 6 subset: 48 single-thread cells on fully-associative and
    # direct-mapped arrays; 45 of 48 synthesis calls repeat.
    return dataclasses.replace(
        Fig6Config.scaled(), benchmarks=("mcf", "gromacs", "lbm"),
        trace_length=12_000, seed=seed)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("qos32", "fig7", _qos32),
    Workload("pf-opt-n32", "fig2", _pf_opt_n32),
    Workload("assoc-jobs2", "fig6", _assoc_jobs2, jobs=2, store=True),
)}


@dataclass
class PassResult:
    """What one pass produced: wall seconds and the formatted output.

    ``text`` is ``None`` when the sweep had failed cells (counted in
    ``failed``); ``warm_*`` are set for store workloads only.
    """

    cells: int
    wall_s: float
    text: Optional[str]
    failed: int
    warm_s: Optional[float] = None
    warm_text: Optional[str] = None
    warm_failed: int = 0

    @property
    def attempted(self) -> int:
        return self.cells * (2 if self.warm_s is not None else 1)


def _sweep(name: str, config: Any, run_config: RunConfig,
           telemetry: Optional[Path]) -> "tuple[Optional[str], int]":
    try:
        result = api.run_experiment(name, config=config,
                                    run_config=run_config,
                                    telemetry=telemetry)
    except SweepError as err:
        return None, len(err.failures)
    # Looked up per call so a traced run's registry substitution is seen.
    return get_experiment(name).format(result), 0


def run_pass(workload: Workload, config: Any, work: Path, *,
             jobs: Optional[int] = None, telemetry: Optional[Path] = None,
             on_store: Optional[Callable[[ExperimentStore], None]] = None,
             ) -> PassResult:
    """Run the workload once: ``run_experiment`` call to formatted output.

    ``jobs`` overrides the workload's parallelism; ``on_store`` sees the
    fresh store before the cold pass (the traced run wraps its methods).
    """
    cells = len(get_experiment(workload.experiment).cells(config))
    store_dir: Optional[Path] = None
    store: Optional[ExperimentStore] = None
    if workload.store:
        store_dir = Path(tempfile.mkdtemp(prefix="store-", dir=work))
        store = open_store(f"sqlite:{store_dir / 'results.db'}")
        if on_store is not None:
            on_store(store)
    run_config = RunConfig(jobs=jobs or workload.jobs, store=store,
                           keep_going=True)
    try:
        t0 = time.perf_counter()
        text, failed = _sweep(workload.experiment, config, run_config,
                              telemetry)
        result = PassResult(cells, time.perf_counter() - t0, text, failed)
        if store is not None:
            t1 = time.perf_counter()
            result.warm_text, result.warm_failed = _sweep(
                workload.experiment, config, run_config, None)
            result.warm_s = time.perf_counter() - t1
        return result
    finally:
        if store is not None:
            store.close()
        if store_dir is not None:
            shutil.rmtree(store_dir, ignore_errors=True)


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class CellRecorder:
    """Records what the output check needs from every executed cell.

    Works inline and in forked pool workers alike: each process appends
    one JSON line per cell to its own file under ``out_dir``, and
    :meth:`records` gathers them after the pass.
    """

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = out_dir
        self._current: Optional[Dict[str, Any]] = None
        self._saved: List[tuple] = []

    def __enter__(self) -> "CellRecorder":
        self.out_dir.mkdir(parents=True, exist_ok=True)
        recorder = self
        cell_run = Cell.run
        sim_run = MultiprogramSimulator.run
        synth = BenchmarkProfile.trace

        def run_cell(cell: Cell) -> Any:
            record: Dict[str, Any] = {"cell": cell.label, "pid": os.getpid(),
                                      "synth": [], "sims": []}
            recorder._current = record
            try:
                return cell_run(cell)
            finally:
                recorder._current = None
                path = recorder.out_dir / f"cells-{os.getpid()}.jsonl"
                with open(path, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(record) + "\n")

        def run_sim(sim: MultiprogramSimulator) -> Any:
            kernel = sha256_text(sim.cache.access.__kernel_source__)
            result = sim_run(sim)
            try:
                sim.cache.check_invariants()
                broken = None
            except AssertionError as exc:
                broken = str(exc) or "check_invariants failed"
            if recorder._current is not None:
                recorder._current["sims"].append({
                    "kernel": kernel, "invariants": broken,
                    "threads": [[t.accesses, t.misses, t.cycles]
                                for t in result.threads]})
            return result

        def trace(profile: BenchmarkProfile, length: int, *, seed: int = 0,
                  addr_base: int = 0, scale: float = 1.0) -> Any:
            if recorder._current is not None:
                recorder._current["synth"].append(
                    [profile.name, length, seed, addr_base, scale])
            return synth(profile, length, seed=seed, addr_base=addr_base,
                         scale=scale)

        self._saved = [(Cell, "run", cell_run),
                       (MultiprogramSimulator, "run", sim_run),
                       (BenchmarkProfile, "trace", synth)]
        Cell.run = run_cell  # type: ignore[method-assign]
        MultiprogramSimulator.run = run_sim  # type: ignore[method-assign]
        BenchmarkProfile.trace = trace  # type: ignore[method-assign]
        return self

    def __exit__(self, *exc: Any) -> None:
        for owner, attr, original in self._saved:
            setattr(owner, attr, original)
        self._saved = []

    def records(self) -> List[Dict[str, Any]]:
        rows = []
        for path in sorted(self.out_dir.glob("cells-*.jsonl")):
            with open(path, encoding="utf-8") as fh:
                rows.extend(json.loads(line) for line in fh if line.strip())
        return sorted(rows, key=lambda r: r["cell"])


def digests(text: str, records: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The output identity of one pass, as committed in ``reference.json``.

    ``output_sha256`` covers the formatted figure text and
    ``threads_sha256`` every cell's per-thread (accesses, misses,
    cycles), ordered by cell label so any ``jobs`` gives the same value.
    """
    threads = [[r["cell"], [s["threads"] for s in r["sims"]]]
               for r in records]
    return {
        "output_sha256": sha256_text(text),
        "threads_sha256": sha256_text(json.dumps(threads)),
        "accesses": sum(t[0] for r in records for s in r["sims"]
                        for t in s["threads"]),
        "misses": sum(t[1] for r in records for s in r["sims"]
                      for t in s["threads"]),
    }
