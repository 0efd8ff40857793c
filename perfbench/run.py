"""End-to-end benchmark of figure regeneration, with a traced per-layer run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload qos32 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload qos32 --seed 0 --seconds 20 --trace 1

``--trace 0`` measures the end-to-end metrics with no timers inside the
program: ``setup_s`` (median of several fresh-interpreter imports), then
one untimed checked pass, then timed passes for about ``--seconds``,
split over three fresh worker interpreters; ``wall_s`` is the median
pass.  ``--trace 1`` runs the checked pass, untraced reference passes and
one traced pass, and reports the per-layer metrics (see ``layers.py``).
Either way every metric is printed by name with its unit, and the last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--record-reference`` stores the checked pass's output digests for the
seed in ``reference.json`` instead of comparing against them.

The program is imported from ``src/`` of the checkout this file lives in
and nowhere else; scratch files go to ``.perfbench/`` in that checkout.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"

#: Fresh-interpreter imports per run; ``setup_s`` is their median.
SETUP_SAMPLES = 7
#: Fresh interpreters that run a ``--trace 0`` run's timed passes.
TIMED_WORKERS = 3
#: Rounds of untraced reference passes in a ``--trace 1`` run.
REFERENCE_ROUNDS = 3
SETUP_IMPORT = "import repro, repro.experiments, repro.runner"

#: The benchmark's record: workloads, metrics with units, and bounds.
RECORD = ROOT / "BENCHMARK.json"


def metric_units(kind: str) -> Dict[str, str]:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics."""
    with open(RECORD, encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _import_program() -> bool:
    """Make ``src/`` of this checkout the only place ``repro`` comes from."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    import repro

    return Path(repro.__file__).resolve().is_relative_to(SRC)


class Tally:
    """Cells attempted and failed across every pass of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        #: Set when the checked pass differs from ``reference.json``: the
        #: later passes reproduce it, so their cells count as failed too.
        self.off_reference = False

    def fail(self, cells: int, why: str) -> None:
        self.failed += cells
        self.problems.append(why)

    def add(self, what: str, result: Any, expected: Optional[str]) -> None:
        """Count a pass; its output must equal ``expected`` (and the warm
        pass, where there is one, must equal the cold pass)."""
        self.attempted += result.attempted
        if self.off_reference:
            self.fail(result.attempted, f"{what}: run is off reference")
            return
        if result.text is None:
            self.fail(result.failed, f"{what}: {result.failed} cell(s) raised")
        elif expected is not None and result.text != expected:
            self.fail(result.cells, f"{what}: output differs from the "
                                    f"checked pass")
        if result.warm_s is not None:
            if result.warm_text is None:
                self.fail(result.warm_failed,
                          f"{what} (warm): {result.warm_failed} cell(s) "
                          f"raised")
            elif result.warm_text != result.text:
                self.fail(result.cells, f"{what}: warm-pass output differs "
                                        f"from the cold pass")


def load_reference() -> Dict[str, Any]:
    if REFERENCE.is_file():
        with open(REFERENCE, encoding="utf-8") as fh:
            return json.load(fh)
    return {}


def checked_pass(workload: Any, config: Any, seed: int, tally: Tally,
                 *, record: bool = False) -> Dict[str, Any]:
    """One untimed pass with the output check attached.

    Compares the output digests with ``reference.json`` for this seed
    (or, with ``record``, writes them there).  Returns the pass's text,
    digests and per-cell records.
    """
    from workloads import CellRecorder, digests, run_pass

    rec_dir = Path(tempfile.mkdtemp(prefix="cells-", dir=WORK))
    try:
        with CellRecorder(rec_dir) as recorder:
            result = run_pass(workload, config, WORK)
        records = recorder.records()
    finally:
        shutil.rmtree(rec_dir, ignore_errors=True)
    tally.add("checked pass", result, None)
    broken = [r["cell"] for r in records
              if any(s["invariants"] for s in r["sims"])]
    if broken:
        tally.fail(len(broken), f"check_invariants failed in {broken}")
    info: Dict[str, Any] = {"text": result.text, "records": records,
                            "kernels": sorted({s["kernel"] for r in records
                                               for s in r["sims"]})}
    if result.text is None:
        return info
    info["digests"] = digests(result.text, records)
    reference = load_reference()
    entry = reference.setdefault(workload.name, {"seeds": {}})
    if record:
        if tally.failed:
            return info
        entry["seeds"][str(seed)] = info["digests"]
        entry["kernels"] = info["kernels"]
        with open(REFERENCE, "w", encoding="utf-8") as fh:
            json.dump(reference, fh, indent=1, sort_keys=True)
            fh.write("\n")
        return info
    expected = entry["seeds"].get(str(seed))
    if expected is None:
        print(f"note: no reference digests for seed {seed}; checked "
              f"invariants and pass-to-pass identity only", file=sys.stderr)
    elif expected != info["digests"]:
        tally.fail(result.attempted,
                   f"output digests differ from reference.json for seed "
                   f"{seed}: {info['digests']} != {expected}")
        tally.off_reference = True
    info["kernels_unrecorded"] = sorted(
        set(info["kernels"]) - set(entry.get("kernels", [])))
    return info


def measure_setup() -> float:
    """Median seconds for a fresh interpreter to import the program."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_IMPORT], cwd=ROOT,
                       env=env, check=True)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def peak_rss_mb() -> float:
    """Peak RSS of this process and of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def host_info() -> Dict[str, Any]:
    """Host calibration recorded with every run."""
    path = ROOT / "benchmarks" / "test_simulator_throughput.py"
    spec = importlib.util.spec_from_file_location("_throughput_bench", path)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {"spin_calibration_s": module.spin_calibration(),
            "python": platform.python_version(),
            "nproc": os.cpu_count() or 1}


def timed_passes(workload: Any, config: Any, seconds: float) -> List[Any]:
    """Passes of the workload for ``seconds``, at least one."""
    from workloads import run_pass

    results: List[Any] = []
    start = time.perf_counter()
    while not results or time.perf_counter() - start < seconds:
        # The previous pass's garbage is collected here, not inside the
        # next pass's timer.
        gc.collect()
        results.append(run_pass(workload, config, WORK))
    return results


def end_to_end_run(workload: Any, config: Any, seed: int, seconds: float,
                   tally: Tally) -> Dict[str, float]:
    """``setup_s``, the checked pass, then timed passes in worker processes.

    The timed passes run in ``TIMED_WORKERS`` fresh interpreters, one
    after another, each with its own fixed ``PYTHONHASHSEED``.  String
    hashing decides how dictionaries lay out, and one process's layout
    moved ``wall_s`` by up to 20% for its whole life; the median over a
    fixed set of layouts repeats from run to run.
    """
    from repro.experiments.registry import get_experiment
    from workloads import PassResult

    setup = measure_setup()
    checked = checked_pass(workload, config, seed, tally)
    walls: List[float] = []
    for k in range(TIMED_WORKERS):
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=str(k + 1))
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--worker",
             "--workload", workload.name, "--seed", str(seed),
             "--seconds", str(seconds / TIMED_WORKERS)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            check=False)
        if out.returncode != 0:
            cells = len(get_experiment(workload.experiment).cells(config))
            tally.attempted += cells
            tally.fail(cells, f"timed worker {k + 1} exited with "
                              f"{out.returncode}")
            continue
        for result in json.loads(out.stdout.splitlines()[-1]):
            walls.append(result["wall_s"])
            tally.add(f"timed pass {len(walls)}", PassResult(**result),
                      checked["text"])
    if not walls:
        raise RuntimeError("no timed pass completed")
    print(f"wall_s per pass: {[round(w, 4) for w in walls]}")
    return {"wall_s": statistics.median(walls),
            "setup_s": setup, "peak_rss_mb": peak_rss_mb()}


def _per_process(records: List[Dict[str, Any]]) -> Dict[str, float]:
    by_pid: Dict[int, List[tuple]] = {}
    for r in records:
        by_pid.setdefault(r["pid"], []).extend(tuple(k) for k in r["synth"])
    procs = sorted(by_pid.values(), key=len, reverse=True) + [[], []]
    out: Dict[str, float] = {}
    for i, keys in enumerate(procs[:2]):
        out[f"trace.synth_calls.proc{i}"] = len(keys)
        out[f"trace.synth_distinct.proc{i}"] = len(set(keys))
    if len(by_pid) > 2:
        raise RuntimeError(f"cells ran in {len(by_pid)} processes, expected "
                           f"at most 2")
    return out


def traced_run(workload: Any, config: Any, seed: int, tally: Tally,
               host: Dict[str, Any]) -> Dict[str, float]:
    from layers import (Instrumented, SpanRecorder, cell_seconds,
                        layer_totals, replay_kernel)
    from workloads import run_pass

    checked = checked_pass(workload, config, seed, tally)
    expected = checked["text"]
    # Untraced references, alternated and taken as medians: wall_s at the
    # workload's jobs, with telemetry on, and inline (for the trace
    # overhead and the pool's efficiency).
    walls: Dict[str, List[float]] = {"plain": [], "telemetry": [],
                                     "inline": [], "warm": []}
    for _ in range(REFERENCE_ROUNDS):
        gc.collect()
        plain = run_pass(workload, config, WORK)
        tally.add("untraced pass", plain, expected)
        walls["plain"].append(plain.wall_s)
        walls["warm"].append(plain.warm_s or 0.0)
        walls["inline"].append(plain.wall_s)
        if workload.jobs != 1:
            gc.collect()
            inline = run_pass(workload, config, WORK, jobs=1)
            tally.add("untraced inline pass", inline, expected)
            walls["inline"][-1] = inline.wall_s
        telemetry_dir = Path(tempfile.mkdtemp(prefix="telemetry-", dir=WORK))
        try:
            gc.collect()
            with_telemetry = run_pass(workload, config, WORK,
                                      telemetry=telemetry_dir)
        finally:
            shutil.rmtree(telemetry_dir, ignore_errors=True)
        tally.add("telemetry pass", with_telemetry, expected)
        walls["telemetry"].append(with_telemetry.wall_s)
    wall = {name: statistics.median(values) for name, values in walls.items()}

    spans = SpanRecorder()
    instrumented = Instrumented(spans, workload.experiment)
    gc.collect()
    with instrumented:
        traced = run_pass(workload, config, WORK, jobs=1,
                          on_store=instrumented.wrap_store)
    tally.add("traced pass", traced, expected)
    spans.write(WORK / f"spans-{workload.name}-seed{seed}.json")

    by_cell: Dict[str, List[Any]] = {}
    for run in instrumented.engine_runs:
        by_cell.setdefault(run.cell.label, []).append(run)
    kernel_s = 0.0
    accesses = misses = 0
    for runs in by_cell.values():
        for replay in replay_kernel(runs[0].cell, runs):
            kernel_s += replay.seconds
            accesses += replay.run.hits + replay.run.misses
            misses += replay.run.misses
            if not replay.matches:
                tally.fail(1, f"{replay.run.cell.label}: kernel replay gave "
                              f"{replay.hits} hits / {replay.misses} misses "
                              f"over {replay.calls} calls, the engine "
                              f"{replay.run.hits} / {replay.run.misses}")

    rows = spans.spans
    totals = layer_totals(rows)
    synth = [s for s in rows if s["name"] == "trace.synth"]
    synth_s = totals.get("trace.synth", 0.0)
    synth_keys = [tuple(s["key"]) for s in synth]
    cells = cell_seconds(rows)
    q = statistics.quantiles(cells, n=4) if len(cells) > 1 else cells * 3
    gets = [s for s in rows if s["name"] == "store.get"]
    sweeps = [s["id"] for s in rows if s["name"] == "sweep"]
    warm_gets = [s for s in gets if s["parent"] == sweeps[-1]]
    hit_ratio = (sum(s["hit"] for s in warm_gets) / len(warm_gets)
                 if workload.store and warm_gets else 0.0)
    if workload.store and hit_ratio != 1.0:
        tally.fail(traced.cells, f"warm pass store hit ratio {hit_ratio}")
    sim_s = totals.get("sim.run", 0.0)
    python = sys.version_info

    metrics: Dict[str, float] = {
        "trace.synth_s": synth_s,
        "trace.synth_calls": len(synth),
        "trace.synth_distinct": len(set(synth_keys)),
        "trace.synth_repeat_frac":
            (len(synth) - len(set(synth_keys))) / len(synth) if synth else 0.0,
        "trace.synth_ns_per_access":
            synth_s * 1e9 / max(1, sum(s["accesses"] for s in synth)),
        **_per_process(checked["records"]),
        "trace.next_use_s": totals.get("trace.next_use", 0.0),
        "experiments.prefill_s": totals.get("experiments.prefill", 0.0),
        "experiments.reduce_s": totals.get("experiments.reduce", 0.0),
        "experiments.format_s": totals.get("experiments.format", 0.0),
        "sim.run_s": sim_s,
        "sim.accesses": accesses,
        "sim.ns_per_access": sim_s * 1e9 / max(1, accesses),
        "sim.engine_s": sim_s - kernel_s,
        "cache.kernel_s": kernel_s,
        "cache.kernel_ns_per_access": kernel_s * 1e9 / max(1, accesses),
        "cache.misses": misses,
        "cache.kernels_distinct": len(checked["kernels"]),
        "cache.kernels_unrecorded": len(checked.get("kernels_unrecorded",
                                                    [])),
        "runner.cells": len(cells),
        "runner.cell_s_p50": q[1],
        "runner.cell_s_p75": q[2],
        "runner.cell_self_s": totals.get("cell", 0.0),
        # Sum of inline cell seconds, taken untraced as the inline pass's
        # wall, over the seconds the pool's processes had.
        "runner.parallel_eff":
            wall["inline"] / (workload.jobs * wall["plain"]),
        "store.put_count": sum(s["name"] == "store.put" for s in rows),
        "store.put_s": totals.get("store.put", 0.0),
        "store.get_count": len(gets),
        "store.get_s": totals.get("store.get", 0.0),
        "store.hit_ratio": hit_ratio,
        "store.warm_s": wall["warm"],
        "obs.telemetry_overhead_frac":
            (wall["telemetry"] - wall["plain"]) / wall["plain"],
        "bench.trace_overhead_frac":
            (traced.wall_s - wall["inline"]) / wall["inline"],
        "host.spin_calibration_s": host["spin_calibration_s"],
        "host.nproc": host["nproc"],
        "host.python_version": python.major * 100 + python.minor,
    }
    if checked.get("kernels_unrecorded"):
        print(f"kernel sources not in reference.json: "
              f"{checked['kernels_unrecorded']}")
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--record-reference", action="store_true",
                        help="write this seed's output digests to "
                             "reference.json instead of checking them")
    args = parser.parse_args(argv)

    if not _import_program():
        print(f"error: the program is not importable from {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    tempfile.tempdir = str(WORK)
    config = workload.make_config(args.seed)
    tally = Tally()
    if args.worker:
        results = timed_passes(workload, config, args.seconds)
        print(json.dumps([dataclasses.asdict(r) for r in results]))
        return 0
    if args.record_reference:
        info = checked_pass(workload, config, args.seed, tally, record=True)
        print(json.dumps(info.get("digests")))
        return 0 if tally.failed == 0 else 1

    host = host_info()
    print(f"host: python {host['python']}, nproc {host['nproc']}, "
          f"spin_calibration {host['spin_calibration_s']:.4f} s")
    if args.trace:
        metrics = traced_run(workload, config, args.seed, tally, host)
        units = metric_units("per_layer")
    else:
        metrics = end_to_end_run(workload, config, args.seed, args.seconds,
                                 tally)
        units = metric_units("end_to_end")
    for problem in tally.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(f"{'metric':<32} {'value':>16}  unit")
    for name, unit in units.items():
        print(f"{name:<32} {metrics[name]:>16.6g}  {unit}")
    print(f"cells attempted {tally.attempted}, failed {tally.failed}")
    record = {"workload": workload.name, "seed": args.seed,
              "trace": args.trace, "host": host, "metrics": metrics,
              "problems": tally.problems}
    with open(WORK / f"last-{workload.name}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
