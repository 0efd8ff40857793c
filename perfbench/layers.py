"""The traced run: spans around each layer's public functions.

Every timer here is installed by the benchmark, around calls into the
program; nothing under ``src/`` changes.  Spans stay in memory and are
written once when the run ends.  Each span records its parent, and every
span inside a cell carries the cell label, so a layer's self time is its
span minus its children.

Layers and the functions wrapped:

* ``sweep``              -- ``repro.api.run_experiment`` (one per sweep)
* ``cell``               -- ``Cell.run`` (runner; one span per cell)
* ``trace.synth``        -- ``BenchmarkProfile.trace``
* ``trace.next_use``     -- ``Trace.next_use`` when it computes
* ``experiments.prefill``-- ``prefill_to_targets``
* ``sim.run``            -- ``MultiprogramSimulator.run``
* ``experiments.reduce`` / ``experiments.format`` -- the registered spec
* ``store.get`` / ``store.put`` -- the store instance passed in

The access kernel is not timed inside the simulation.  After the traced
pass every cell it ran is executed twice more, untraced: once with
``cache.access`` logging its calls, and once with ``MultiprogramSimulator.run``
replaced by a replay of that log, under one timer, into the cache that
the cell has just built and prefilled again.  The replay must reproduce the engine's hits exactly.
Snapshots are not taken by pickling: pickling or unpickling an object
materializes its ``__dict__``, which slows CPython 3.11's attribute access
in the kernel and in the engine after it.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import api
from repro.experiments import common
from repro.experiments.registry import get_experiment, register
from repro.runner.cells import Cell
from repro.sim.engine import MultiprogramSimulator
from repro.store import ExperimentStore
from repro.trace.access import Trace
from repro.trace.spec import BenchmarkProfile

__all__ = ["SpanRecorder", "Instrumented", "KernelReplay", "replay_kernel",
           "cell_seconds", "layer_totals"]


class SpanRecorder:
    """In-memory spans of one process: name, start, end, parent, cell."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[Dict[str, Any]] = []

    def begin(self, name: str, **attrs: Any) -> Dict[str, Any]:
        parent = self._stack[-1] if self._stack else None
        cell = attrs.get("label") if name == "cell" else (
            parent["cell"] if parent is not None else None)
        span = {"id": len(self.spans), "name": name,
                "parent": parent["id"] if parent is not None else None,
                "cell": cell, "start": time.perf_counter(), "end": None,
                **attrs}
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Dict[str, Any]) -> None:
        span["end"] = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span['name']} closed out of order")

    def wrap(self, fn: Callable[..., Any], name: str,
             attrs: Optional[Callable[..., Dict[str, Any]]] = None
             ) -> Callable[..., Any]:
        def wrapped(*args: Any, **kwargs: Any) -> Any:
            span = self.begin(name, **(attrs(*args, **kwargs)
                                       if attrs is not None else {}))
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(span)
        return wrapped

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def self_times(spans: List[Dict[str, Any]]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_totals(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Summed self time per span name."""
    totals: Dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span["name"]] = totals.get(span["name"], 0.0) + own
    return totals


def cell_seconds(spans: List[Dict[str, Any]]) -> List[float]:
    """Each cell span's duration."""
    return [s["end"] - s["start"] for s in spans if s["name"] == "cell"]


@dataclasses.dataclass
class EngineRun:
    """What one ``MultiprogramSimulator.run`` of the traced pass produced."""

    cell: Cell
    threads: List[Tuple[int, int, float]]
    hits: int
    misses: int


class Instrumented:
    """Context manager installing the span wrappers for one traced pass."""

    def __init__(self, recorder: SpanRecorder, experiment: str) -> None:
        self.recorder = recorder
        self.experiment = experiment
        self.engine_runs: List[EngineRun] = []
        self._saved: List[Tuple[Any, str, Any]] = []
        self._spec = None

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> "Instrumented":
        rec = self.recorder
        self._patch(api, "run_experiment",
                    rec.wrap(api.run_experiment, "sweep"))
        self._patch(BenchmarkProfile, "trace", rec.wrap(
            BenchmarkProfile.trace, "trace.synth",
            lambda profile, length, *, seed=0, addr_base=0, scale=1.0: {
                "key": [profile.name, length, seed, addr_base, scale],
                "accesses": length}))

        next_use = Trace.next_use.fget
        timed_next_use = rec.wrap(next_use, "trace.next_use")

        def next_use_getter(trace: Trace) -> Any:
            if trace._next_use is None:
                return timed_next_use(trace)
            return next_use(trace)
        self._patch(Trace, "next_use", property(next_use_getter))

        prefill = common.prefill_to_targets
        timed_prefill = rec.wrap(prefill, "experiments.prefill")
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("repro.")
                    and getattr(module, "prefill_to_targets", None)
                    is prefill):
                self._patch(module, "prefill_to_targets", timed_prefill)

        timed_run = rec.wrap(MultiprogramSimulator.run, "sim.run")
        cells: List[Cell] = []
        timed_cell = rec.wrap(Cell.run, "cell",
                              lambda cell: {"label": cell.label})

        def run_cell(cell: Cell) -> Any:
            cells.append(cell)
            return timed_cell(cell)
        self._patch(Cell, "run", run_cell)

        def run_sim(sim: MultiprogramSimulator) -> Any:
            result = timed_run(sim)
            self.engine_runs.append(EngineRun(
                cell=cells[-1], threads=_thread_rows(result),
                hits=sim.cache.stats.total_hits(),
                misses=sim.cache.stats.total_misses()))
            return result
        self._patch(MultiprogramSimulator, "run", run_sim)

        self._spec = get_experiment(self.experiment)
        register(dataclasses.replace(
            self._spec,
            reduce=rec.wrap(self._spec.reduce, "experiments.reduce"),
            format=rec.wrap(self._spec.format, "experiments.format")),
            replace=True)
        return self

    def __exit__(self, *exc: Any) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []
        if self._spec is not None:
            register(self._spec, replace=True)
            self._spec = None

    def wrap_store(self, store: ExperimentStore) -> None:
        """Time ``get``/``put`` on this store instance."""
        rec = self.recorder
        get = store.get

        def timed_get(key: str) -> Tuple[bool, Any]:
            span = rec.begin("store.get")
            try:
                hit, value = get(key)
            finally:
                rec.end(span)
            span["hit"] = hit
            return hit, value
        store.get = timed_get  # type: ignore[method-assign]
        store.put = rec.wrap(store.put, "store.put")  # type: ignore


def _thread_rows(result: Any) -> List[Tuple[int, int, float]]:
    return [(t.accesses, t.misses, t.cycles) for t in result.threads]


@dataclasses.dataclass
class KernelReplay:
    """One engine run's access calls replayed into its prefilled cache."""

    run: EngineRun
    seconds: float
    calls: int
    hits: int
    misses: int

    @property
    def matches(self) -> bool:
        """The replay reproduced the engine's hits and misses exactly."""
        return ((self.hits, self.misses) == (self.run.hits, self.run.misses)
                and self.calls == self.hits + self.misses)


def _with_sim_run(replacement: Callable[..., Any], cell: Cell) -> None:
    original = MultiprogramSimulator.run
    MultiprogramSimulator.run = replacement  # type: ignore[method-assign]
    try:
        cell.run()
    finally:
        MultiprogramSimulator.run = original  # type: ignore[method-assign]


def replay_kernel(cell: Cell, runs: List[EngineRun]) -> List[KernelReplay]:
    """Time the access kernel of ``cell``'s engine runs (in order).

    Runs the cell once with every ``cache.access`` call logged, checking
    the engine result against the traced pass's, then once more with each
    ``MultiprogramSimulator.run`` replaced by a timed replay of its log.
    """
    original = MultiprogramSimulator.run
    logged: List[Tuple[List[Tuple[int, int, Optional[int], bool]], Any]] = []

    def logging_run(sim: MultiprogramSimulator) -> Any:
        access = sim.cache.access
        calls: List[Tuple[int, int, Optional[int], bool]] = []

        def logging_access(addr: int, part: int,
                           next_use: Optional[int] = None, *,
                           is_write: bool = False) -> bool:
            calls.append((addr, part, next_use, is_write))
            return access(addr, part, next_use, is_write=is_write)
        sim.cache.access = logging_access
        try:
            result = original(sim)
        finally:
            sim.cache.access = access
        if _thread_rows(result) != runs[len(logged)].threads:
            raise RuntimeError(f"{cell.label}: re-run diverged from the "
                               f"traced pass")
        logged.append((calls, result))
        return result

    replays: List[KernelReplay] = []

    def replaying_run(sim: MultiprogramSimulator) -> Any:
        calls, result = logged[len(replays)]
        access = sim.cache.access
        hits = 0
        t0 = time.perf_counter()
        for addr, part, next_use, is_write in calls:
            if access(addr, part, next_use, is_write=is_write):
                hits += 1
        elapsed = time.perf_counter() - t0
        stats = sim.cache.stats
        if hits != stats.total_hits():
            raise RuntimeError(f"{cell.label}: kernel return values "
                               f"disagree with its statistics")
        replays.append(KernelReplay(runs[len(replays)], elapsed, len(calls),
                                    stats.total_hits(), stats.total_misses()))
        return result

    _with_sim_run(logging_run, cell)
    _with_sim_run(replaying_run, cell)
    return replays
