"""The runner's trace-reuse scope: one per sweep, in every execution mode."""

import pytest

from repro import api
from repro.runner import Cell, RunConfig, resilience, run_cells
from repro.trace import spec
from repro.trace.spec import get_profile
from repro.trace.synthetic import StackDistanceGenerator

from .helpers import synthesize, synthesize_then_fail


def _cells(n, distinct):
    return [Cell("reuse", (i,), synthesize, ("mcf", 400, i % distinct))
            for i in range(n)]


@pytest.fixture
def generate_calls(monkeypatch):
    """Count trace syntheses made in this process."""
    calls = []
    generate = StackDistanceGenerator.generate

    def counted(self, length):
        calls.append(length)
        return generate(self, length)
    monkeypatch.setattr(StackDistanceGenerator, "generate", counted)
    return calls


def test_inline_sweep_reuses_and_retains_nothing(generate_calls):
    results = run_cells(_cells(6, 2), RunConfig(jobs=1))
    assert len(generate_calls) == 2
    synthesized0, reused0 = results[0][1]
    assert results[-1][1] == (synthesized0 + 1, reused0 + 4)
    assert spec._reused is None and spec._scopes == 0


@pytest.mark.parametrize("keep_going", [False, True])
def test_no_retention_when_a_cell_raises(keep_going):
    cells = _cells(2, 2) + [Cell("reuse", ("boom",), synthesize_then_fail,
                                 ("gromacs", 300))]
    if keep_going:
        results = run_cells(cells, RunConfig(jobs=1, keep_going=True))
        assert isinstance(results[-1], resilience.FailedCell)
    else:
        with pytest.raises(ValueError):
            run_cells(cells, RunConfig(jobs=1))
    assert spec._reused is None and spec._scopes == 0


def test_back_to_back_sweeps_each_synthesize(generate_calls):
    first = api.run_experiment("fig6", scale="smoke",
                               run_config=RunConfig(jobs=1))
    per_sweep = len(generate_calls)
    second = api.run_experiment("fig6", scale="smoke",
                                run_config=RunConfig(jobs=1))
    assert first == second
    # fig6 smoke: 8 cells over 2 distinct traces.
    assert per_sweep == 2
    assert len(generate_calls) == 2 * per_sweep


def test_forked_workers_synthesize_each_trace_at_most_once():
    # Forked workers inherit this process's scope and counts; any reuse
    # they show comes from the fresh scope each one opens.
    with spec.trace_reuse():
        get_profile("mcf").trace(400, seed=0)  # a trace to inherit
        results = run_cells(_cells(10, 3), RunConfig(jobs=2))
    by_pid = {}
    for pid, counts in results:
        by_pid.setdefault(pid, []).append(counts)
    assert sum(len(c) for c in by_pid.values()) == 10
    for counts in by_pid.values():
        synthesized, reused = max(counts)
        assert synthesized <= 3
        assert synthesized + reused == len(counts)
    assert spec._reused is None
