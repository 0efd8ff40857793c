"""Guard for shared traces: no cell may modify a trace it was handed.

Within a sweep, cells that request the same trace share one
:class:`~repro.trace.access.Trace` object (see its sharing contract), so
a cell that wrote into one would change every later cell's input.  This
runs every registered experiment's smoke cells in one reuse scope and
checks that each trace still hashes as it did when it was built.
"""

import hashlib

import pytest

import repro.experiments  # noqa: F401  (registers every experiment)
from repro.experiments.registry import experiment_names, get_experiment
from repro.trace import spec
from repro.trace.spec import trace_reuse
from repro.trace.synthetic import StackDistanceGenerator


def _sha256(trace):
    digest = hashlib.sha256()
    digest.update(trace.addresses.tobytes())
    digest.update(trace.gaps.tobytes())
    digest.update(trace.name.encode("utf-8"))
    return digest.hexdigest()


@pytest.mark.parametrize("name", experiment_names())
def test_cells_leave_shared_traces_unchanged(name, monkeypatch):
    built = {}
    generate = StackDistanceGenerator.generate

    def hashed(self, length):
        trace = generate(self, length)
        built[id(trace)] = _sha256(trace)
        return trace
    monkeypatch.setattr(StackDistanceGenerator, "generate", hashed)

    exp = get_experiment(name)
    with trace_reuse():
        for cell in exp.cells(exp.config("smoke")):
            cell.run()
        memoized = list(spec._reused.values())
    for trace in memoized:
        assert _sha256(trace) == built[id(trace)], trace.name
