"""The sweep-scoped trace reuse of ``BenchmarkProfile.trace``."""

import pytest

from repro.trace import spec
from repro.trace.spec import (
    BenchmarkProfile,
    get_profile,
    reuse_counts,
    trace_reuse,
    worker_trace_reuse,
)


def _bytes(trace):
    return trace.addresses.tobytes(), trace.gaps.tobytes(), trace.name


@pytest.fixture(autouse=True)
def no_scope_leaks():
    assert spec._reused is None
    yield
    assert spec._reused is None and spec._scopes == 0


def test_outside_a_scope_every_call_synthesizes():
    mcf = get_profile("mcf")
    a = mcf.trace(300, seed=1)
    b = mcf.trace(300, seed=1)
    assert a is not b
    assert _bytes(a) == _bytes(b)


def test_same_key_in_a_scope_returns_the_same_object():
    mcf = get_profile("mcf")
    with trace_reuse():
        a = mcf.trace(300, seed=1, addr_base=64, scale=0.5)
        b = mcf.trace(300, seed=1, addr_base=64, scale=0.5)
    assert a is b
    assert _bytes(a) == _bytes(mcf.trace(300, seed=1, addr_base=64,
                                         scale=0.5))


@pytest.mark.parametrize("change", [
    {"length": 301}, {"seed": 2}, {"addr_base": 128}, {"scale": 0.25},
])
def test_differing_arguments_never_collide(change):
    mcf = get_profile("mcf")

    def make(length=300, seed=1, addr_base=64, scale=0.5):
        return mcf.trace(length, seed=seed, addr_base=addr_base,
                         scale=scale)

    with trace_reuse():
        a, b = make(), make(**change)
    assert a is not b
    assert _bytes(a) != _bytes(b)
    assert _bytes(b) == _bytes(make(**change))


def test_profiles_are_keyed_by_object_not_name():
    builtin = get_profile("mcf")
    impostor = BenchmarkProfile("mcf", spec._lbm, builtin.mean_gap,
                                "user-built, same name")
    with trace_reuse():
        a = builtin.trace(400, seed=3)
        b = impostor.trace(400, seed=3)
    assert a is not b
    assert _bytes(a) != _bytes(b)


def test_nested_scopes_share_and_outermost_exit_drops():
    lbm = get_profile("lbm")
    with trace_reuse():
        a = lbm.trace(200)
        with trace_reuse():
            assert lbm.trace(200) is a
        assert lbm.trace(200) is a  # the inner exit kept the traces
    assert lbm.trace(200) is not a


def test_scope_ends_on_an_exception():
    with pytest.raises(RuntimeError):
        with trace_reuse():
            get_profile("gromacs").trace(100)
            raise RuntimeError("cell failed")
    assert spec._reused is None


def test_counts_split_synthesized_from_reused():
    gromacs = get_profile("gromacs")
    before = reuse_counts()
    with trace_reuse():
        for seed in (0, 1, 0, 0, 1):
            gromacs.trace(100, seed=seed)
    after = reuse_counts()
    assert (after[0] - before[0], after[1] - before[1]) == (2, 3)
    gromacs.trace(100)  # outside a scope: neither
    assert reuse_counts() == after


def test_worker_scope_starts_empty(monkeypatch):
    # A pool worker's scope ignores whatever state the process held.
    stale = object()
    monkeypatch.setattr(spec, "_reused", {"stale": stale})
    monkeypatch.setattr(spec, "_scopes", 7)
    worker_trace_reuse()
    assert spec._reused == {} and spec._scopes == 1
    mcf = get_profile("mcf")
    assert mcf.trace(50) is mcf.trace(50)
