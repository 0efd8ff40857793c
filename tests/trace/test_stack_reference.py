"""Differential test: the reversed LRU stack emits the historical bytes.

:class:`StackDistanceGenerator` keeps the top of its LRU stack at the
end of a list.  The reference below is the original formulation, with
the top at index 0 (``insert(0)`` plus ``pop(depth)``).  Both draw from
the RNG in the same order, so every trace must match byte for byte.
"""

import math
import random
from array import array

import pytest

from repro.trace.spec import BENCHMARKS
from repro.trace.synthetic import (
    ReuseProfile,
    StackDistanceGenerator,
    fixed,
    geometric,
    uniform,
)


def reference_generate(gen: StackDistanceGenerator, length: int):
    """The original top-at-index-0 generator: ``(addresses, gaps)``."""
    rng = random.Random(gen.seed)
    mean = gen.mean_gap
    stack = []
    next_addr = gen.addr_base
    addresses = array("q")
    gaps = array("l")
    for _ in range(length):
        depth = gen.profile.sample_depth(rng)
        if depth is None or depth >= len(stack):
            addr = next_addr
            next_addr += 1
            stack.insert(0, addr)
        else:
            addr = stack.pop(depth)
            stack.insert(0, addr)
        addresses.append(addr)
        if mean <= 1.0:
            gaps.append(1)
        else:
            u = max(rng.random(), 1e-300)
            gaps.append(1 + int(-math.log(u) * (mean - 1.0)))
    return addresses, gaps


def assert_identical(gen: StackDistanceGenerator, length: int) -> None:
    trace = gen.generate(length)
    addresses, gaps = reference_generate(gen, length)
    assert trace.addresses.tobytes() == addresses.tobytes()
    assert trace.gaps.tobytes() == gaps.tobytes()


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
@pytest.mark.parametrize("scale", [1.0, 1 / 4, 1 / 8, 1 / 64])
@pytest.mark.parametrize("seed,length", [(0, 2_500), (7, 1_200)])
def test_every_profile_matches_reference(name, scale, seed, length):
    gen = BENCHMARKS[name].generator(seed=seed, addr_base=1 << 40,
                                     scale=scale)
    assert_identical(gen, length)


@pytest.mark.parametrize("name", ["mcf", "gromacs", "lbm"])
def test_long_traces_match_reference(name):
    # Long enough that the stack holds thousands of lines and deep
    # re-touches move most of it.
    assert_identical(BENCHMARKS[name].generator(seed=3, scale=1 / 8),
                     20_000)


@pytest.mark.parametrize("profile", [
    ReuseProfile([fixed(1.0, 0)], new_fraction=0.1),
    ReuseProfile([uniform(1.0, 0, 64)], new_fraction=0.05),
    ReuseProfile([uniform(1.0, 0, 40)], new_fraction=0.0),
    ReuseProfile([], new_fraction=1.0),
    # Depths at or past the stack size during cold start: every access
    # is new until the stack grows past them.
    ReuseProfile([fixed(1.0, 300)], new_fraction=0.0),
    ReuseProfile([geometric(0.5, 5_000.0), fixed(0.5, 1)],
                 new_fraction=0.0),
], ids=["fixed0", "uniform0", "new0", "new1", "cold-fixed", "cold-geom"])
@pytest.mark.parametrize("mean_gap", [1.0, 40.0])
def test_edge_profiles_match_reference(profile, mean_gap):
    gen = StackDistanceGenerator(profile, mean_gap=mean_gap, addr_base=5,
                                 seed=11)
    for length in (0, 1, 2, 3_000):
        assert_identical(gen, length)


def test_cold_start_depth_past_stack_is_a_new_address():
    gen = StackDistanceGenerator(ReuseProfile([fixed(1.0, 300)],
                                              new_fraction=0.0), seed=1)
    addresses = list(gen.generate(900).addresses)
    # 300 new lines (depth 300 never fits below 301 entries), then a
    # cyclic re-touch of the line 300 accesses back.
    assert addresses[:301] == list(range(301))
    assert addresses[301:] == [addresses[i - 301]
                               for i in range(301, 900)]
