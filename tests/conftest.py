"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.cache.arrays import (
    FullyAssociativeArray,
    RandomCandidatesArray,
    SetAssociativeArray,
)
from repro.cache.cache import PartitionedCache
from repro.core.futility import LRURanking
from repro.core.schemes.partitioning_first import PartitioningFirstScheme


def pytest_configure(config):
    # Registered here too so ``@pytest.mark.timeout`` stays warning-free
    # where the pytest-timeout plugin (which enforces it) is absent.
    config.addinivalue_line(
        "markers", "timeout(seconds): fail a test that runs longer")


def drive_uniform(cache: PartitionedCache, accesses: int, *,
                  num_partitions: int = None, address_space: int = 1000,
                  seed: int = 0) -> PartitionedCache:
    """Drive a cache with uniform random accesses, one address space per
    partition; returns the cache for chaining."""
    n = num_partitions if num_partitions is not None else cache.num_partitions
    rng = random.Random(seed)
    for _ in range(accesses):
        part = rng.randrange(n)
        addr = part * 10**9 + rng.randrange(address_space)
        cache.access(addr, part)
    return cache


@pytest.fixture
def small_pf_cache() -> PartitionedCache:
    """A 256-line, 2-partition PF cache on a set-associative array."""
    return PartitionedCache(SetAssociativeArray(256, 16), LRURanking(),
                            PartitioningFirstScheme(), 2)


@pytest.fixture
def random_array_cache() -> PartitionedCache:
    """A 256-line, 2-partition PF cache on a random-candidates array."""
    return PartitionedCache(RandomCandidatesArray(256, 8, seed=1),
                            LRURanking(), PartitioningFirstScheme(), 2)
