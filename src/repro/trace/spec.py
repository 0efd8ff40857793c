"""Calibrated synthetic models of the SPEC CPU2006 benchmarks the paper uses.

The paper evaluates on multiprogrammed mixes of SPEC CPU2006 benchmarks
(Section VII-C): mcf, omnetpp, gromacs, h264ref, astar, cactusADM,
libquantum and lbm.  This module defines one :class:`BenchmarkProfile` per
benchmark — a seeded stack-distance workload model (see
:mod:`repro.trace.synthetic`) calibrated to reproduce the *behavioural
class* each benchmark exhibits in the paper:

==============  ===============================================================
benchmark       behaviour reproduced
==============  ===============================================================
mcf             very memory-intensive; reuse spread over many scales; the most
                associativity-sensitive workload (>= 25% fully-assoc speedup at
                every size under OPT, Fig. 6a; +37% misses under PF at N=32,
                Fig. 2b)
omnetpp         memory-intensive, moderately associativity-sensitive
gromacs         small working set (~256KB); very sensitive at 128KB, insensitive
                once the cache holds the working set (>= 1MB) — Fig. 6a; used as
                the QoS *subject* thread in Fig. 7
h264ref         compute-bound, small-to-medium working set, mild sensitivity
astar           moderate intensity and sensitivity
cactusADM       scan-dominated with an LRU-pathological loop: under LRU, higher
                associativity can *hurt* (-6% at 4MB, Fig. 6b)
libquantum      streaming over a huge array; insensitive to associativity
lbm             streaming, very high miss rate, lowest reuse; insensitive; used
                as the QoS *background* (cache-polluting) thread in Fig. 7
==============  ===============================================================

Addresses are line addresses (64B granularity); working-set parameters are
expressed in lines (1MB = 16384 lines).  ``mean_gap`` is the average number
of instructions per L2 access and sets each benchmark's memory intensity.
"""

from __future__ import annotations

import zlib
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..errors import ConfigurationError
from .access import Trace
from .synthetic import (
    ReuseProfile,
    StackDistanceGenerator,
    fixed,
    geometric,
    loguniform,
    uniform,
)

__all__ = ["BenchmarkProfile", "BENCHMARKS", "benchmark_names",
           "benchmark_trace", "get_profile", "KB", "MB", "LINE_BYTES",
           "lines_for_bytes", "reuse_counts", "trace_reuse",
           "worker_trace_reuse"]

LINE_BYTES = 64
KB = 1024
MB = 1024 * KB


def lines_for_bytes(num_bytes: int) -> int:
    """Cache lines needed for ``num_bytes`` of capacity."""
    return num_bytes // LINE_BYTES


#: Traces synthesized inside the active reuse scope, keyed by
#: ``(profile, length, seed, addr_base, scale)``; ``None`` outside one.
_reused: Optional[Dict[tuple, Trace]] = None
#: Nesting depth of :func:`trace_reuse` blocks in this process.
_scopes = 0
#: ``[synthesized, reused]`` calls made inside a scope in this process.
_counts = [0, 0]


@contextmanager
def trace_reuse() -> Iterator[None]:
    """Reuse every trace :meth:`BenchmarkProfile.trace` builds in the block.

    The runner wraps each sweep's execution in one scope, so a trace
    that several cells request is synthesized once per process.  Scopes
    nest; the traces are dropped when the outermost block exits, even
    on an exception.  Outside a scope every call synthesizes afresh.
    """
    global _reused, _scopes
    if _scopes == 0:
        _reused = {}
    _scopes += 1
    try:
        yield
    finally:
        _scopes -= 1
        if _scopes == 0:
            _reused = None


def worker_trace_reuse() -> None:
    """Open a scope for the life of a forked worker process.

    The first thing a local queue worker does: it starts an empty scope
    and zeroed reuse counts whatever state the process inherited from
    its parent, and the scope ends when the worker exits after its
    sweep.
    """
    global _reused, _scopes
    _reused = {}
    _scopes = 1
    _counts[:] = [0, 0]


def reuse_counts() -> Tuple[int, int]:
    """``(synthesized, reused)`` trace requests made inside scopes so far
    in this process (the runner differences them around each cell)."""
    return _counts[0], _counts[1]


class BenchmarkProfile:
    """A named, seeded synthetic model of one SPEC benchmark."""

    def __init__(self, name: str,
                 profile_factory: Callable[[float], ReuseProfile],
                 mean_gap: float, description: str,
                 write_fraction: float = 0.3) -> None:
        self.name = name
        self._profile_factory = profile_factory
        self.mean_gap = float(mean_gap)
        self.description = description
        #: Fraction of L2 accesses that are stores (drives writeback
        #: bandwidth in the timing engine; lbm is the classic write-heavy
        #: stencil code).
        self.write_fraction = float(write_fraction)

    def generator(self, *, seed: int = 0, addr_base: int = 0,
                  scale: float = 1.0) -> StackDistanceGenerator:
        """A trace generator for this benchmark.

        ``seed`` varies the pseudo-random stream; ``addr_base`` offsets the
        address space (distinct per thread in multiprogrammed mixes);
        ``scale`` multiplies every working-set depth parameter, letting
        scaled-down experiments shrink workloads in proportion to their
        caches while preserving the paper's shapes.
        """
        if scale <= 0:
            raise ConfigurationError(f"scale must be positive, got {scale}")
        # zlib.crc32 is deterministic across processes (str.hash is not).
        salt = zlib.crc32(self.name.encode("utf-8")) & 0xFFFF
        return StackDistanceGenerator(
            self._profile_factory(scale), mean_gap=self.mean_gap,
            addr_base=addr_base, seed=seed * 65_537 + salt, name=self.name)

    def trace(self, length: int, *, seed: int = 0, addr_base: int = 0,
              scale: float = 1.0) -> Trace:
        """Generate a trace of ``length`` L2 accesses.

        Inside a :func:`trace_reuse` scope a repeated request returns the
        :class:`Trace` object the first one built (see its sharing
        contract).  The key is this profile object, not its name, so a
        user-built profile never collides with a built-in one.
        """
        reused = _reused
        key = (self, length, seed, addr_base, scale)
        if reused is not None and key in reused:
            _counts[1] += 1
            return reused[key]
        trace = self.generator(seed=seed, addr_base=addr_base,
                               scale=scale).generate(length)
        if reused is not None:
            reused[key] = trace
            _counts[0] += 1
        return trace


def _depth(base: int, scale: float) -> int:
    """Scale a working-set depth parameter, keeping it at least 1."""
    return max(1, int(round(base * scale)))


def _mcf(scale: float) -> ReuseProfile:
    return ReuseProfile([
        loguniform(0.30, _depth(8, scale), _depth(2_000, scale)),
        loguniform(0.45, _depth(2_000, scale), _depth(160_000, scale)),
        uniform(0.15, 0, _depth(512, scale)),
    ], new_fraction=0.10)


def _omnetpp(scale: float) -> ReuseProfile:
    return ReuseProfile([
        geometric(0.35, 300.0 * scale),
        loguniform(0.45, _depth(500, scale), _depth(60_000, scale)),
    ], new_fraction=0.20)


def _gromacs(scale: float) -> ReuseProfile:
    # Skewed (geometric) reuse: hot lines reused tightly, warm lines at
    # distances around the 256KB working set.  The skew is what makes
    # eviction *quality* matter (the associativity sensitivity the paper
    # measures in Fig. 6a and exploits in the Fig. 7 QoS experiment); a
    # flat reuse distribution would make any resident line equally likely
    # to be reused and hide the difference between schemes.
    return ReuseProfile([
        geometric(0.50, 600.0 * scale),
        geometric(0.32, 2_500.0 * scale),
        loguniform(0.10, _depth(4_096, scale), _depth(40_000, scale)),
    ], new_fraction=0.02)


def _h264ref(scale: float) -> ReuseProfile:
    return ReuseProfile([
        geometric(0.55, 200.0 * scale),
        uniform(0.35, 0, _depth(8_192, scale)),
        loguniform(0.05, _depth(8_192, scale), _depth(30_000, scale)),
    ], new_fraction=0.05)


def _astar(scale: float) -> ReuseProfile:
    return ReuseProfile([
        geometric(0.30, 500.0 * scale),
        loguniform(0.55, _depth(64, scale), _depth(30_000, scale)),
    ], new_fraction=0.15)


def _cactusadm(scale: float) -> ReuseProfile:
    return ReuseProfile([
        fixed(0.45, _depth(66_000, scale)),   # LRU-pathological loop, ~4MB
        geometric(0.45, 600.0 * scale),
    ], new_fraction=0.10)


def _libquantum(scale: float) -> ReuseProfile:
    return ReuseProfile([
        fixed(0.97, _depth(400_000, scale)),  # repeated scan over ~24MB
    ], new_fraction=0.03)


def _lbm(scale: float) -> ReuseProfile:
    # Reuse distance ~100MB: even an 8MB LLC (or OPT ranking) cannot
    # exploit it, giving the near-zero reuse the paper attributes to lbm.
    return ReuseProfile([
        fixed(0.15, _depth(1_500_000, scale)),
    ], new_fraction=0.85)


BENCHMARKS: Dict[str, BenchmarkProfile] = {
    profile.name: profile for profile in [
        BenchmarkProfile("mcf", _mcf, 25.0,
                         "pointer-chasing; most associativity-sensitive"),
        BenchmarkProfile("omnetpp", _omnetpp, 55.0,
                         "discrete-event simulation; moderately sensitive"),
        BenchmarkProfile("gromacs", _gromacs, 150.0,
                         "molecular dynamics; ~256KB working set"),
        BenchmarkProfile("h264ref", _h264ref, 220.0,
                         "video encoding; compute-bound"),
        BenchmarkProfile("astar", _astar, 90.0,
                         "path-finding; moderate"),
        BenchmarkProfile("cactusadm", _cactusadm, 110.0,
                         "stencil; LRU-pathological scan"),
        BenchmarkProfile("libquantum", _libquantum, 18.0,
                         "streaming over a huge array",
                         write_fraction=0.25),
        BenchmarkProfile("lbm", _lbm, 12.0,
                         "streaming; highest miss rate (QoS background)",
                         write_fraction=0.55),
    ]
}


def benchmark_names() -> List[str]:
    """All modeled benchmark names."""
    return sorted(BENCHMARKS)


def get_profile(name: str) -> BenchmarkProfile:
    """Profile lookup with a helpful error."""
    try:
        return BENCHMARKS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown benchmark {name!r}; expected one of {benchmark_names()}")


def benchmark_trace(name: str, length: int, *, seed: int = 0,
                    addr_base: int = 0, scale: float = 1.0) -> Trace:
    """Generate a trace for benchmark ``name`` (see :class:`BenchmarkProfile`)."""
    return get_profile(name).trace(length, seed=seed, addr_base=addr_base,
                                   scale=scale)
