"""Simulator-throughput benchmarks and ``BENCH_throughput.json`` emission.

Not a paper figure: these measure the reproduction's own hot path —
single-thread accesses per second through the partitioned-cache access
kernel — for one configuration per registered partitioning scheme, in the
shape the figure experiments actually run it (exact-LRU decision ranking
with full measurement attached; the feedback-FS hardware pairing uses the
8-bit coarse-timestamp ranking as in Fig. 7).  A second table, ``COMBOS``,
adds the figure combinations that one-per-scheme does not reach (today
Fig. 2's PF under Belady OPT at 32 partitions, whose stream carries
per-thread next-use).

The workload is a hot/cold mix (85% of accesses to a per-partition hot set
that fits in cache, 15% to a large cold space), approximating the locality
the paper's L2 traces exhibit rather than a pure-thrash stream; both the
miss path (victim selection) and the hit path (ranking/statistics upkeep)
carry realistic weight.

Two entry points:

* pytest-benchmark (``make bench``): per-scheme timing history.
* ``python benchmarks/test_simulator_throughput.py --out BENCH_throughput.json
  --label after`` (``make bench-throughput``): measure every config
  (best-of-5) and merge the lines/sec into the machine-readable JSON under
  the given label; ``--only NAME`` re-measures just the named entries
  (an ``after`` run records its spin calibration on each of them).  With
  both ``before`` and ``after`` recorded the file gains per-entry
  speedups and the geometric mean of the per-scheme ones.  The committed
  per-scheme entries were captured by running ``--label before`` on the
  pre-refactor tree (``git stash``) and ``--label after`` on the same
  machine in the same session; the ``pf-opt-n32`` combination with
  ``--only``, alternating whole-process runs whose ``before`` side
  imports the parent tree's ``src`` (its entry's ``protocol`` says how).

``test_throughput_regression`` guards the committed numbers in CI: it
re-measures each config and fails if throughput drops more than 30% below
the committed ``after`` value, after normalizing machine speed through the
recorded spin-loop calibration.
"""

import json
import random
import sys
import time
from pathlib import Path

import pytest

from repro.cache.arrays import FullyAssociativeArray, SetAssociativeArray
from repro.cache.cache import PartitionedCache
from repro.core.futility import (CoarseTimestampLRURanking, LRURanking,
                                  OPTRanking)
from repro.core.schemes.base import available_schemes, make_scheme
from repro.trace.access import annotate_next_use

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_throughput.json"

ACCESSES = 30_000
WARM_ACCESSES = 20_000
PARTS = 2
LINES = 4096
WAYS = 16
HOT_LINES = 1_400          # per-partition hot set; both fit in cache
HOT_FRACTION = 0.85
COLD_SPACE = 1_000_000
SEED = 0
WARM_SEED = 99
ROUNDS = 5

WORKLOAD = {
    "accesses": ACCESSES, "warm_accesses": WARM_ACCESSES, "parts": PARTS,
    "lines": LINES, "ways": WAYS, "hot_lines": HOT_LINES,
    "hot_fraction": HOT_FRACTION, "cold_space": COLD_SPACE,
    "seed": SEED, "warm_seed": WARM_SEED, "rounds": ROUNDS,
}


def make_stream(accesses=ACCESSES, seed=SEED):
    rng = random.Random(seed)
    randrange = rng.randrange
    rand = rng.random
    return [(part * 10**9 + (randrange(HOT_LINES) if rand() < HOT_FRACTION
                             else HOT_LINES + randrange(COLD_SPACE)), part)
            for part in (randrange(PARTS) for _ in range(accesses))]


def _setassoc(scheme, ranking=None, **cache_kwargs):
    return PartitionedCache(SetAssociativeArray(LINES, WAYS),
                            ranking if ranking is not None else LRURanking(),
                            scheme, PARTS, **cache_kwargs)


#: One configuration per registered scheme, keyed by registry name.
CONFIGS = {
    "cqvp": lambda: _setassoc(make_scheme("cqvp")),
    "fs": lambda: _setassoc(make_scheme("fs", alphas=[1.0, 2.0])),
    # The hardware design point: feedback FS over 8-bit coarse timestamps
    # (Section V / Fig. 7), not the exact-LRU ranking.
    "fs-feedback": lambda: _setassoc(make_scheme("fs-feedback"),
                                     ranking=CoarseTimestampLRURanking()),
    "full-assoc": lambda: PartitionedCache(
        FullyAssociativeArray(LINES), LRURanking(),
        make_scheme("full-assoc"), PARTS),
    "pf": lambda: _setassoc(make_scheme("pf")),
    "prism": lambda: _setassoc(make_scheme("prism")),
    "unpartitioned": lambda: _setassoc(make_scheme("unpartitioned")),
    "vantage": lambda: _setassoc(make_scheme("vantage")),
    "way-partition": lambda: _setassoc(make_scheme("way-partition")),
}


def drive(cache, stream):
    access = cache.access
    for addr, part in stream:
        access(addr, part)


def drive_next_use(cache, stream):
    access = cache.access
    for addr, part, next_use in stream:
        access(addr, part, next_use)


def make_next_use_streams(parts):
    """Warm-up and measured ``(addr, part, next_use)`` streams over
    ``parts`` partitions, each with a hot set scaled to its share of the
    cache; next-use positions are per-partition (thread-local, as the
    figure feeders number them) across warm-up and measurement alike."""
    rng = random.Random(SEED)
    randrange = rng.randrange
    rand = rng.random
    hot = HOT_LINES * PARTS // parts
    total = WARM_ACCESSES + ACCESSES
    order = [randrange(parts) for _ in range(total)]
    per_part = [[] for _ in range(parts)]
    for part in order:
        per_part[part].append(
            part * 10**9 + (randrange(hot) if rand() < HOT_FRACTION
                            else hot + randrange(COLD_SPACE)))
    next_uses = [iter(annotate_next_use(addrs)) for addrs in per_part]
    addrs = [iter(a) for a in per_part]
    stream = [(next(addrs[part]), part, next(next_uses[part]))
              for part in order]
    return stream[:WARM_ACCESSES], stream[WARM_ACCESSES:]


#: Figure combinations outside the one-per-scheme table, keyed by label:
#: ``(cache factory, partition count)``, driven with next-use streams.
COMBOS = {
    # Fig. 2, the paper's motivating experiment: PF under Belady OPT with
    # as many partitions as the figure's largest N.
    "pf-opt-n32": (lambda: PartitionedCache(
        SetAssociativeArray(LINES, WAYS), OPTRanking(), make_scheme("pf"),
        32), 32),
}


def workload(label):
    """``(factory, warm, stream, driver)`` for a CONFIGS or COMBOS label."""
    if label in COMBOS:
        factory, parts = COMBOS[label]
        warm, stream = make_next_use_streams(parts)
        return factory, warm, stream, drive_next_use
    return (CONFIGS[label], make_stream(WARM_ACCESSES, seed=WARM_SEED),
            make_stream(), drive)


def measure(factory, stream, warm, rounds=ROUNDS, driver=drive):
    """Best-of-``rounds`` lines/sec for one configuration."""
    best = None
    for _ in range(rounds):
        cache = factory()
        driver(cache, warm)
        t0 = time.perf_counter()
        driver(cache, stream)
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    cache.check_invariants()
    return len(stream) / best


def spin_calibration(loops=2_000_000):
    """Wall time of a fixed pure-Python spin loop (machine-speed proxy).

    Cross-machine comparisons of lines/sec are meaningless; the regression
    gate compares *work per spin-unit* instead, which cancels most of the
    host-speed difference.  Best of 3 to dodge scheduler noise.
    """
    best = None
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(loops):
            acc += i
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best


def test_benchmark_covers_every_scheme():
    assert sorted(CONFIGS) == available_schemes()


@pytest.mark.parametrize("label", sorted(CONFIGS) + sorted(COMBOS))
def test_access_throughput(benchmark, label):
    factory, warm, stream, driver = workload(label)
    cache = factory()
    driver(cache, warm)
    benchmark.pedantic(driver, args=(cache, stream), rounds=3,
                       iterations=1, warmup_rounds=0)
    cache.check_invariants()
    benchmark.extra_info["accesses_per_round"] = ACCESSES


@pytest.mark.skipif(not BENCH_JSON.exists(),
                    reason="no committed BENCH_throughput.json")
def test_throughput_regression():
    """CI smoke: fail when throughput regresses >30% vs the committed
    numbers (spin-calibrated, so a slower CI host does not false-alarm)."""
    committed = json.loads(BENCH_JSON.read_text())
    local_spin = spin_calibration()
    failures = []
    for label, entry in sorted(committed["configs"].items()):
        expected = entry.get("after")
        if expected is None or (label not in CONFIGS
                                and label not in COMBOS):
            continue
        factory, warm, stream, driver = workload(label)
        measured = measure(factory, stream, warm, rounds=3, driver=driver)
        # Machine-normalized: lines per spin-unit of compute, against the
        # calibration of the run that recorded this entry.
        ref_spin = entry.get("calibration_spin_seconds",
                             committed["calibration_spin_seconds"])
        norm_measured = measured * local_spin
        norm_expected = expected * ref_spin
        if norm_measured < 0.7 * norm_expected:
            failures.append(
                f"{label}: {measured:.0f} lines/s "
                f"(normalized {norm_measured:.0f} vs committed "
                f"{norm_expected:.0f}, floor 70%)")
    assert not failures, (
        "throughput regression vs BENCH_throughput.json:\n  "
        + "\n  ".join(failures))


def _emit(out_path: Path, label: str, only=None) -> None:
    data = (json.loads(out_path.read_text()) if out_path.exists()
            else {"benchmark": "benchmarks/test_simulator_throughput.py",
                  "metric": "single-thread cache-access lines/sec "
                            "(best of %d)" % ROUNDS,
                  "workload": WORKLOAD, "configs": {}})
    spin = spin_calibration()
    if only:
        # A partial run keeps the file's calibration for everything else;
        # an entry's own "after" calibration is what the gate reads.
        names = only
    else:
        data["calibration_spin_seconds"] = spin
        names = sorted(CONFIGS) + sorted(COMBOS)
    for name in names:
        factory, warm, stream, driver = workload(name)
        lps = measure(factory, stream, warm, driver=driver)
        entry = data["configs"].setdefault(name, {})
        entry[label] = round(lps, 1)
        if not only:
            entry.pop("calibration_spin_seconds", None)
        elif label == "after":
            entry["calibration_spin_seconds"] = spin
        print(f"{name:16s} {label}: {lps:>10.0f} lines/s", flush=True)
    speedups = []
    for name, entry in sorted(data["configs"].items()):
        if entry.get("before") and entry.get("after"):
            entry["speedup"] = round(entry["after"] / entry["before"], 3)
            if name in CONFIGS:
                speedups.append(entry["speedup"])
    if speedups:
        geomean = 1.0
        for s in speedups:
            geomean *= s
        data["geomean_speedup"] = round(geomean ** (1.0 / len(speedups)), 3)
        print(f"geomean speedup: {data['geomean_speedup']}x")
    out_path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(
        description="Measure per-scheme throughput into BENCH_throughput.json")
    parser.add_argument("--out", type=Path, default=BENCH_JSON)
    parser.add_argument("--label", choices=("before", "after"),
                        default="after")
    parser.add_argument("--only", nargs="+",
                        choices=sorted(CONFIGS) + sorted(COMBOS),
                        help="measure just these entries")
    args = parser.parse_args()
    sys.exit(_emit(args.out, args.label, args.only))
