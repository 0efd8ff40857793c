"""Differential oracle for the compiled access kernel.

``PartitionedCache._build_access`` specializes its generated kernel to the
configuration it serves: inlined ranking hooks (LRU, OPT, coarse
timestamps), fused victim scans (feedback FS, Partitioning-First,
FullAssoc), inlined candidate hashing, array evict/place bodies, reference
futility and the well-known observers.  The same compiler, with
``_generic_kernel`` set, turns every recognizer off and routes each of
those steps through its bound method or event-handler tuple instead.

Every test here drives two caches built identically, one with each
kernel, through the same operation stream, and asserts that they cannot
be told apart: the same hit/miss return (or the same exception) and the
same victim slot on every access, the same tag/owner/dirty state after
it, and at checkpoints the same ranking, scheme and statistics state,
lifecycle log, time series and observed event stream.
"""

import random
from array import array

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cache.arrays import (DirectMappedArray, FullyAssociativeArray,
                                RandomCandidatesArray, SetAssociativeArray,
                                SkewAssociativeArray, ZCacheArray)
from repro.cache.cache import PartitionedCache
from repro.cache.events import CacheObserver
from repro.core.futility import (OPT_NEXT_USE_REQUIRED, OPTRanking,
                                  make_ranking)
from repro.core.schemes.base import available_schemes, make_scheme
from repro.errors import ConfigurationError
from repro.obs.timeseries import TimeSeriesRecorder

LINES = 64

ARRAYS = {
    "set-assoc-xor": lambda: SetAssociativeArray(LINES, 8),
    "set-assoc-h3": lambda: SetAssociativeArray(LINES, 8, hash_kind="h3",
                                                hash_seed=1),
    "direct-mapped": lambda: DirectMappedArray(LINES),
    "full-assoc": lambda: FullyAssociativeArray(LINES),
    "random": lambda: RandomCandidatesArray(LINES, 8, seed=3),
    "skew": lambda: SkewAssociativeArray(LINES, 4, hash_seed=5),
    "zcache": lambda: ZCacheArray(LINES, 4, 12, hash_seed=7),
}
RANKINGS = ("lru", "lfu", "opt", "random", "coarse-ts-lru")
SCHEMES = tuple(available_schemes())
MAX_PARTITIONS = 6


class EventLog(CacheObserver):
    """Records every event with its arguments (dispatched, never inlined)."""

    def __init__(self):
        self.log = []

    def on_cache_hit(self, idx, part, next_use):
        self.log.append(("hit", idx, part, next_use))

    def on_cache_miss(self, addr, part):
        self.log.append(("miss", addr, part))

    def on_cache_evict(self, idx, part, futility, dirty):
        self.log.append(("evict", idx, part, futility, dirty))

    def on_cache_insert(self, idx, part, next_use, evicted):
        self.log.append(("insert", idx, part, next_use, evicted))

    def on_cache_relocate(self, src, dst):
        self.log.append(("relocate", src, dst))

    def on_cache_flush(self, idx, part, dirty):
        self.log.append(("flush", idx, part, dirty))

    def on_cache_lifecycle(self, kind, part):
        self.log.append(("lifecycle", kind, part))


def build(cfg, generic):
    """One cache for ``cfg``; ``generic`` selects the oracle kernel."""
    reference = {"auto": "auto", "none": None,
                 "opt": OPTRanking()}[cfg["reference"]]
    cache = PartitionedCache(
        ARRAYS[cfg["array"]](), make_ranking(cfg["ranking"]),
        make_scheme(cfg["scheme"]), cfg["parts"],
        reference_ranking=reference,
        track_eviction_futility=cfg["track"],
        deviation_partitions=(0,) if cfg["deviation"] else (),
        occupancy_sample_period=7, collect_stats=cfg["stats"])
    if generic:
        cache._generic_kernel = True
        cache._rebuild_kernel()
    extras = {}
    if cfg["series"]:
        extras["series"] = TimeSeriesRecorder(interval=16).attach(cache)
        cache.events.subscribe(extras["series"])
    if cfg["events"]:
        extras["events"] = EventLog()
        cache.events.subscribe(extras["events"])
    return cache, extras


PLAIN = (type(None), bool, int, float, str, list, tuple, dict, array,
         bytearray)


def plain(attrs):
    """``vars()`` of a ranking/scheme/stats/array object, made comparable.

    Containers of plain values compare as they are; an RNG compares by
    its state, and an object reference (the cache, the ranking, a bound
    method, an index hash) by its type — it is the same wiring on both
    sides, and the state that matters is compared separately.
    """
    def comparable(value):
        if isinstance(value, random.Random):
            return value.getstate()
        return value if isinstance(value, PLAIN) else type(value).__name__

    out = {}
    for name, value in attrs.items():
        if isinstance(value, list) and value and not isinstance(
                value[0], PLAIN):
            value = [comparable(v) for v in value]
        out[name] = comparable(value)
    return out


def snapshot(cache, extras):
    state = {
        "ranking": plain(vars(cache.ranking)),
        "scheme": plain(vars(cache.scheme)),
        "stats": plain(vars(cache.stats)),
        "actual": list(cache.actual_sizes),
        "targets": list(cache.targets),
        "retired": list(cache._retired),
        "resident": cache._resident,
        "lifecycle": cache.lifecycle_log,
        "array": plain({k: v for k, v in vars(cache.array).items()
                        if k not in ("lines", "_slots", "_where")}),
    }
    if cache._separate_reference:
        state["reference"] = plain(vars(cache.reference))
    if "series" in extras:
        state["series"] = extras["series"]._rows
    if "events" in extras:
        state["events"] = extras["events"].log
    return state


def attempt(fn, *args, **kwargs):
    try:
        return ("ok", fn(*args, **kwargs))
    except ConfigurationError as exc:
        return ("raise", str(exc))


def lifecycle_op(rng, cache):
    """A create / retire / retarget call with arguments drawn now."""
    n = cache.num_partitions
    kind = rng.choice(("create", "retire", "retarget"))
    if kind == "create" and n < MAX_PARTITIONS:
        room = cache.num_lines - sum(cache.targets)
        return "create_partition", (min(rng.randrange(12), room),)
    if kind == "retire":
        return "retire_partition", (rng.randrange(n),)
    active = [p for p in range(n) if not cache._retired[p]]
    weights = [rng.random() for _ in active]
    budget = cache.num_lines - rng.randrange(8)
    targets = [0] * n
    for p, w in zip(active, weights):
        targets[p] = int(budget * w / sum(weights))
    return "set_targets", (targets,)


def run_pair(cfg, steps=200):
    """Drive a specialized and a generic cache in lockstep; assert equal.

    Returns ``False`` (having run nothing) when the configuration is one
    the cache refuses to build.
    """
    try:
        fast, fast_x = build(cfg, generic=False)
    except ConfigurationError:
        return False
    oracle, oracle_x = build(cfg, generic=True)
    assert "choose(" in oracle.access.__kernel_source__
    rng = random.Random(cfg["seed"])
    future = fast.ranking.needs_future or (
        fast.reference is not None and fast.reference.needs_future)
    where_fast, where_oracle = fast.lines.where, oracle.lines.where
    for step in range(steps):
        if cfg["lifecycle"] and rng.random() < 0.02:
            name, args = lifecycle_op(rng, fast)
            got = attempt(getattr(fast, name), *args)
            want = attempt(getattr(oracle, name), *args)
            assert got == want, (step, name, args)
            assert snapshot(fast, fast_x) == snapshot(oracle, oracle_x), (
                step, name, args)
            if name == "create_partition" and got[0] == "raise":
                # A refused create leaves the cache half-grown; stop here.
                return True
            continue
        n = fast.num_partitions
        active = [p for p in range(n) if not fast._retired[p]]
        part = (rng.randrange(n) if rng.random() < 0.02
                else rng.choice(active))
        hot = rng.random() < 0.7
        addr = part * 10**6 + (rng.randrange(40) if hot
                               else 40 + rng.randrange(400))
        next_use = rng.randrange(10**4) if future else None
        is_write = rng.random() < 0.3
        got = attempt(fast.access, addr, part, next_use, is_write=is_write)
        want = attempt(oracle.access, addr, part, next_use,
                       is_write=is_write)
        where = (step, addr, part)
        assert got == want, where
        assert where_fast.get(addr) == where_oracle.get(addr), where
        assert fast.writeback_pending == oracle.writeback_pending, where
        assert fast.lines.tag == oracle.lines.tag, where
        assert fast.owner == oracle.owner, where
        assert fast._dirty == oracle._dirty, where
        assert fast.actual_sizes == oracle.actual_sizes, where
        if step % 64 == 63:
            assert snapshot(fast, fast_x) == snapshot(oracle, oracle_x), where
    assert snapshot(fast, fast_x) == snapshot(oracle, oracle_x)
    fast.check_invariants()
    oracle.check_invariants()
    return True


BASE = {"parts": 2, "stats": True, "track": True, "deviation": True,
        "reference": "auto", "series": False, "events": False,
        "lifecycle": True, "seed": 11}


@pytest.mark.parametrize("scheme", SCHEMES)
def test_every_scheme_matches_the_generic_kernel(scheme):
    """Deterministic matrix: each registered scheme on every array x
    ranking pair it accepts."""
    ran = [(array_kind, ranking)
           for array_kind in sorted(ARRAYS) for ranking in RANKINGS
           if run_pair(dict(BASE, array=array_kind, ranking=ranking,
                            scheme=scheme))]
    assert ran, f"no array/ranking pair accepts scheme {scheme!r}"


class TestInlinePathContracts:
    """What the specialized PF and OPT paths promise beyond equivalence."""

    @staticmethod
    def pf_opt(array=None, parts=1):
        return PartitionedCache(array or SetAssociativeArray(LINES, 8),
                                OPTRanking(), make_scheme("pf"), parts)

    @pytest.mark.parametrize("ranking", ("lru", "lfu", "opt", "random"))
    def test_pf_on_exact_keyed_rankings_compiles_no_choose_call(self,
                                                                ranking):
        cfg = dict(BASE, array="set-assoc-xor", ranking=ranking,
                   scheme="pf")
        fast, _ = build(cfg, generic=False)
        oracle, _ = build(cfg, generic=True)
        assert "choose(" not in fast.access.__kernel_source__
        assert "choose(" in oracle.access.__kernel_source__

    def test_pf_on_coarse_timestamps_still_calls_choose(self):
        cfg = dict(BASE, array="set-assoc-xor", ranking="coarse-ts-lru",
                   scheme="pf")
        fast, _ = build(cfg, generic=False)
        assert "choose(" in fast.access.__kernel_source__

    def test_missing_next_use_raises_on_insert(self):
        cache = self.pf_opt()
        assert "insort" in cache.access.__kernel_source__
        with pytest.raises(ConfigurationError) as exc:
            cache.access(5, 0)
        assert str(exc.value) == OPT_NEXT_USE_REQUIRED
        assert cache.ranking._keys == [[]]

    @pytest.mark.parametrize("generic", (False, True))
    def test_missing_next_use_raises_on_hit_before_any_change(self,
                                                              generic):
        cache = self.pf_opt()
        cache._generic_kernel = generic
        cache._rebuild_kernel()
        for addr in range(4):
            cache.access(addr, 0, next_use=10 + addr)
        keys = [list(ks) for ks in cache.ranking._keys]
        with pytest.raises(ConfigurationError) as exc:
            cache.access(2, 0)
        assert str(exc.value) == OPT_NEXT_USE_REQUIRED
        assert cache.ranking._keys == keys
        cache.check_invariants()

    @pytest.mark.parametrize("array_kind", ("set-assoc-xor", "zcache"))
    def test_index_of_stays_consistent_after_ensure_index(self, array_kind):
        cache = self.pf_opt(ARRAYS[array_kind](), parts=2)
        rng = random.Random(3)

        def drive(n):
            for _ in range(n):
                part = rng.randrange(2)
                cache.access(part * 10**6 + rng.randrange(120), part,
                             next_use=rng.randrange(10**4))

        drive(150)
        assert cache.ranking._index_of is None
        cache.ranking.ensure_index()
        drive(400)
        ranking = cache.ranking
        for p in range(2):
            expected = {ranking._key[i]: i for i in range(LINES)
                        if ranking._part[i] == p}
            assert ranking._index_of[p] == expected
        cache.check_invariants()

    def test_retired_guard_and_series_compose_with_the_fused_scan(self):
        cfg = dict(BASE, array="set-assoc-xor", ranking="opt", scheme="pf",
                   parts=3, series=True, lifecycle=False)
        (fast, fast_x), (oracle, oracle_x) = (build(cfg, generic=False),
                                              build(cfg, generic=True))
        rng = random.Random(5)
        for step in range(300):
            if step == 100:
                fast.retire_partition(2)
                oracle.retire_partition(2)
                source = fast.access.__kernel_source__
                assert "retired[part]" in source
                assert "ts_acc" in source
                assert "choose(" not in source
            part = rng.randrange(3 if step < 100 else 2)
            addr = part * 10**6 + rng.randrange(150)
            next_use = rng.randrange(10**4)
            assert (fast.access(addr, part, next_use)
                    == oracle.access(addr, part, next_use))
        for cache in (fast, oracle):
            with pytest.raises(ConfigurationError, match="retired"):
                cache.access(2 * 10**6 + 999, 2, 1)
        assert fast_x["series"].rows() == oracle_x["series"].rows()
        assert snapshot(fast, fast_x) == snapshot(oracle, oracle_x)
        fast.check_invariants()


CONFIGS = st.fixed_dictionaries({
    "array": st.sampled_from(sorted(ARRAYS)),
    "ranking": st.sampled_from(RANKINGS),
    "scheme": st.sampled_from(SCHEMES),
    "parts": st.integers(1, 4),
    "stats": st.booleans(),
    "track": st.booleans(),
    "deviation": st.booleans(),
    "reference": st.sampled_from(("auto", "none", "opt")),
    "series": st.booleans(),
    "events": st.booleans(),
    "lifecycle": st.booleans(),
    "seed": st.integers(0, 2**32 - 1),
})


@settings(max_examples=60, deadline=None)
@given(cfg=CONFIGS)
def test_random_configurations_match_the_generic_kernel(cfg):
    """Arrays x rankings x schemes x observers x lifecycle events."""
    assume(run_pair(cfg))
