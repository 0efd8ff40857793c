"""Whole-program (phase 2) rules: CON0xx, TNT001, API0xx.

These rules run over the :class:`~repro.devtools.lint.index.ProjectIndex`
rather than a single AST, which is what lets them enforce the
reproduction's *cross-module* contracts:

* **CON001/CON002/CON003** — concurrency discipline.  Every access to a
  lock-guarded attribute happens under the lock (declared with
  ``# reprolint: guarded-by=_lock`` or inferred from majority-under-lock
  usage), monotonic clock readings never cross a process boundary (the
  inverse of the queue's sanctioned wall-clock leases), and sqlite
  connections opened with ``check_same_thread=False`` never escape the
  class that serializes them.
* **TNT001** — taint tracking.  Wall-clock / OS-entropy values must not
  flow, through any chain of assignments, returns, attributes and calls,
  into cache-key hashing, store payloads, or non-``"wall"`` telemetry
  fields.  This is the dataflow generalization of the syntactic
  DET001/DET002 rules: it catches a ``time.time()`` two modules away
  from the hash it poisons.
* **API001/API002** — drift detection.  ``RunConfig`` fields and the
  CLI's ``argparse`` flags must agree; every registered store backend
  must be importable from ``repro.store`` and covered by the
  conformance suite.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

from .core import Finding, ProjectRule, register_rule
from .dataflow import SinkSpec, TaintEngine
from .index import CONSTRUCTION_METHODS, FileIndex, ProjectIndex
from .rules import UnseededRandomRule, WallClockRule

__all__ = [
    "ApiDriftRule",
    "BackendCoverageRule",
    "ConnectionEscapeRule",
    "LockDisciplineRule",
    "MonotonicBoundaryRule",
    "WallTaintRule",
]


def _class_items(index: ProjectIndex,
                 ) -> Iterator[Tuple[FileIndex, str, Dict[str, Any]]]:
    for f in index.lib_files():
        for name, digest in f.classes.items():
            yield f, name, digest


def _guarded_attrs(digest: Mapping[str, Any]) -> Dict[str, str]:
    """Attr -> guarding lock: explicit annotations plus inference.

    An unannotated attribute is *inferred* guarded when, outside
    construction methods, it is accessed under some class lock at least
    twice and more often locked than not — the "majority under lock"
    heuristic from the issue.  Explicit ``guarded-by`` always wins.
    """
    guarded: Dict[str, str] = dict(digest.get("guarded", {}))
    locks = set(digest.get("lock_attrs", ()))
    if not locks:
        return guarded
    for attr, accesses in digest.get("accesses", {}).items():
        if attr in guarded:
            continue
        votes: Dict[str, int] = {}
        unlocked = 0
        for access in accesses:
            if access["method"] in CONSTRUCTION_METHODS:
                continue
            held = [lk for lk in access.get("locks", ()) if lk in locks]
            if held:
                votes[held[0]] = votes.get(held[0], 0) + 1
            else:
                unlocked += 1
        if votes:
            lock, count = max(votes.items(), key=lambda kv: kv[1])
            if count >= 2 and count > unlocked:
                guarded[attr] = lock
    return guarded


@register_rule
class LockDisciplineRule(ProjectRule):
    """CON001: guarded attributes are only touched under their lock.

    A ``threading.Lock`` only protects state if *every* access honors
    it; one bare read is a data race.  The rule also flags code that
    reaches *into another object's* lock or guarded attribute
    (``other.store._lock``) — cross-object lock acquisition couples two
    classes' locking protocols and belongs behind a method of the
    owning class.
    """

    rule_id = "CON001"
    summary = ("access to a lock-guarded attribute outside `with "
               "self.<lock>:` (declare guards with `# reprolint: "
               "guarded-by=<lock>`)")
    example_bad = (
        "class Store:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self._count = 0  # reprolint: guarded-by=_lock\n"
        "    def bump(self):\n"
        "        self._count += 1   # CON001: not under self._lock\n")
    example_good = (
        "    def bump(self):\n"
        "        with self._lock:\n"
        "            self._count += 1\n")

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        for f, cls, digest in _class_items(index):
            guarded = _guarded_attrs(digest)
            for attr, lock in sorted(guarded.items()):
                for access in digest.get("accesses", {}).get(attr, ()):
                    if access["method"] in CONSTRUCTION_METHODS:
                        continue
                    if lock in access.get("locks", ()):
                        continue
                    kind = "write to" if access["write"] else "read of"
                    yield self.finding_at(
                        f.path, access["line"], access["col"],
                        f"{kind} {cls}.{attr} outside `with "
                        f"self.{lock}:` (guarded by {lock}; add the "
                        f"lock or move the access under it)")
            yield from self._cross_object(index, f, cls, digest)

    def _cross_object(self, index: ProjectIndex, f: FileIndex, cls: str,
                      digest: Mapping[str, Any]) -> Iterator[Finding]:
        for ref in digest.get("foreign_refs", ()):
            owner = self._owner_digest(index, digest, ref["base"])
            if owner is None:
                continue
            owner_cls, owner_digest = owner
            attr = ref["attr"]
            if attr in owner_digest.get("lock_attrs", ()):
                what = f"lock {owner_cls}.{attr}"
            elif attr in _guarded_attrs(owner_digest):
                what = f"guarded attribute {owner_cls}.{attr}"
            else:
                continue
            yield self.finding_at(
                f.path, ref["line"], ref["col"],
                f"{cls}.{ref['method']} reaches into {what} via "
                f"self.{ref['base']}.{attr}; expose a method on "
                f"{owner_cls} that does the locking instead")

    @staticmethod
    def _owner_digest(index: ProjectIndex, digest: Mapping[str, Any],
                      base: str) -> Optional[Tuple[str, Dict[str, Any]]]:
        """Resolve a foreign ref's base attribute to its class digest."""
        declared = digest.get("attr_types", {}).get(base)
        if not declared:
            return None
        bare = declared.split(".")[-1].strip("'\"")
        matches = index.find_class(bare)
        if len(matches) == 1:
            return bare, matches[0][1]
        return None


@register_rule
class MonotonicBoundaryRule(ProjectRule):
    """CON002: monotonic clock values must not cross a process boundary.

    ``time.monotonic()`` readings are only comparable within one
    process; persisting one (sqlite, json, pickle) and comparing it in
    another process silently breaks lease expiry and timeouts.  The
    work queue's leases are sanctioned to use ``time.time()`` for
    exactly this reason — this rule is the inverse guard.
    """

    rule_id = "CON002"
    summary = ("time.monotonic/perf_counter value serialized or stored "
               "across a process boundary (use time.time for leases)")
    # Scoped to the persistence layer: the runner/obs layers stream
    # monotonic *durations* (differences, valid anywhere) to stderr and
    # telemetry manifests, which DET002's docstring already sanctions.
    include = ("repro/store/",)
    example_bad = (
        "    deadline = time.monotonic() + lease\n"
        "    conn.execute('UPDATE items SET lease_expiry=?', (deadline,))\n")
    example_good = (
        "    deadline = time.time() + lease  # comparable across workers\n")

    SOURCES = (
        "time.monotonic", "time.monotonic_ns",
        "time.perf_counter", "time.perf_counter_ns",
    )
    SINKS = (
        SinkSpec(label="process-boundary serialization",
                 calls=frozenset({
                     "json.dump", "json.dumps", "pickle.dump",
                     "pickle.dumps", "marshal.dump", "marshal.dumps",
                 }),
                 methods=frozenset({".execute", ".executemany", ".put"})),
    )

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        engine = TaintEngine(index, self.SOURCES, self.SINKS)
        for flow in engine.find_flows():
            yield self.finding_at(
                flow.path, flow.line, flow.col,
                f"monotonic clock value reaches {flow.sink} "
                f"[{flow.describe()}]; monotonic readings are "
                f"meaningless in other processes — use time.time()")


@register_rule
class ConnectionEscapeRule(ProjectRule):
    """CON003: thread-shared sqlite connections must not escape.

    A connection opened with ``check_same_thread=False`` is only safe
    because the owning class serializes every use behind its lock.
    Returning the raw connection (or a cursor on it) hands callers a
    handle they can use *without* that lock.  Accessors that exist to
    share the connection must declare the contract with
    ``# reprolint: requires-lock=<lock>``.
    """

    rule_id = "CON003"
    summary = ("raw sqlite connection/cursor opened with "
               "check_same_thread=False escapes the owning class")
    example_bad = (
        "    def conn(self):\n"
        "        return self._conn   # CON003: unlocked escape\n")
    example_good = (
        "    def connection(self):  # reprolint: requires-lock=_lock\n"
        "        return self._conn\n")

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        for f, cls, digest in _class_items(index):
            if not digest.get("sqlite_unsafe"):
                continue
            for escape in digest.get("escapes", ()):
                if escape.get("locked") or escape.get("requires"):
                    continue
                if escape["method"] in CONSTRUCTION_METHODS:
                    continue
                yield self.finding_at(
                    f.path, escape["line"], escape["col"],
                    f"{cls}.{escape['method']} leaks the thread-shared "
                    f"sqlite connection {cls}.{escape['attr']}; hold "
                    f"the lock, or annotate the accessor with "
                    f"`# reprolint: requires-lock=<lock>`")


@register_rule
class WallTaintRule(ProjectRule):
    """TNT001: wall-clock/entropy taint must not reach reproducible data.

    The dataflow generalization of DET001/DET002: a value born from
    ``time.time``, ``datetime.now``, ``os.urandom``, ``uuid.uuid4`` or
    the global ``random`` state is *tainted*, taint survives
    assignments, arithmetic, f-strings, returns, attribute fields and
    calls along the project call graph, and it must never reach a cache
    key hash, a store entry payload, a telemetry field outside the
    ``"wall"`` namespace, or — since the distributed tracer ships span
    identity across process boundaries — the trace/span ID derivation
    functions, whose outputs must be byte-identical at any ``--jobs``.
    Findings carry the full provenance chain.
    """

    rule_id = "TNT001"
    summary = ("wall-clock/RNG-tainted value flows into cache-key "
               "hashing, store payloads, or non-'wall' telemetry fields")
    example_bad = (
        "    stamp = time.time()            # tainted at the source\n"
        "    tag = f'run-{stamp:.0f}'       # taint survives the f-string\n"
        "    key = hashlib.sha256(tag.encode())   # TNT001 at the sink\n")
    example_good = (
        "    key = hashlib.sha256(canonical_encode(config))\n"
        "    span['wall'] = {'started': time.time()}  # 'wall' namespace\n")

    SOURCES = tuple(
        sorted(WallClockRule.WALL_CLOCK)
        + ["os.urandom", "uuid.uuid4", "uuid.uuid1", "secrets.token_bytes",
           "secrets.token_hex", "random.SystemRandom"]
        + [f"random.{name}" for name in UnseededRandomRule.GLOBAL_RANDOM]
        + [f"numpy.random.{name}" for name in UnseededRandomRule.GLOBAL_NUMPY]
    )
    SINKS = (
        SinkSpec(label="cache-key hashing",
                 calls=frozenset({
                     "hashlib.sha256", "hashlib.sha1", "hashlib.md5",
                     "hashlib.blake2b", "hashlib.blake2s", "hashlib.new",
                     "repro.runner.cache.cell_key",
                     "repro.runner.cache.canonical_encode",
                     "repro.runner.cache.code_version_salt",
                 })),
        SinkSpec(label="store entry payload",
                 calls=frozenset({"repro.store.base.encode_entry"}),
                 methods=frozenset({".put"})),
        SinkSpec(label="telemetry",
                 dict_field_paths=("repro/obs/", "obs/")),
        SinkSpec(label="trace-id derivation",
                 calls=frozenset({
                     "repro.obs.trace.trace_id_for",
                     "repro.obs.trace.span_id",
                 })),
    )

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        engine = TaintEngine(index, self.SOURCES, self.SINKS)
        for flow in engine.find_flows():
            yield self.finding_at(
                flow.path, flow.line, flow.col,
                f"wall-clock/RNG-tainted value reaches {flow.sink} "
                f"[{flow.describe()}]; reproducible outputs must be "
                f"pure functions of config + seed (wall facts belong "
                f"under the 'wall' namespace)")


@register_rule
class ApiDriftRule(ProjectRule):
    """API001: RunConfig fields and CLI flags agree.

    Every ``RunConfig`` field must be settable from the CLI (an
    ``argparse`` flag whose dest matches the field name) unless the
    field line carries ``# reprolint: cli-exempt``.  Drift here is how
    "works in the API, silently ignored on the CLI" bugs are born.
    """

    rule_id = "API001"
    summary = "RunConfig fields and argparse flags out of sync"
    example_bad = (
        "@dataclass(frozen=True)\n"
        "class RunConfig:\n"
        "    retries: int = 0     # API001: no --retries flag anywhere\n")
    example_good = (
        "    backoff_base: float = 0.25  # reprolint: cli-exempt\n"
        "    # ...or add: parser.add_argument('--retries', type=int)\n")

    CONFIG_CLASS = "RunConfig"

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        matches = index.find_class(self.CONFIG_CLASS)
        if len(matches) != 1:
            return
        config_file, digest = matches[0]
        if not digest.get("is_dataclass"):
            return
        fields = {entry["name"]: entry for entry in digest.get("fields", ())}
        dests = {
            flag["dest"]
            for f in index.lib_files()
            for flag in f.argparse_flags
        }
        for name, entry in sorted(fields.items()):
            if entry.get("cli_exempt") or name in dests:
                continue
            yield self.finding_at(
                config_file.path, entry["line"], 1,
                f"{self.CONFIG_CLASS}.{name} has no matching CLI flag "
                f"(expected an add_argument dest {name!r}); add the "
                f"flag or annotate `# reprolint: cli-exempt`")


@register_rule
class BackendCoverageRule(ProjectRule):
    """API002: every registered store backend is importable and tested.

    ``@register_backend`` only runs if the defining module is imported;
    a backend whose module is unreachable from ``repro.store`` exists
    in source but not in ``STORE_BACKENDS`` at runtime.  And a backend
    that no test parametrizes over ``STORE_BACKENDS`` ships without the
    conformance suite's byte-identical guarantees.
    """

    rule_id = "API002"
    summary = ("store backend not imported from repro.store or not "
               "covered by the STORE_BACKENDS conformance suite")
    example_bad = (
        "# repro/store/redis.py defines @register_backend class "
        "RedisStore\n# ...but repro/store/__init__.py never imports "
        ".redis  -> API002\n")
    example_good = (
        "# repro/store/__init__.py\n"
        "from . import base, local, queue, redis, sqlite  # registers all\n")

    ROOT_MODULE = "repro.store"

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        backends = [(f, entry) for f in index.lib_files()
                    for entry in f.registered_backends]
        if not backends:
            return
        have_root = self.ROOT_MODULE in index.by_module
        reachable = (index.reachable_modules(self.ROOT_MODULE)
                     if have_root else set())
        aux_files = [f for f in index.files if f.aux]
        covered = any("STORE_BACKENDS" in f.references for f in aux_files)
        for f, entry in backends:
            if have_root and f.module not in reachable:
                yield self.finding_at(
                    f.path, entry["line"], 1,
                    f"backend {entry['class']} "
                    f"(scheme {entry.get('scheme')!r}) is never imported "
                    f"from {self.ROOT_MODULE}, so register_backend never "
                    f"runs; import it from {self.ROOT_MODULE}/__init__.py")
            if aux_files and not covered:
                yield self.finding_at(
                    f.path, entry["line"], 1,
                    f"backend {entry['class']} has no conformance-suite "
                    f"coverage: no indexed test parametrizes over "
                    f"STORE_BACKENDS")
