"""Hand-rolled validators for the telemetry artifact schemas.

No jsonschema dependency: each artifact kind (metrics / series / spans
rows, the run manifest) gets a small structural checker that returns a
list of human-readable problem strings — empty means valid.  The CI
telemetry smoke job runs ``python -m repro.obs validate DIR`` over a
real run, so these checkers *are* the schema documentation's executable
form (the prose lives in EXPERIMENTS.md).

Checks are exact: unexpected keys are errors, not ignored — the schemas
are this repo's own output format, so any drift between writer and
checker is a bug worth failing on.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple, Union

__all__ = [
    "SCHEMA_VERSIONS",
    "header_line",
    "header_row",
    "is_header_row",
    "load_jsonl",
    "validate_lifecycle_row",
    "validate_manifest",
    "validate_metrics_row",
    "validate_run_dir",
    "validate_series_row",
    "validate_span_row",
    "validate_trace_row",
]

#: Current schema version of every JSONL artifact kind.  The first row
#: of each file is a header — ``{"artifact": kind, "schema_version": N}``
#: — so readers can reject files written by an incompatible future
#: build with a clear error instead of a KeyError three fields in.
SCHEMA_VERSIONS = {
    "metrics": 1,
    "spans": 2,
    "series": 1,
    "lifecycle": 1,
    "trace": 1,
}


def header_row(kind: str) -> Dict[str, Any]:
    """The header row every ``kind`` JSONL artifact starts with."""
    return {"artifact": kind, "schema_version": SCHEMA_VERSIONS[kind]}


def header_line(kind: str) -> str:
    """:func:`header_row` serialized exactly as the writers emit it."""
    return json.dumps(header_row(kind), sort_keys=True,
                      separators=(",", ":"))


def is_header_row(row: Any) -> bool:
    """True for a schema header row (of any artifact kind/version)."""
    return isinstance(row, dict) and "schema_version" in row


def load_jsonl(path: Union[str, Path]) -> List[Any]:
    """Read a JSONL artifact's data rows, skipping the schema header.

    The lenient reader the dashboards use: no validation beyond JSON
    parsing (run ``validate_run_dir`` for that), tolerant of files
    predating the header row.
    """
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            row = json.loads(line)
            if not is_header_row(row):
                rows.append(row)
    return rows

#: JSON numbers (bool is an int subclass in Python; exclude explicitly).
def _is_num(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_keys(row: Dict[str, Any], required: Tuple[str, ...],
                where: str) -> List[str]:
    problems = []
    for key in required:
        if key not in row:
            problems.append(f"{where}: missing key {key!r}")
    for key in row:
        if key not in required:
            problems.append(f"{where}: unexpected key {key!r}")
    return problems


def validate_metrics_row(row: Any, where: str = "metrics") -> List[str]:
    """Problems with one ``metrics.jsonl`` row (empty list = valid)."""
    if not isinstance(row, dict):
        return [f"{where}: row must be an object, got {type(row).__name__}"]
    kind = row.get("type")
    if kind not in ("counter", "gauge", "histogram"):
        return [f"{where}: 'type' must be counter/gauge/histogram, "
                f"got {kind!r}"]
    base = ("type", "name", "labels")
    per_kind = {
        "counter": base + ("value",),
        "gauge": base + ("value",),
        "histogram": base + ("buckets", "counts", "count", "sum"),
    }
    problems = _check_keys(row, per_kind[kind], where)
    if not isinstance(row.get("name"), str) or not row.get("name"):
        problems.append(f"{where}: 'name' must be a non-empty string")
    labels = row.get("labels")
    if not isinstance(labels, dict) or not all(
            isinstance(k, str) and isinstance(v, str)
            for k, v in labels.items()):
        problems.append(f"{where}: 'labels' must map strings to strings")
    if kind == "counter":
        if not _is_int(row.get("value")) or row.get("value", 0) < 0:
            problems.append(f"{where}: counter 'value' must be an int >= 0")
    elif kind == "gauge":
        if not _is_num(row.get("value")):
            problems.append(f"{where}: gauge 'value' must be a number")
    else:
        buckets = row.get("buckets")
        counts = row.get("counts")
        if (not isinstance(buckets, list) or not buckets
                or not all(_is_num(b) for b in buckets)):
            problems.append(
                f"{where}: 'buckets' must be a non-empty number list")
        elif any(a >= b for a, b in zip(buckets, buckets[1:])):
            problems.append(f"{where}: 'buckets' must be strictly increasing")
        if (not isinstance(counts, list)
                or not all(_is_int(c) and c >= 0 for c in counts)):
            problems.append(f"{where}: 'counts' must be a list of ints >= 0")
        elif isinstance(buckets, list) and len(counts) != len(buckets) + 1:
            problems.append(
                f"{where}: 'counts' must have len(buckets)+1 entries "
                f"(+Inf overflow)")
        if not _is_int(row.get("count")) or row.get("count", 0) < 0:
            problems.append(f"{where}: 'count' must be an int >= 0")
        elif isinstance(counts, list) and all(
                _is_int(c) for c in counts) and sum(counts) != row["count"]:
            problems.append(f"{where}: 'count' must equal sum of 'counts'")
        if not _is_num(row.get("sum")):
            problems.append(f"{where}: 'sum' must be a number")
    return problems


_SERIES_KEYS = ("access", "part", "occupancy", "target", "alpha",
                "miss_rate", "insertions", "evictions")


def validate_series_row(row: Any, where: str = "series") -> List[str]:
    """Problems with one ``series/*.jsonl`` row (empty list = valid)."""
    if not isinstance(row, dict):
        return [f"{where}: row must be an object, got {type(row).__name__}"]
    problems = _check_keys(row, _SERIES_KEYS, where)
    for key in ("access", "part", "occupancy", "target",
                "insertions", "evictions"):
        value = row.get(key)
        if not _is_int(value) or value < 0:
            problems.append(f"{where}: {key!r} must be an int >= 0")
    if _is_int(row.get("access")) and row["access"] < 1:
        problems.append(f"{where}: 'access' must be >= 1")
    alpha = row.get("alpha")
    if alpha is not None and not _is_num(alpha):
        problems.append(f"{where}: 'alpha' must be a number or null")
    rate = row.get("miss_rate")
    if rate is not None and not (_is_num(rate) and 0.0 <= rate <= 1.0):
        problems.append(f"{where}: 'miss_rate' must be null or in [0, 1]")
    return problems


_LIFECYCLE_KEYS = ("seq", "event", "part", "targets")
_LIFECYCLE_EVENTS = ("create", "retire", "retarget")


def validate_lifecycle_row(row: Any, where: str = "lifecycle") -> List[str]:
    """Problems with one ``lifecycle/*.jsonl`` row (empty list = valid).

    Rows mirror :attr:`PartitionedCache.lifecycle_log`: a sequence
    number, the event kind, the partition acted on (``-1`` for whole-
    cache retargets) and a snapshot of the full target vector.  Drivers
    that know the global access index stamp it as an optional
    ``"access"`` key.
    """
    if not isinstance(row, dict):
        return [f"{where}: row must be an object, got {type(row).__name__}"]
    problems = []
    for key in _LIFECYCLE_KEYS:
        if key not in row:
            problems.append(f"{where}: missing key {key!r}")
    for key in row:
        if key not in _LIFECYCLE_KEYS and key != "access":
            problems.append(f"{where}: unexpected key {key!r}")
    if not _is_int(row.get("seq")) or row.get("seq", 0) < 0:
        problems.append(f"{where}: 'seq' must be an int >= 0")
    if row.get("event") not in _LIFECYCLE_EVENTS:
        problems.append(
            f"{where}: 'event' must be one of {list(_LIFECYCLE_EVENTS)}")
    if not _is_int(row.get("part")) or row.get("part", 0) < -1:
        problems.append(f"{where}: 'part' must be an int >= -1")
    targets = row.get("targets")
    if (not isinstance(targets, list) or not targets
            or not all(_is_int(t) and t >= 0 for t in targets)):
        problems.append(
            f"{where}: 'targets' must be a non-empty list of ints >= 0")
    if "access" in row and (not _is_int(row["access"]) or row["access"] < 0):
        problems.append(f"{where}: 'access' must be an int >= 0")
    return problems


_SPAN_KEYS = ("index", "cell", "experiment", "key", "status", "attempts",
              "retries", "losses", "cache_hit", "errors", "wall")
_WALL_KEYS = ("queued_s", "started_s", "finished_s", "duration_s",
              "traces_synthesized", "traces_reused")
_WALL_SECONDS = ("queued_s", "started_s", "finished_s", "duration_s")
_SPAN_STATUSES = ("ok", "cached", "failed", "pending")


def validate_span_row(row: Any, where: str = "spans") -> List[str]:
    """Problems with one ``spans.jsonl`` row (empty list = valid).

    Schema version 2 added ``wall.traces_synthesized`` and
    ``wall.traces_reused``: the traces the executing process built for
    the cell and those it reused, ``null`` for cells it did not run.
    """
    if not isinstance(row, dict):
        return [f"{where}: row must be an object, got {type(row).__name__}"]
    problems = _check_keys(row, _SPAN_KEYS, where)
    if not _is_int(row.get("index")) or row.get("index", 0) < 0:
        problems.append(f"{where}: 'index' must be an int >= 0")
    for key in ("cell", "experiment", "key"):
        if not isinstance(row.get(key), str):
            problems.append(f"{where}: {key!r} must be a string")
    if row.get("status") not in _SPAN_STATUSES:
        problems.append(
            f"{where}: 'status' must be one of {list(_SPAN_STATUSES)}")
    for key in ("attempts", "retries", "losses"):
        value = row.get(key)
        if not _is_int(value) or value < 0:
            problems.append(f"{where}: {key!r} must be an int >= 0")
    if not isinstance(row.get("cache_hit"), bool):
        problems.append(f"{where}: 'cache_hit' must be a bool")
    errors = row.get("errors")
    if not isinstance(errors, list) or not all(
            isinstance(e, str) for e in errors):
        problems.append(f"{where}: 'errors' must be a list of strings")
    wall = row.get("wall")
    if not isinstance(wall, dict):
        problems.append(f"{where}: 'wall' must be an object")
    else:
        problems.extend(_check_keys(wall, _WALL_KEYS, f"{where}.wall"))
        for key in _WALL_SECONDS:
            value = wall.get(key)
            if value is not None and not _is_num(value):
                problems.append(
                    f"{where}.wall: {key!r} must be a number or null")
        for key in ("traces_synthesized", "traces_reused"):
            value = wall.get(key)
            if value is not None and not (_is_int(value) and value >= 0):
                problems.append(
                    f"{where}.wall: {key!r} must be an int >= 0 or null")
    return problems


_TRACE_KEYS = ("trace", "span", "parent", "kind", "name", "key",
               "attempt", "status", "events", "wall")
_TRACE_KINDS = ("sweep", "cell", "claim", "execute", "ack", "nack", "lost")
_TRACE_STATUSES = ("ok", "error", "cached", "failed", "pending")
_TRACE_WALL_KEYS = ("start", "end", "worker")


def validate_trace_row(row: Any, where: str = "trace") -> List[str]:
    """Problems with one ``traces/*.jsonl`` row (empty list = valid)."""
    if not isinstance(row, dict):
        return [f"{where}: row must be an object, got {type(row).__name__}"]
    problems = _check_keys(row, _TRACE_KEYS, where)
    for key in ("trace", "span"):
        value = row.get(key)
        if not isinstance(value, str) or not value:
            problems.append(f"{where}: {key!r} must be a non-empty string")
    parent = row.get("parent")
    if parent is not None and not (isinstance(parent, str) and parent):
        problems.append(
            f"{where}: 'parent' must be a non-empty string or null")
    if row.get("kind") not in _TRACE_KINDS:
        problems.append(
            f"{where}: 'kind' must be one of {list(_TRACE_KINDS)}")
    for key in ("name", "key"):
        if not isinstance(row.get(key), str):
            problems.append(f"{where}: {key!r} must be a string")
    if not _is_int(row.get("attempt")) or row.get("attempt", 0) < 0:
        problems.append(f"{where}: 'attempt' must be an int >= 0")
    if row.get("status") not in _TRACE_STATUSES:
        problems.append(
            f"{where}: 'status' must be one of {list(_TRACE_STATUSES)}")
    events = row.get("events")
    if not isinstance(events, list):
        problems.append(f"{where}: 'events' must be a list")
    else:
        for n, event in enumerate(events):
            ewhere = f"{where}.events[{n}]"
            if not isinstance(event, dict):
                problems.append(f"{ewhere}: must be an object")
                continue
            if not isinstance(event.get("name"), str) or not event["name"]:
                problems.append(
                    f"{ewhere}: 'name' must be a non-empty string")
            if not isinstance(event.get("det"), bool):
                problems.append(f"{ewhere}: 'det' must be a bool")
            for key in sorted(event):
                if key in ("name", "det"):
                    continue
                value = event[key]
                if not isinstance(value, (str, bool)) and not _is_num(value):
                    problems.append(
                        f"{ewhere}: {key!r} must be a scalar")
    wall = row.get("wall")
    if not isinstance(wall, dict):
        problems.append(f"{where}: 'wall' must be an object")
    else:
        problems.extend(
            _check_keys(wall, _TRACE_WALL_KEYS, f"{where}.wall"))
        for key in ("start", "end"):
            value = wall.get(key)
            if value is not None and not _is_num(value):
                problems.append(
                    f"{where}.wall: {key!r} must be a number or null")
        if not isinstance(wall.get("worker"), str):
            problems.append(f"{where}.wall: 'worker' must be a string")
    return problems


_MANIFEST_KEYS = ("version", "experiment", "interval", "profile", "cells",
                  "artifacts", "wall")
_CELL_COUNT_KEYS = ("total", "completed", "cached", "failed", "retries",
                    "losses")


def validate_manifest(doc: Any, where: str = "manifest") -> List[str]:
    """Problems with a ``manifest.json`` document (empty list = valid)."""
    if not isinstance(doc, dict):
        return [f"{where}: must be an object, got {type(doc).__name__}"]
    problems = _check_keys(doc, _MANIFEST_KEYS, where)
    if not isinstance(doc.get("version"), str) or not doc.get("version"):
        problems.append(f"{where}: 'version' must be a non-empty string")
    if not isinstance(doc.get("experiment"), str):
        problems.append(f"{where}: 'experiment' must be a string")
    if not _is_int(doc.get("interval")) or doc.get("interval", 0) < 1:
        problems.append(f"{where}: 'interval' must be an int >= 1")
    if not isinstance(doc.get("profile"), bool):
        problems.append(f"{where}: 'profile' must be a bool")
    cells = doc.get("cells")
    if not isinstance(cells, dict):
        problems.append(f"{where}: 'cells' must be an object")
    else:
        problems.extend(_check_keys(cells, _CELL_COUNT_KEYS, f"{where}.cells"))
        for key, value in cells.items():
            if key in _CELL_COUNT_KEYS and (not _is_int(value) or value < 0):
                problems.append(
                    f"{where}.cells: {key!r} must be an int >= 0")
    artifacts = doc.get("artifacts")
    if not isinstance(artifacts, dict):
        problems.append(f"{where}: 'artifacts' must be an object")
    else:
        # "lifecycle" and "traces" are optional: lifecycle appears only
        # for runs whose cells saw partition control-plane activity,
        # traces only for runs recorded with tracing enabled.
        for key in ("metrics", "spans", "series"):
            if key not in artifacts:
                problems.append(f"{where}.artifacts: missing key {key!r}")
        for key in artifacts:
            if key not in ("metrics", "spans", "series", "lifecycle",
                           "traces"):
                problems.append(
                    f"{where}.artifacts: unexpected key {key!r}")
        for key in ("metrics", "spans"):
            if not isinstance(artifacts.get(key), str):
                problems.append(
                    f"{where}.artifacts: {key!r} must be a string")
        for key in ("series", "lifecycle", "traces"):
            listed = artifacts.get(key, [])
            if not isinstance(listed, list) or not all(
                    isinstance(s, str) for s in listed):
                problems.append(
                    f"{where}.artifacts: {key!r} must be a list of strings")
    if not isinstance(doc.get("wall"), dict):
        problems.append(f"{where}: 'wall' must be an object")
    return problems


def _validate_header(row: Any, kind: str, where: str) -> List[str]:
    """Problems with one artifact's schema header row."""
    if not is_header_row(row):
        return [f"{where}: missing schema header row; expected "
                f"{header_line(kind)} as the first line"]
    problems = []
    artifact = row.get("artifact")
    if artifact != kind:
        problems.append(
            f"{where}: header names artifact {artifact!r}, "
            f"expected {kind!r}")
    version = row.get("schema_version")
    supported = SCHEMA_VERSIONS[kind]
    if not _is_int(version):
        problems.append(
            f"{where}: 'schema_version' must be an int, got {version!r}")
    elif version != supported:
        problems.append(
            f"{where}: unsupported {kind} schema_version {version}; "
            f"this build reads version {supported} — re-record the run "
            f"or validate with a matching repro build")
    for key in sorted(row):
        if key not in ("artifact", "schema_version"):
            problems.append(f"{where}: unexpected header key {key!r}")
    return problems


def _validate_jsonl(path: Path, checker: Callable[[Any, str], List[str]],
                    kind: str) -> List[str]:
    problems: List[str] = []
    saw_header = False
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path.name}:{lineno}"
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                problems.append(f"{where}: invalid JSON ({exc.msg})")
                continue
            if not saw_header:
                saw_header = True
                problems.extend(_validate_header(row, kind, where))
                if is_header_row(row):
                    continue
                # Fall through: a headerless first row is still checked
                # as data so one problem doesn't mask another.
            problems.extend(checker(row, where))
    if not saw_header:
        problems.append(
            f"{path.name}: empty artifact; expected at least the "
            f"schema header row {header_line(kind)}")
    return problems


def validate_run_dir(path: Union[str, Path]) -> List[str]:
    """Validate every telemetry artifact of one run directory.

    Checks ``manifest.json``, ``metrics.jsonl``, ``spans.jsonl``, every
    ``series/*.jsonl`` and (when present) every ``lifecycle/*.jsonl``
    and ``traces/*.jsonl`` — including each file's ``schema_version``
    header — plus manifest/directory agreement on the series, lifecycle
    and traces file lists.  Returns all problems found (empty = valid).
    """
    root = Path(path)
    problems: List[str] = []
    manifest_path = root / "manifest.json"
    if not manifest_path.is_file():
        problems.append("manifest.json: missing")
    else:
        try:
            doc = json.loads(manifest_path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            problems.append(f"manifest.json: invalid JSON ({exc.msg})")
        else:
            problems.extend(validate_manifest(doc, "manifest.json"))
            artifacts = doc.get("artifacts", {})
            if not isinstance(artifacts, dict):
                artifacts = {}
            for key in ("series", "lifecycle", "traces"):
                listed = artifacts.get(key, [])
                if isinstance(listed, list):
                    actual = sorted(
                        p.name for p in (root / key).glob("*.jsonl")
                    ) if (root / key).is_dir() else []
                    if sorted(listed) != actual:
                        problems.append(
                            f"manifest.json: artifacts.{key} "
                            f"{sorted(listed)} does not match {key}/ "
                            f"contents {actual}")
    for name, checker, kind in (
            ("metrics.jsonl", validate_metrics_row, "metrics"),
            ("spans.jsonl", validate_span_row, "spans")):
        file_path = root / name
        if not file_path.is_file():
            problems.append(f"{name}: missing")
        else:
            problems.extend(_validate_jsonl(file_path, checker, kind))
    series_dir = root / "series"
    if series_dir.is_dir():
        for file_path in sorted(series_dir.glob("*.jsonl")):
            problems.extend(
                _validate_jsonl(file_path, validate_series_row, "series"))
    lifecycle_dir = root / "lifecycle"
    if lifecycle_dir.is_dir():
        for file_path in sorted(lifecycle_dir.glob("*.jsonl")):
            problems.extend(_validate_jsonl(
                file_path, validate_lifecycle_row, "lifecycle"))
    traces_dir = root / "traces"
    if traces_dir.is_dir():
        for file_path in sorted(traces_dir.glob("*.jsonl")):
            problems.extend(
                _validate_jsonl(file_path, validate_trace_row, "trace"))
    return problems
