"""Schema validators: accept the writers' real output, reject drift."""

import pytest

from repro.obs.schema import (
    validate_manifest,
    validate_metrics_row,
    validate_series_row,
    validate_span_row,
)

GOOD_COUNTER = {"type": "counter", "name": "runner.retries",
                "labels": {"experiment": "fig5"}, "value": 3}
GOOD_HISTOGRAM = {"type": "histogram", "name": "runner.cell.attempts",
                  "labels": {}, "buckets": [1.0, 2.0], "counts": [4, 1, 0],
                  "count": 5, "sum": 6.0}
GOOD_SERIES = {"access": 1024, "part": 0, "occupancy": 128, "target": 256,
               "alpha": 1.25, "miss_rate": 0.5, "insertions": 7,
               "evictions": 7}
GOOD_SPAN = {"index": 0, "cell": "fig5[mcf]", "experiment": "fig5",
             "key": "ab12", "status": "ok", "attempts": 1, "retries": 0,
             "losses": 0, "cache_hit": False, "errors": [],
             "wall": {"queued_s": 0.0, "started_s": 0.1,
                      "finished_s": 1.0, "duration_s": 0.9,
                      "traces_synthesized": 2, "traces_reused": 5}}
GOOD_MANIFEST = {"version": "1.0.0", "experiment": "fig5", "interval": 1024,
                 "profile": False,
                 "cells": {"total": 1, "completed": 1, "cached": 0,
                           "failed": 0, "retries": 0, "losses": 0},
                 "artifacts": {"metrics": "metrics.jsonl",
                               "spans": "spans.jsonl", "series": []},
                 "wall": {"started_utc": "", "total_s": 1.0, "phases": []}}


@pytest.mark.parametrize("checker,row", [
    (validate_metrics_row, GOOD_COUNTER),
    (validate_metrics_row, GOOD_HISTOGRAM),
    (validate_series_row, GOOD_SERIES),
    (validate_span_row, GOOD_SPAN),
    (validate_manifest, GOOD_MANIFEST),
])
def test_good_documents_validate(checker, row):
    assert checker(row) == []


@pytest.mark.parametrize("mutate,fragment", [
    (lambda r: r.pop("value"), "missing key 'value'"),
    (lambda r: r.update(value=-1), "must be an int >= 0"),
    (lambda r: r.update(value=1.5), "must be an int"),
    (lambda r: r.update(type="summary"), "must be counter/gauge/histogram"),
    (lambda r: r.update(extra=1), "unexpected key 'extra'"),
    (lambda r: r.update(labels={"experiment": 3}), "strings to strings"),
])
def test_bad_counter_rows_rejected(mutate, fragment):
    row = dict(GOOD_COUNTER)
    mutate(row)
    problems = validate_metrics_row(row)
    assert problems and any(fragment in p for p in problems), problems


@pytest.mark.parametrize("mutate,fragment", [
    (lambda r: r.update(buckets=[2.0, 1.0]), "strictly increasing"),
    (lambda r: r.update(counts=[4, 1]), "len(buckets)+1"),
    (lambda r: r.update(count=99), "sum of 'counts'"),
])
def test_bad_histogram_rows_rejected(mutate, fragment):
    row = dict(GOOD_HISTOGRAM)
    mutate(row)
    problems = validate_metrics_row(row)
    assert any(fragment in p for p in problems), problems


@pytest.mark.parametrize("mutate,fragment", [
    (lambda r: r.update(access=0), "'access' must be >= 1"),
    (lambda r: r.update(miss_rate=1.5), "in [0, 1]"),
    (lambda r: r.update(alpha="high"), "number or null"),
    (lambda r: r.pop("occupancy"), "missing key 'occupancy'"),
    (lambda r: r.update(part=-1), "int >= 0"),
])
def test_bad_series_rows_rejected(mutate, fragment):
    row = dict(GOOD_SERIES)
    mutate(row)
    problems = validate_series_row(row)
    assert any(fragment in p for p in problems), problems


def test_span_reuse_counts_may_be_null():
    row = dict(GOOD_SPAN, wall=dict(GOOD_SPAN["wall"],
                                    traces_synthesized=None,
                                    traces_reused=None))
    assert validate_span_row(row) == []


def test_series_none_fields_allowed():
    row = dict(GOOD_SERIES, alpha=None, miss_rate=None)
    assert validate_series_row(row) == []


@pytest.mark.parametrize("mutate,fragment", [
    (lambda r: r.update(status="done"), "'status' must be one of"),
    (lambda r: r.update(cache_hit=1), "must be a bool"),
    (lambda r: r.update(errors=["ok", 3]), "list of strings"),
    (lambda r: r.update(wall={"queued_s": 0.0}), "missing key"),
    (lambda r: r.update(duration_s=1.0), "unexpected key 'duration_s'"),
    (lambda r: r["wall"].pop("traces_reused"),
     "missing key 'traces_reused'"),
    (lambda r: r["wall"].update(traces_synthesized=-1), "int >= 0 or null"),
    (lambda r: r["wall"].update(traces_reused=1.5), "int >= 0 or null"),
    (lambda r: r["wall"].update(traces_reused=True), "int >= 0 or null"),
])
def test_bad_span_rows_rejected(mutate, fragment):
    row = dict(GOOD_SPAN, wall=dict(GOOD_SPAN["wall"]))
    mutate(row)
    problems = validate_span_row(row)
    assert any(fragment in p for p in problems), problems


@pytest.mark.parametrize("mutate,fragment", [
    (lambda d: d.update(version=""), "non-empty string"),
    (lambda d: d.update(interval=0), "int >= 1"),
    (lambda d: d["cells"].pop("retries"), "missing key 'retries'"),
    (lambda d: d.update(artifacts="metrics.jsonl"), "must be an object"),
])
def test_bad_manifests_rejected(mutate, fragment):
    doc = dict(GOOD_MANIFEST, cells=dict(GOOD_MANIFEST["cells"]))
    mutate(doc)
    problems = validate_manifest(doc)
    assert any(fragment in p for p in problems), problems


def test_non_dict_documents_rejected():
    for checker in (validate_metrics_row, validate_series_row,
                    validate_span_row, validate_manifest):
        assert checker([1, 2]) and checker(None)
