"""Parallel runs must be byte-identical to sequential runs.

The ISSUE acceptance criterion: figure output for ``--jobs 2`` matches
``--jobs 1`` exactly, and a fully cached rerun reproduces it again.
"""

from __future__ import annotations

import pytest

from repro.experiments.__main__ import main


def _stdout(capsys, argv):
    assert main(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("fig", ["fig3", "fig5"])
def test_jobs2_byte_identical_to_jobs1(fig, capsys, tmp_path):
    base = [fig, "--scale", "smoke", "--cache-dir", str(tmp_path)]
    sequential = _stdout(capsys, base + ["--jobs", "1", "--force"])
    parallel = _stdout(capsys, base + ["--jobs", "2", "--force"])
    assert parallel == sequential

    # Third run is served entirely from the cache and must still match.
    cached = _stdout(capsys, base + ["--jobs", "2"])
    assert cached == sequential


def test_no_cache_matches_cached(capsys, tmp_path):
    base = ["fig5", "--scale", "smoke"]
    uncached = _stdout(capsys, base + ["--no-cache"])
    cached = _stdout(capsys, base + ["--cache-dir", str(tmp_path)])
    assert uncached == cached


def test_trace_reuse_identical_in_every_mode(capsys, tmp_path):
    # fig6 cells share traces, so each mode reuses them differently:
    # inline in one scope, pool workers and queue workers each in their
    # own.  The bytes must not depend on which.
    base = ["fig6", "--scale", "smoke"]
    inline = _stdout(capsys, base + ["--no-cache", "--jobs", "1"])
    pooled = _stdout(capsys, base + ["--no-cache", "--jobs", "2"])
    queued = _stdout(capsys, base + [
        "--store", f"sqlite:{tmp_path / 'results.db'}",
        "--queue-workers", "2"])
    assert pooled == inline
    assert queued == inline
