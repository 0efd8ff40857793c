"""Text dashboard over a telemetry run directory.

``python -m repro.obs report DIR`` renders, from the artifacts a
:class:`~repro.obs.session.TelemetrySession` wrote:

* a run header (experiment, package version, cell counts, wall time);
* the top-N slowest cells with attempt/retry/fault annotations;
* a fault & retry summary grouped by error type;
* trace synthesis totals: traces built versus reused within the sweep;
* per-partition sparklines of the recorded time series — occupancy
  against target, and the alpha_i convergence that Figs. 3/5 of the
  paper argue from — rendered via
  :func:`repro.analysis.text_plots.sparkline`.

Everything is plain text (the repo's figures are text too) so the
dashboard can ride along as a CI artifact.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..analysis.text_plots import sparkline
from .schema import load_jsonl

__all__ = ["render_report", "report_data"]


def _load_jsonl(path: Path) -> List[Dict[str, Any]]:
    """Data rows of one artifact file (schema header skipped)."""
    if not path.is_file():
        return []
    return load_jsonl(path)


def _fmt_seconds(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:8.3f}s"


def _spark(values: List[float], width: int, *,
           low: Optional[float] = None,
           high: Optional[float] = None) -> str:
    """Sparkline resampled to at most ``width`` characters."""
    if not values:
        return "(no samples)"
    if len(values) > width:
        n = len(values)
        values = [values[round(i * (n - 1) / (width - 1))]
                  for i in range(width)]
    return sparkline(values, low=low, high=high)


def _header_section(manifest: Dict[str, Any]) -> List[str]:
    cells = manifest.get("cells", {})
    wall = manifest.get("wall", {})
    total_s = wall.get("total_s")
    lines = [
        "== run ==",
        f"experiment : {manifest.get('experiment') or '(unnamed)'}",
        f"version    : repro {manifest.get('version', '?')}",
        f"interval   : every {manifest.get('interval', '?')} accesses",
        (f"cells      : {cells.get('total', 0)} total, "
         f"{cells.get('completed', 0)} run, {cells.get('cached', 0)} cached, "
         f"{cells.get('failed', 0)} failed"),
        (f"wall       : {_fmt_seconds(total_s).strip()} total"
         if total_s is not None else "wall       : -"),
    ]
    phases = wall.get("phases") or []
    if phases:
        rendered = ", ".join(f"{p.get('name')}={p.get('seconds', 0):.3f}s"
                             for p in phases)
        lines.append(f"phases     : {rendered}")
    return lines


def _slowest_section(spans: List[Dict[str, Any]], top_n: int) -> List[str]:
    lines = [f"== slowest cells (top {top_n}) =="]
    timed = [s for s in spans
             if s.get("wall", {}).get("duration_s") is not None]
    timed.sort(key=lambda s: (-s["wall"]["duration_s"], s.get("index", 0)))
    if not timed:
        lines.append("(no executed cells)")
        return lines
    for span in timed[:top_n]:
        notes = []
        if span.get("retries"):
            notes.append(f"{span['retries']} retries")
        if span.get("losses"):
            notes.append(f"{span['losses']} pool losses")
        if span.get("status") == "failed":
            notes.append("FAILED")
        suffix = f"  ({', '.join(notes)})" if notes else ""
        lines.append(f"{_fmt_seconds(span['wall']['duration_s'])}  "
                     f"{span.get('cell', '?')}{suffix}")
    return lines


def _faults_section(spans: List[Dict[str, Any]]) -> List[str]:
    lines = ["== faults & retries =="]
    by_error: Dict[str, int] = {}
    for span in spans:
        for error in span.get("errors", []):
            by_error[error] = by_error.get(error, 0) + 1
    retries = sum(s.get("retries", 0) for s in spans)
    losses = sum(s.get("losses", 0) for s in spans)
    failed = [s for s in spans if s.get("status") == "failed"]
    if not by_error and not losses:
        lines.append("(clean run: no faults, no retries)")
        return lines
    lines.append(f"retries={retries}  pool-losses={losses}  "
                 f"failed-cells={len(failed)}")
    for error in sorted(by_error):
        lines.append(f"  {error}: {by_error[error]} failed attempt(s)")
    for span in failed:
        lines.append(f"  FAILED {span.get('cell', '?')} after "
                     f"{span.get('attempts', 0)} attempt(s)")
    return lines


def _synthesis(spans: List[Dict[str, Any]]) -> Dict[str, int]:
    """Totals of the cells' trace synthesis counts (``wall`` facts)."""
    counted = [s["wall"] for s in spans
               if s.get("wall", {}).get("traces_synthesized") is not None]
    return {"cells": len(counted),
            "synthesized": sum(w["traces_synthesized"] for w in counted),
            "reused": sum(w["traces_reused"] for w in counted)}


def _synthesis_section(spans: List[Dict[str, Any]]) -> List[str]:
    totals = _synthesis(spans)
    if not totals["cells"]:
        return ["== trace synthesis ==", "(no executed cells counted)"]
    return ["== trace synthesis ==",
            f"synthesized={totals['synthesized']}  "
            f"reused={totals['reused']}  over {totals['cells']} "
            f"executed cell(s)"]


def _series_section(path: Path, width: int) -> List[str]:
    rows = _load_jsonl(path)
    lines = [f"-- {path.name} --"]
    if not rows:
        lines.append("(no samples)")
        return lines
    parts = sorted({int(row["part"]) for row in rows})
    for part in parts:
        mine = [row for row in rows if row["part"] == part]
        occ = [float(row["occupancy"]) for row in mine]
        target = mine[-1]["target"]
        hi = max(max(occ), float(target)) or 1.0
        lines.append(f"part {part} occupancy (target {target}):")
        lines.append(f"  {_spark(occ, width, low=0.0, high=hi)}  "
                     f"last={mine[-1]['occupancy']}")
        alphas = [float(row["alpha"]) for row in mine
                  if row.get("alpha") is not None]
        if alphas:
            lines.append(f"  alpha_{part}: "
                         f"{_spark(alphas, width)}  "
                         f"first={alphas[0]:.4g} last={alphas[-1]:.4g}")
        rates = [row["miss_rate"] for row in mine
                 if row.get("miss_rate") is not None]
        if rates:
            mean = sum(rates) / len(rates)
            lines.append(f"  miss rate: "
                         f"{_spark([float(r) for r in rates], width, low=0.0, high=1.0)}"
                         f"  mean={mean:.4f}")
    return lines


def report_data(run_dir: Union[str, Path], *,
                top_n: int = 10) -> Dict[str, Any]:
    """The report's facts as one JSON-serializable dict (``--json``).

    Mirrors the text sections — manifest header, slowest cells, fault
    summary, series file inventory — without any rendering, so CI can
    assert on fields instead of scraping the dashboard text.
    """
    root = Path(run_dir)
    manifest: Dict[str, Any] = {}
    manifest_path = root / "manifest.json"
    if manifest_path.is_file():
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    spans = _load_jsonl(root / "spans.jsonl")
    timed = [s for s in spans
             if s.get("wall", {}).get("duration_s") is not None]
    timed.sort(key=lambda s: (-s["wall"]["duration_s"], s.get("index", 0)))
    by_error: Dict[str, int] = {}
    for span in spans:
        for error in span.get("errors", []):
            by_error[error] = by_error.get(error, 0) + 1
    series_files = sorted(p.name for p in (root / "series").glob("*.jsonl")) \
        if (root / "series").is_dir() else []
    trace_files = sorted(p.name for p in (root / "traces").glob("*.jsonl")) \
        if (root / "traces").is_dir() else []
    return {
        "run_dir": str(root),
        "experiment": manifest.get("experiment", ""),
        "version": manifest.get("version", ""),
        "cells": manifest.get("cells", {}),
        "wall": manifest.get("wall", {}),
        "slowest": [
            {"cell": s.get("cell", "?"),
             "duration_s": s["wall"]["duration_s"],
             "retries": s.get("retries", 0),
             "losses": s.get("losses", 0),
             "status": s.get("status", "")}
            for s in timed[:top_n]],
        "faults": {
            "retries": sum(s.get("retries", 0) for s in spans),
            "losses": sum(s.get("losses", 0) for s in spans),
            "failed_cells": sum(1 for s in spans
                                if s.get("status") == "failed"),
            "by_error": {k: by_error[k] for k in sorted(by_error)},
        },
        "synthesis": _synthesis(spans),
        "series": series_files,
        "traces": trace_files,
    }


def render_report(run_dir: Union[str, Path], *, top_n: int = 10,
                  width: int = 60, max_series: int = 4) -> str:
    """Render the text dashboard for one telemetry run directory.

    ``top_n`` caps the slowest-cells table, ``width`` the sparkline
    width, and ``max_series`` how many series files are plotted (the
    rest are listed by name).
    """
    root = Path(run_dir)
    manifest: Dict[str, Any] = {}
    manifest_path = root / "manifest.json"
    if manifest_path.is_file():
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    spans = _load_jsonl(root / "spans.jsonl")

    sections = [_header_section(manifest)] if manifest else []
    if spans:
        sections.append(_slowest_section(spans, top_n))
        sections.append(_faults_section(spans))
        sections.append(_synthesis_section(spans))

    series_files = sorted((root / "series").glob("*.jsonl")) \
        if (root / "series").is_dir() else []
    if series_files:
        block = ["== per-partition series =="]
        for path in series_files[:max_series]:
            block.extend(_series_section(path, width))
        skipped = series_files[max_series:]
        if skipped:
            block.append(f"(+{len(skipped)} more series files: "
                         + ", ".join(p.name for p in skipped) + ")")
        sections.append(block)

    if not sections:
        return f"no telemetry artifacts found under {root}\n"
    return "\n".join("\n".join(section) for section in sections) + "\n"
