"""Per-cell progress/timing lines on stderr.

Figure tables go to stdout and must be byte-identical regardless of
``--jobs`` or cache state; everything run-dependent (timings, cache
hits, completion counters) therefore streams here instead.
"""

from __future__ import annotations

import sys
from typing import Optional, TextIO

from .cells import Cell

__all__ = ["Progress"]


class Progress:
    """Emit one ``[experiment done/total] label: status`` line per cell."""

    def __init__(self, stream: Optional[TextIO] = None,
                 enabled: bool = True) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self.enabled = enabled
        self._done = 0
        self._total = 0

    def begin(self, total: int) -> None:
        """Reset counters for a sweep of ``total`` cells."""
        self._done = 0
        self._total = total

    def cell(self, cell: Cell, *, elapsed: Optional[float] = None,
             cached: bool = False, failed: bool = False) -> None:
        """Record one concluded cell: fresh run, cache hit, or permanent
        failure (``failed=True``, counted as done so the ``done/total``
        counter still reaches ``total`` in a keep-going sweep)."""
        self._done += 1
        if failed:
            status = "FAILED"
        elif cached:
            status = "cached"
        else:
            status = f"{elapsed:.2f}s"
        self.emit(f"[{cell.experiment} {self._done}/{self._total}] "
                  f"{cell.label}: {status}")

    def retry(self, cell: Cell, attempt: int, error_type: str,
              message: str, backoff: float) -> None:
        """Record a failed attempt that will be retried (not counted as
        done — the cell is still in flight)."""
        self.emit(f"[{cell.experiment}] {cell.label}: attempt {attempt} "
                  f"failed ({error_type}: {message}); "
                  f"retrying in {backoff:.2f}s")

    def note(self, message: str) -> None:
        """Emit a free-form line (sweep-level notices, error summaries)
        through the same stream as cell/retry lines, so they cannot
        interleave with them."""
        self.emit(message)

    def emit(self, message: str) -> None:
        if not self.enabled:
            return
        # One write + flush per line: FAILED/retry lines and normal cell
        # lines land atomically on the shared stream, so no other writer
        # can slip between a message and its newline under --jobs > 1.
        self.stream.write(message + "\n")
        self.stream.flush()
