"""Typed run configuration: every runner knob in one dataclass.

:class:`RunConfig` replaces the kwargs sprawl that had accreted on
:func:`repro.runner.run_cells`, :meth:`ExperimentSpec.run
<repro.experiments.registry.ExperimentSpec.run>` and
:func:`repro.api.run_experiment` — parallelism, the experiment store,
the resilience policy, progress/telemetry sinks and the work-queue
knobs all travel together as one validated, immutable value::

    from repro.runner import RunConfig, run_cells

    cfg = RunConfig(jobs=4, store="sqlite:results.db",
                    retries=2, keep_going=True)
    results = run_cells(cells, cfg)

The legacy keyword style (``run_cells(cells, jobs=4)``) still works
through :func:`coerce_run_config`, which emits a single
:class:`DeprecationWarning` per call; the removed ``cache=`` alias of
the ``store`` field is now an error.  New code should construct a
:class:`RunConfig`.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Optional

from ..errors import ConfigurationError
from ..store import ExperimentStore, StoreSpec, resolve_store
from .progress import Progress
from .resilience import RetryPolicy

if TYPE_CHECKING:
    from ..obs.spans import RunTelemetry

__all__ = ["RunConfig", "coerce_run_config"]


@dataclass(frozen=True)
class RunConfig:
    """How a sweep executes (not *what* it computes — that is the
    experiment config; cache keys never see any of these fields).

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` (default) runs inline; ``N > 1`` forks
        ``N`` local workers that drain the store's work queue (a
        temporary ``sqlite:`` store when ``store`` is ``None``); ``None``
        or ``0`` means one per CPU.  A ``cell_timeout`` also routes a
        ``jobs=1`` sweep through the queue, so a hung cell can be killed.
    store:
        Experiment store holding memoized cell results: a store URL
        (``local:PATH``, ``sqlite:PATH``), a bare directory path
        (opened as ``local``), an :class:`~repro.store.ExperimentStore`
        instance, or ``None`` (no memoization).
    force:
        Ignore (and overwrite) existing store entries.
    retries:
        Extra attempts per failing cell, with capped deterministic
        backoff (``backoff_base`` / ``backoff_cap``).
    cell_timeout:
        Per-cell wall-clock limit in seconds (``None`` = unlimited).
    keep_going:
        Complete the sweep despite permanently failed cells, standing
        :class:`~repro.runner.FailedCell` sentinels in for results.
    progress:
        Optional :class:`~repro.runner.Progress` stderr reporter.
    telemetry:
        Optional :class:`~repro.obs.spans.RunTelemetry` span collector.
    trace:
        Record a distributed trace of the sweep (``traces/*.jsonl``
        under the telemetry directory; see :mod:`repro.obs.trace`).
        Requires a ``telemetry`` collector wired to a
        :class:`~repro.obs.session.TelemetrySession` constructed with
        ``trace=True`` — the session owns the trace directory.  Off by
        default; when off, no trace code runs and no artifacts appear.
    queue_name:
        Which named queue of the store to publish into (one queue per
        concurrent sweep; the default suits single-sweep runs).
    queue_lease:
        Seconds a queue worker may hold a claimed cell before another
        worker may steal it (crash recovery for workers joined with
        ``python -m repro.runner.worker``; the coordinator recovers its
        own workers' cells at once; see :mod:`repro.store.queue`).
    queue_renew_interval:
        Seconds between lease-renewal heartbeats while a queue worker
        executes a cell.  ``None`` (default) derives ``queue_lease / 3``;
        ``0`` disables renewal entirely — a cell slower than the lease
        *will* be stolen, which is the pre-heartbeat behavior and only
        useful for exercising the steal path.
    store_retries:
        Bounded retries for *transient* store/queue errors (SQLite
        ``database is locked``, ``EAGAIN``-family ``OSError``) in queue
        workers and the coordinator (see :mod:`repro.store.retry`).
        Permanent store errors are never retried.
    """

    jobs: Optional[int] = 1
    store: Optional[StoreSpec] = None
    force: bool = False
    retries: int = 0
    cell_timeout: Optional[float] = None
    keep_going: bool = False
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    progress: Optional[Progress] = None  # reprolint: cli-exempt
    telemetry: Optional["RunTelemetry"] = None
    trace: bool = False
    queue_name: str = "sweep"  # reprolint: cli-exempt
    queue_lease: float = 60.0
    queue_renew_interval: Optional[float] = None
    store_retries: int = 5

    def __post_init__(self) -> None:
        # RetryPolicy construction validates the resilience fields.
        self.policy()
        if self.queue_lease <= 0:
            raise ConfigurationError(
                f"queue_lease must be positive, got {self.queue_lease}")
        if (self.queue_renew_interval is not None
                and self.queue_renew_interval < 0):
            raise ConfigurationError(
                f"queue_renew_interval must be >= 0 (0 disables renewal) "
                f"or None for auto, got {self.queue_renew_interval}")
        if self.store_retries < 0:
            raise ConfigurationError(
                f"store_retries must be >= 0, got {self.store_retries}")
        if self.trace and self.telemetry is None:
            raise ConfigurationError(
                "trace=True requires a telemetry collector "
                "(TelemetrySession(..., trace=True).telemetry) — the "
                "trace artifacts live in the telemetry run directory")

    def policy(self) -> RetryPolicy:
        """The :class:`~repro.runner.RetryPolicy` these fields define."""
        return RetryPolicy(
            retries=self.retries, backoff_base=self.backoff_base,
            backoff_cap=self.backoff_cap, cell_timeout=self.cell_timeout,
            keep_going=self.keep_going)

    def open_store(self) -> Optional[ExperimentStore]:
        """Resolve the ``store`` field to a live store (or ``None``)."""
        return resolve_store(self.store)

    def replace(self, **changes: Any) -> "RunConfig":
        """A copy with ``changes`` applied (``dataclasses.replace``)."""
        return dataclasses.replace(self, **changes)


#: Removed legacy keyword names and their modern replacements; passing
#: one is an error naming the field to use instead.
_REMOVED_ALIASES: Dict[str, str] = {"cache": "store"}

_LEGACY_FIELDS = frozenset(f.name for f in dataclasses.fields(RunConfig))


def coerce_run_config(config: Optional[RunConfig],
                      legacy: Dict[str, Any], *, where: str,
                      stacklevel: int = 3) -> RunConfig:
    """Fold legacy keyword arguments into a :class:`RunConfig`.

    The shim behind every runner entry point: ``config`` (the new
    style) passes through untouched; a non-empty ``legacy`` dict (the
    old ``jobs=...`` style) emits **one** :class:`DeprecationWarning`
    and is mapped onto a fresh :class:`RunConfig`.  Mixing both styles,
    passing a keyword that was never a runner knob, or using the
    removed ``cache=`` alias is an error.
    """
    if config is not None:
        if legacy:
            raise ConfigurationError(
                f"{where}: pass either a RunConfig or legacy keyword "
                f"arguments, not both (got {sorted(legacy)})")
        return config
    if not legacy:
        return RunConfig()
    removed = sorted(set(legacy) & set(_REMOVED_ALIASES))
    if removed:
        replacements = ", ".join(
            f"{name}= was renamed to {_REMOVED_ALIASES[name]}="
            for name in removed)
        raise TypeError(
            f"{where}(): {replacements}; pass a RunConfig")
    unknown = sorted(set(legacy) - _LEGACY_FIELDS)
    if unknown:
        raise TypeError(
            f"{where}() got unexpected keyword argument(s) {unknown}")
    warnings.warn(
        f"{where}: keyword arguments {sorted(legacy)} are deprecated; "
        f"pass a RunConfig",
        DeprecationWarning, stacklevel=stacklevel)
    return RunConfig(**legacy)
