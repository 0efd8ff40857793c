"""Experiment-execution engine: parallel cells with content-addressed memoization.

The runner decomposes an experiment into independent :class:`Cell`\\ s,
executes them inline or through a store-backed work queue drained by
forked worker processes (:func:`run_cells` with a :class:`RunConfig`;
see :mod:`repro.runner.worker`), memoizes each
cell's result in a pluggable :class:`~repro.store.ExperimentStore`
keyed by a SHA-256 of its full configuration (checksummed and
self-quarantining; see :mod:`repro.store`), and streams per-cell
progress to stderr (:class:`Progress`).  Reduction is ordered, so
parallel and distributed runs produce byte-identical output to
sequential runs; see :mod:`repro.experiments.registry` for how
experiments plug in.

Execution is fault tolerant (:mod:`repro.runner.resilience`): failing
cells retry with capped deterministic backoff, hung cells are killed by
per-cell timeouts, a dead worker is replaced and only its cell is
handed out again, and ``keep_going`` sweeps complete with
:class:`FailedCell` sentinels plus a JSON failure manifest instead of
aborting.  The deterministic fault-injection harness in
:mod:`repro.store.faults` (one ``$REPRO_FAULTS`` plan aimed at cells and
store operations) makes all of it testable.
"""

from .cache import (
    CacheCorruptionWarning,
    canonical_encode,
    cell_key,
    code_version_salt,
    default_cache_dir,
)
from .cells import Cell
from .config import RunConfig
from .pool import default_jobs, run_cells
from .progress import Progress
from .resilience import (
    FailedCell,
    RetryPolicy,
    load_manifest,
    write_manifest,
)

__all__ = [
    "Cell",
    "CacheCorruptionWarning",
    "FailedCell",
    "Progress",
    "RetryPolicy",
    "RunConfig",
    "canonical_encode",
    "cell_key",
    "code_version_salt",
    "default_cache_dir",
    "default_jobs",
    "load_manifest",
    "run_cells",
    "write_manifest",
]
