"""Pluggable experiment-result stores and the distributed work queue.

Public surface:

* :class:`ExperimentStore` — the abstract checksummed store interface
  (``get``/``put``/``contains``/``quarantine``/``purge``/``stats``).
* :class:`LocalFileStore` (``local:PATH``) — directory of pickles, the
  historical result-cache layout.
* :class:`SQLiteStore` (``sqlite:PATH``) — single WAL-mode database
  file, safe for concurrent worker processes.
* :func:`open_store` / :func:`resolve_store` — URL/path/instance →
  store resolution against :data:`STORE_BACKENDS`.
* :mod:`repro.store.queue` — claim/renew/ack/requeue work queue over a
  store for parallel sweeps (forked local workers, or
  ``python -m repro.runner.worker`` joining from elsewhere).
* :mod:`repro.store.retry` — transient-vs-permanent error
  classification and :class:`RetryingStore` / :class:`RetryingQueue`
  bounded-backoff wrappers.
* :mod:`repro.store.faults` — the deterministic fault-injection
  harness: one ``$REPRO_FAULTS`` plan whose entries target cells
  (raise, hang, kill, corrupt) or store/queue operations (busy,
  oserror, latency, torn, fatal).
* ``python -m repro.store status --store URL`` — queue/lease status CLI
  (:mod:`repro.store.__main__`).

See DESIGN.md (“Experiment store and work queue”) for the architecture
and CONTRIBUTING.md for the add-a-backend checklist.
"""

from .base import (
    STORE_BACKENDS,
    STORE_FORMAT_VERSION,
    STORE_MAGIC,
    CacheCorruptionWarning,
    ExperimentStore,
    PurgeResult,
    StoreProxy,
    StoreSpec,
    StoreStats,
    decode_entry,
    encode_entry,
    open_store,
    register_backend,
    resolve_store,
)
from .local import LocalFileStore
from .queue import ItemState, QueueItem, WorkQueue, WorkQueueProxy
from .retry import (
    RetryingQueue,
    RetryingStore,
    StoreRetryPolicy,
    call_with_retries,
    is_transient_store_error,
)
from .sqlite import SQLiteStore

__all__ = [
    "STORE_BACKENDS",
    "STORE_FORMAT_VERSION",
    "STORE_MAGIC",
    "CacheCorruptionWarning",
    "ExperimentStore",
    "ItemState",
    "LocalFileStore",
    "PurgeResult",
    "QueueItem",
    "RetryingQueue",
    "RetryingStore",
    "SQLiteStore",
    "StoreProxy",
    "StoreRetryPolicy",
    "StoreSpec",
    "StoreStats",
    "WorkQueue",
    "WorkQueueProxy",
    "call_with_retries",
    "decode_entry",
    "encode_entry",
    "is_transient_store_error",
    "open_store",
    "register_backend",
    "resolve_store",
]
