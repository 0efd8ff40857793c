"""The pluggable experiment-store interface and its entry format.

An :class:`ExperimentStore` persists experiment-cell results addressed
by their content hash (:func:`repro.runner.cache.cell_key`).  The store
is the durability layer of every sweep: cache hits short-circuit
execution, fresh results are persisted as each cell completes, and an
interrupted sweep resumes from whatever the store already holds —
inline, or through the work queue (:mod:`repro.store.queue`) drained
by forked local workers and any worker processes that join them.

Backends register under a URL-style scheme (``local:PATH``,
``sqlite:PATH``) in :data:`STORE_BACKENDS`; :func:`open_store` resolves
a URL, bare path, or ready instance to a store object.  All backends
share one *entry format* — the checksummed v2 layout::

    repro/result-cache/v2\\n<sha256-hex of payload>\\n<pickled payload>

so entries validate identically everywhere: a present-but-invalid entry
(bad header, checksum mismatch, unpicklable payload) is **quarantined**
with a :class:`CacheCorruptionWarning` and treated as a miss, never
silently recomputed over.  A missing entry is the one silent case.

Backends implement four storage primitives (:meth:`ExperimentStore._read`,
:meth:`ExperimentStore._write`, :meth:`ExperimentStore.quarantine`,
:meth:`ExperimentStore.purge`) plus bookkeeping; validation, corruption
handling and the hit/miss protocol live here so every backend behaves
identically.  See CONTRIBUTING.md for the backend checklist.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    NamedTuple,
    Optional,
    Tuple,
    Type,
    TypeVar,
    Union,
)
import warnings

from ..errors import ConfigurationError

if TYPE_CHECKING:  # avoid a base <-> queue import cycle at runtime
    from .queue import WorkQueue

__all__ = [
    "STORE_FORMAT_VERSION",
    "STORE_MAGIC",
    "STORE_BACKENDS",
    "CacheCorruptionWarning",
    "ExperimentStore",
    "PurgeResult",
    "StoreProxy",
    "StoreStats",
    "decode_entry",
    "encode_entry",
    "open_store",
    "register_backend",
    "resolve_store",
]

#: Bump to invalidate every existing entry after a format change.
#: v2: checksummed entry header (STORE_MAGIC + SHA-256 + payload).
STORE_FORMAT_VERSION = 2

#: Leading bytes of every v2 entry, followed by the 64-hex-char SHA-256
#: of the pickled payload, a newline, then the payload itself.
STORE_MAGIC = b"repro/result-cache/v2\n"


class CacheCorruptionWarning(RuntimeWarning):
    """A store entry failed validation and was quarantined."""


class PurgeResult(NamedTuple):
    """What :meth:`ExperimentStore.purge` removed.

    ``entries`` counts live results deleted; ``quarantined`` counts
    quarantined corrupt entries deleted — reported separately because a
    nonzero count is evidence of earlier corruption worth knowing about
    even while cleaning up.
    """

    entries: int
    quarantined: int

    @property
    def total(self) -> int:
        """Everything removed, live and quarantined."""
        return self.entries + self.quarantined


@dataclass(frozen=True)
class StoreStats:
    """Deterministic facts about a store plus this instance's traffic.

    ``entries`` / ``quarantined`` describe the store's current contents;
    ``hits`` / ``misses`` / ``puts`` / ``quarantines`` count this
    instance's session traffic (they reset with the object, not the
    backing storage).
    """

    backend: str
    location: str
    entries: int
    quarantined: int
    hits: int
    misses: int
    puts: int
    quarantines: int


def encode_entry(value: Any) -> bytes:
    """Serialize ``value`` into the checksummed v2 entry layout."""
    payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    digest = hashlib.sha256(payload).hexdigest().encode("ascii")
    return STORE_MAGIC + digest + b"\n" + payload


def decode_entry(blob: bytes) -> Tuple[Any, Optional[str]]:
    """``(value, None)`` for a valid entry, ``(None, reason)`` otherwise."""
    head = len(STORE_MAGIC)
    if not blob.startswith(STORE_MAGIC) or blob[head + 64:head + 65] != b"\n":
        return None, "missing or malformed entry header"
    digest = blob[head:head + 64]
    payload = blob[head + 65:]
    if hashlib.sha256(payload).hexdigest().encode("ascii") != digest:
        return None, "SHA-256 checksum mismatch"
    try:
        return pickle.loads(payload), None
    except Exception as exc:
        return None, (f"checksummed payload failed to unpickle "
                      f"({type(exc).__name__}: {exc})")


class ExperimentStore(ABC):
    """Abstract checksummed result store addressed by cell keys.

    Subclasses provide raw-blob storage primitives; this base class owns
    the entry format, corruption quarantine and hit/miss accounting so
    every backend is interchangeable — the conformance suite
    (``tests/store/test_conformance.py``) runs against each registered
    backend to keep it that way.
    """

    #: URL scheme the backend registers under (``local``, ``sqlite``).
    scheme: str = ""

    def __init__(self) -> None:
        self._hits = 0
        self._misses = 0
        self._puts = 0
        self._quarantines = 0

    # -- storage primitives (backend-specific) -------------------------

    @abstractmethod
    def _read(self, key: str) -> Optional[bytes]:
        """Raw entry bytes, or ``None`` for a (clean) miss.

        An entry that exists but cannot be read should warn with
        :class:`CacheCorruptionWarning` and return ``None``.
        """

    @abstractmethod
    def _write(self, key: str, blob: bytes) -> None:
        """Atomically persist raw entry bytes under ``key``."""

    @abstractmethod
    def quarantine(self, key: str) -> Optional[str]:
        """Move ``key``'s entry aside for inspection.

        Returns a human-readable location of the quarantined bytes, or
        ``None`` when quarantining failed (the entry stays in place).
        """

    @abstractmethod
    def purge(self) -> PurgeResult:
        """Delete every entry *and* every quarantined entry."""

    @abstractmethod
    def contains(self, key: str) -> bool:
        """Whether a live entry exists under ``key`` (no validation)."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of live entries."""

    @abstractmethod
    def quarantined_count(self) -> int:
        """Number of quarantined corrupt entries."""

    # -- identity ------------------------------------------------------

    @property
    @abstractmethod
    def url(self) -> str:
        """``<scheme>:<location>`` string that reopens this store
        (what the coordinator hands to worker processes)."""

    @abstractmethod
    def aux_dir(self, name: str) -> Path:
        """Directory for sidecar artifacts (``failures``, ``telemetry``,
        ``queue``) tied to this store's lifetime.  Created on demand."""

    @abstractmethod
    def make_queue(self, name: str) -> "WorkQueue":
        """Open the named work queue backed by this store's storage."""

    @abstractmethod
    def queues(self) -> List[str]:
        """Names of every work queue this store holds (sorted).

        Discovery hook for the status CLI (``python -m repro.store``);
        listing must not create anything.
        """

    def close(self) -> None:
        """Release backend resources (connections); idempotent."""

    # -- shared protocol -----------------------------------------------

    def get(self, key: str) -> Tuple[bool, Any]:
        """``(hit, value)``; a missing entry is a clean miss.

        A *present but invalid* entry — bad header, SHA-256 mismatch,
        payload that will not unpickle — is quarantined with a
        :class:`CacheCorruptionWarning` and reported as a miss, so the
        cell recomputes while the corrupt bytes stay available for
        inspection.
        """
        blob = self._read(key)
        if blob is None:
            self._misses += 1
            return False, None
        value, reason = decode_entry(blob)
        if reason is None:
            self._hits += 1
            return True, value
        self._misses += 1
        self._quarantines += 1
        quarantined = self.quarantine(key)
        where = (f"quarantined to {quarantined}" if quarantined is not None
                 else "quarantine failed; entry left in place")
        warnings.warn(
            f"result-cache entry {key[:12]}... is corrupt ({reason}); "
            f"{where}; the cell will be recomputed",
            CacheCorruptionWarning, stacklevel=2)
        return False, None

    def put(self, key: str, value: Any) -> None:
        """Atomically persist ``value`` (checksummed) under ``key``."""
        self._write(key, encode_entry(value))
        self._puts += 1

    def write_raw(self, key: str, blob: bytes) -> None:
        """Write raw bytes under ``key``, bypassing entry encoding.

        Test and fault-injection hook (:mod:`repro.store.faults` uses
        it to plant corrupt entries); normal code wants :meth:`put`.
        """
        self._write(key, blob)

    def __contains__(self, key: str) -> bool:
        return self.contains(key)

    def stats(self) -> StoreStats:
        """Current contents plus this instance's session traffic."""
        return StoreStats(
            backend=self.scheme, location=self.url,
            entries=len(self), quarantined=self.quarantined_count(),
            hits=self._hits, misses=self._misses, puts=self._puts,
            quarantines=self._quarantines)

    @classmethod
    def from_url(cls, rest: str) -> "ExperimentStore":
        """Construct from the part of the URL after ``<scheme>:``."""
        return cls(rest)  # type: ignore[call-arg]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.url!r})"


class StoreProxy(ExperimentStore):
    """Transparent pass-through wrapper around another store.

    Base class for decorating stores — fault injection
    (:mod:`repro.store.faults`) and transient-error retries
    (:mod:`repro.store.retry`) subclass this and override only the
    operations they intercept.  *Every* operation, public protocol
    included, delegates to ``inner``: hit/miss/put traffic keeps
    accruing on the wrapped store's counters, so ``stats()`` telemetry
    is identical with or without a proxy in the stack.
    """

    def __init__(self, inner: ExperimentStore) -> None:
        super().__init__()
        self.inner = inner

    @property
    def scheme(self) -> str:  # type: ignore[override]
        return self.inner.scheme

    # -- storage primitives --------------------------------------------

    def _read(self, key: str) -> Optional[bytes]:
        return self.inner._read(key)

    def _write(self, key: str, blob: bytes) -> None:
        self.inner._write(key, blob)

    def quarantine(self, key: str) -> Optional[str]:
        return self.inner.quarantine(key)

    def purge(self) -> PurgeResult:
        return self.inner.purge()

    def contains(self, key: str) -> bool:
        return self.inner.contains(key)

    def __len__(self) -> int:
        return len(self.inner)

    def quarantined_count(self) -> int:
        return self.inner.quarantined_count()

    # -- shared protocol (delegated so traffic counters stay inner) ----

    def get(self, key: str) -> Tuple[bool, Any]:
        return self.inner.get(key)

    def put(self, key: str, value: Any) -> None:
        self.inner.put(key, value)

    def write_raw(self, key: str, blob: bytes) -> None:
        self.inner.write_raw(key, blob)

    def stats(self) -> StoreStats:
        return self.inner.stats()

    # -- identity ------------------------------------------------------

    @property
    def url(self) -> str:
        return self.inner.url

    def aux_dir(self, name: str) -> Path:
        return self.inner.aux_dir(name)

    def make_queue(self, name: str) -> "WorkQueue":
        return self.inner.make_queue(name)

    def queues(self) -> List[str]:
        return self.inner.queues()

    def close(self) -> None:
        self.inner.close()


#: Registered backends: URL scheme -> store class.
STORE_BACKENDS: Dict[str, Type[ExperimentStore]] = {}

_S = TypeVar("_S", bound=Type[ExperimentStore])


def register_backend(cls: _S) -> _S:
    """Class decorator adding ``cls`` to :data:`STORE_BACKENDS`."""
    if not cls.scheme:
        raise ConfigurationError(
            f"store backend {cls.__name__} must define a scheme")
    STORE_BACKENDS[cls.scheme] = cls
    return cls


StoreSpec = Union[str, "os.PathLike[str]", ExperimentStore]


def open_store(spec: StoreSpec) -> ExperimentStore:
    """Resolve a store URL, bare path, or instance to a store object.

    ``local:PATH`` and ``sqlite:PATH`` select a registered backend; a
    bare path (no scheme, or a one-letter Windows drive) opens the
    default ``local`` backend there, preserving the historical
    cache-directory arguments.  Unknown schemes raise
    :class:`~repro.errors.ConfigurationError` listing what exists.
    """
    if isinstance(spec, ExperimentStore):
        return spec
    text = os.fspath(spec)
    scheme, sep, rest = text.partition(":")
    if sep and len(scheme) > 1:
        try:
            backend = STORE_BACKENDS[scheme]
        except KeyError:
            raise ConfigurationError(
                f"unknown store backend {scheme!r} in {text!r}; "
                f"expected one of {sorted(STORE_BACKENDS)}") from None
        if not rest:
            raise ConfigurationError(
                f"store URL {text!r} has no path after the scheme")
        return backend.from_url(rest)
    return STORE_BACKENDS["local"].from_url(text)


def resolve_store(spec: Optional[StoreSpec]) -> Optional[ExperimentStore]:
    """:func:`open_store`, with ``None`` passing through (no store)."""
    return None if spec is None else open_store(spec)
