"""Reusable offline phase: a keyed store of dealt correlated randomness.

The offline phase of the secure protocol — Beaver triples and multiplication
groups — is *input-independent*: the material a run consumes is a
deterministic function of the dealer's seed and the run's public geometry
(user count, backend, statistic, tile/batch sizes, ring width).  Re-dealing
it on every run is therefore pure waste whenever those inputs repeat, which
is exactly what happens for repeated experiment runs, the cells of a
:class:`~repro.experiments.runner.ProtocolSweep`, and the periodic secure
anchors of a :class:`~repro.stream.orchestrator.StreamingCargo` stream.

:class:`TripleStore` memoises dealt material under a
:class:`TripleSignature`.  A *cold* run deals as usual and deposits what it
dealt; a *warm* run fetches the identical bytes back and skips the dealing
entirely (the serve-time accounting is unchanged — the dealers absorb the
recorded tallies).  With a ``cache_dir`` the batches also persist to disk,
so reuse survives the process.

Security note
-------------
The store never changes what a run *would* have dealt — the signature pins
the dealer seed, so a warm hit returns exactly the bytes a cold re-deal from
that seed would reproduce.  Deliberately sharing one seed across runs with
*different* private inputs (``CargoConfig(offline_seed=...)``, sweep reuse)
reuses masks across those inputs, which is sound for benchmarking and
evaluation but must not be done in a deployment; see
``docs/performance.md``.
"""

from __future__ import annotations

import hashlib
import io
import json
import pickle
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import DealerError, IntegrityError, RetryExhaustedError
from repro.resilience.faults import FaultKind, corrupt_bytes, fault_point
from repro.resilience.integrity import checksum_bytes, checksum_file, verify_bytes, verify_file

#: On-disk batch format marker; bump when the material layout changes.
#: Version 2 adds content checksums over the pickled material (and, in mmap
#: mode, over the ``.bin`` side-car) so disk corruption is detected on load
#: instead of being served to the protocol; v1 files read as cold misses.
_PERSIST_MAGIC = "repro-triple-store"
_PERSIST_VERSION = 2

#: mmap-mode format marker (``<token>.npk`` + ``<token>.bin`` file pair).
_MMAP_MAGIC = "repro-triple-store-mmap"
#: Array payloads in the flat ``.bin`` file start on 64-byte boundaries so
#: every :class:`numpy.memmap` view is cache-line (and dtype) aligned.
_MMAP_ALIGN = 64


class _ArrayExternalisingPickler(pickle.Pickler):
    """Pickler that spills every numpy array into a flat side-car file.

    The pickle stream keeps only ``(offset, dtype, shape)`` stubs; the bytes
    live in the ``.bin`` file, which the unpickler maps back as
    :class:`numpy.memmap` views.  This is what makes warm mmap loads *paged*:
    the structural pickle is tiny, and array bytes reach memory only when a
    consumer actually touches them.
    """

    def __init__(self, file, bin_handle) -> None:
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._bin = bin_handle

    def persistent_id(self, obj):
        if isinstance(obj, np.ndarray) and obj.dtype != object and obj.size > 0:
            array = np.ascontiguousarray(obj)
            offset = self._bin.tell()
            padding = (-offset) % _MMAP_ALIGN
            if padding:
                self._bin.write(b"\x00" * padding)
                offset += padding
            self._bin.write(array.tobytes())
            return ("ndarray", offset, array.dtype.str, array.shape)
        return None


class _ArrayMappingUnpickler(pickle.Unpickler):
    """Unpickler resolving array stubs to read-only memmap views."""

    def __init__(self, file, bin_path: Path) -> None:
        super().__init__(file)
        self._bin_path = bin_path

    def persistent_load(self, pid):
        try:
            tag, offset, dtype, shape = pid
        except (TypeError, ValueError) as exc:
            raise pickle.UnpicklingError(f"unexpected persistent id {pid!r}") from exc
        if tag != "ndarray":
            raise pickle.UnpicklingError(f"unexpected persistent id tag {tag!r}")
        return np.memmap(
            self._bin_path,
            mode="r",
            dtype=np.dtype(dtype),
            shape=tuple(shape),
            offset=int(offset),
        )


def dealer_fingerprint(rng: Any) -> str:
    """A stable token for the dealer randomness a run starts from.

    Two dealers with the same fingerprint deal the same material, which is
    what makes memoisation sound.  ``None`` (OS-entropy dealing) gets a
    unique token per call so it can never produce a false warm hit.
    """
    if rng is None:
        import os

        return "entropy:" + os.urandom(8).hex()
    if isinstance(rng, (int, np.integer)):
        return f"seed:{int(rng)}"
    if isinstance(rng, np.random.SeedSequence):
        payload = {"entropy": rng.entropy, "spawn_key": list(rng.spawn_key)}
        return "seq:" + _digest(payload)
    if isinstance(rng, np.random.Generator):
        state = rng.bit_generator.state
        seed_seq = getattr(rng.bit_generator, "seed_seq", None)
        payload = {
            "state": state,
            "children_spawned": getattr(seed_seq, "n_children_spawned", 0),
        }
        return "gen:" + _digest(payload)
    return "other:" + _digest(repr(rng))


def _digest(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:24]


@dataclass(frozen=True)
class TripleSignature:
    """Everything the dealt material of one run is a function of.

    ``geometry`` carries the backend-specific shape knobs as a flat tuple of
    ``(name, value)`` pairs (block size, batch size, provision limit, …) so
    two runs collide only when they would consume byte-identical material.
    """

    statistic: str
    backend: str
    num_users: int
    geometry: Tuple
    ring_bits: int
    dealer_key: str

    def token(self) -> str:
        """Filesystem-safe stable identifier for this signature."""
        payload = (
            self.statistic,
            self.backend,
            int(self.num_users),
            tuple(self.geometry),
            int(self.ring_bits),
            self.dealer_key,
        )
        return _digest(repr(payload))


class MaterialSequence:
    """Ordered dealt material served by schedule index.

    A thin exhaustion guard: consumers address their slice by schedule index,
    and any mismatch between the schedule and the stored material — a
    truncated batch, a geometry drift, an index past the end — raises an
    explicit :class:`~repro.exceptions.DealerError` instead of silently
    recycling or re-dealing randomness.

    Examples
    --------
    >>> seq = MaterialSequence(["a", "b"], label="demo")
    >>> seq.take(1)
    'b'
    >>> seq.take(2)
    Traceback (most recent call last):
        ...
    repro.exceptions.DealerError: demo material exhausted: index 2 of 2 slices
    """

    def __init__(self, items: Sequence[Any], label: str = "triple-store") -> None:
        self._items = list(items)
        self._label = label

    def __len__(self) -> int:
        return len(self._items)

    def require(self, count: int) -> None:
        """Fail loudly unless exactly *count* slices are available."""
        if len(self._items) != count:
            raise DealerError(
                f"{self._label} material mismatch: schedule needs {count} "
                f"slices but {len(self._items)} are stored"
            )

    def take(self, index: int) -> Any:
        """The slice at schedule position *index* (explicit exhaustion error)."""
        if not (0 <= index < len(self._items)):
            raise DealerError(
                f"{self._label} material exhausted: index {index} of "
                f"{len(self._items)} slices"
            )
        return self._items[index]


def material_nbytes(material: Any) -> int:
    """Approximate memory footprint of a nested material structure."""
    if isinstance(material, np.ndarray):
        return int(material.nbytes)
    if isinstance(material, dict):
        return sum(material_nbytes(value) for value in material.values())
    if isinstance(material, (list, tuple)):
        return sum(material_nbytes(item) for item in material)
    if hasattr(material, "__dict__"):
        return material_nbytes(vars(material))
    return 8


class TripleStore:
    """Keyed cache of dealt correlated randomness, in memory and on disk.

    Parameters
    ----------
    cache_dir:
        Optional directory for persisted batches.  When set, every stored
        batch is also written to ``<token>.triples`` under it, and misses
        fall back to disk before re-dealing — so warm starts survive process
        restarts and are shareable across a process-parallel sweep.
    max_entry_bytes:
        Batches larger than this are not cached at all (the run simply deals
        as if no store were configured); bounds the cost of one giant run
        polluting the cache.
    max_memory_bytes:
        In-memory budget; least-recently-used batches are evicted past it
        (evicted batches remain on disk when *cache_dir* is set).
    mmap:
        When ``True`` (requires *cache_dir*), batches persist as a tiny
        structural pickle (``<token>.npk``) plus a flat aligned binary file
        (``<token>.bin``) holding every array's bytes, and warm fetches
        return structures whose arrays are **read-only memmap views** into
        that file — the OS pages material in as the run touches it and
        evicts it under pressure, so a warm offline phase never loads the
        whole batch into RAM.  The in-memory LRU and the
        ``max_entry_bytes`` decline rule are bypassed (they guard resident
        memory, which mmap entries do not consume); size limits are
        whatever the filesystem allows.

    Examples
    --------
    >>> store = TripleStore()
    >>> sig = TripleSignature("triangles", "matrix", 8, (), 64, "seed:1")
    >>> store.get(sig) is None
    True
    >>> store.put(sig, {"x": 1})
    True
    >>> store.get(sig)
    {'x': 1}
    >>> store.stats()["hits"], store.stats()["misses"]
    (1, 1)
    """

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        max_entry_bytes: int = 256 << 20,
        max_memory_bytes: int = 512 << 20,
        mmap: bool = False,
    ) -> None:
        self._cache_dir = Path(cache_dir) if cache_dir is not None else None
        if mmap and self._cache_dir is None:
            raise DealerError("mmap=True requires a cache_dir to map batches from")
        self._mmap = bool(mmap)
        if self._cache_dir is not None:
            self._cache_dir.mkdir(parents=True, exist_ok=True)
        self._max_entry_bytes = int(max_entry_bytes)
        self._max_memory_bytes = int(max_memory_bytes)
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        self._entry_bytes: dict = {}
        self._memory_bytes = 0
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._stores = 0
        self._evictions = 0
        self._skipped = 0
        self._integrity_failures = 0
        self._strict_integrity = False
        self._retry = None
        self._metrics = None

    def configure_resilience(
        self, retry=None, strict_integrity: Optional[bool] = None, metrics=None
    ) -> None:
        """Attach per-run resilience behaviour to the store.

        Called by the protocol entry points when a run carries a
        :class:`~repro.resilience.ResilienceConfig`: *retry* wraps disk
        reads, *strict_integrity* escalates checksum failures from graceful
        degradation (count + re-deal) to a raised
        :class:`~repro.exceptions.IntegrityError`, and *metrics* receives
        the retry counters.
        """
        if retry is not None:
            self._retry = retry
        if strict_integrity is not None:
            self._strict_integrity = bool(strict_integrity)
        if metrics is not None:
            self._metrics = metrics

    @property
    def cache_dir(self) -> Optional[str]:
        """The persistence directory, or ``None`` for memory-only."""
        return str(self._cache_dir) if self._cache_dir is not None else None

    @property
    def mmap(self) -> bool:
        """Whether warm fetches return memmap-backed (paged) material."""
        return self._mmap

    def accepts_bytes(self, nbytes: int) -> bool:
        """Whether a batch of *nbytes* would be cached rather than declined.

        Backends whose offline phase can be provisioned either fully (to
        make it storable) or lazily in bounded chunks ask this up front, so
        an over-budget run never materialises the full pool just to have the
        store decline it.  mmap entries never become resident, so the
        resident-memory guard does not apply to them.
        """
        if self._mmap:
            return True
        return int(nbytes) <= self._max_entry_bytes

    def get(self, signature: TripleSignature) -> Optional[Any]:
        """The stored material for *signature*, or ``None`` on a cold miss."""
        token = signature.token()
        if self._mmap:
            # No resident copy is ever kept: every warm fetch rebuilds the
            # (tiny) structural pickle and hands back fresh memmap views, so
            # material only occupies page cache, never the Python heap.
            material = self._load_from_disk(token, signature)
            with self._lock:
                if material is not None:
                    self._hits += 1
                else:
                    self._misses += 1
            return material
        with self._lock:
            if token in self._entries:
                self._entries.move_to_end(token)
                self._hits += 1
                return self._entries[token]
        material = self._load_from_disk(token, signature)
        with self._lock:
            if material is not None:
                self._hits += 1
                self._admit(token, material)
                return material
            self._misses += 1
            return None

    def put(self, signature: TripleSignature, material: Any) -> bool:
        """Deposit dealt *material*; returns whether it was cached.

        Oversized batches (``> max_entry_bytes``) are declined — callers
        treat a declined put exactly like running without a store.  In mmap
        mode material goes straight to disk (no decline, no LRU residency).
        """
        token = signature.token()
        if self._mmap:
            self._write_to_disk(token, signature, material)
            with self._lock:
                self._stores += 1
            return True
        size = material_nbytes(material)
        if size > self._max_entry_bytes:
            with self._lock:
                self._skipped += 1
            return False
        with self._lock:
            self._admit(token, material, size)
            self._stores += 1
        if self._cache_dir is not None:
            self._write_to_disk(token, signature, material)
        return True

    def clear(self) -> None:
        """Drop every in-memory batch (disk batches are left untouched)."""
        with self._lock:
            self._entries.clear()
            self._entry_bytes.clear()
            self._memory_bytes = 0

    def stats(self) -> dict:
        """Hit/miss/store counters plus the current memory footprint."""
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "stores": self._stores,
                "evictions": self._evictions,
                "skipped_oversize": self._skipped,
                "integrity_failures": self._integrity_failures,
                "entries": len(self._entries),
                "memory_bytes": self._memory_bytes,
            }

    @property
    def hits(self) -> int:
        """Number of warm fetches served so far."""
        return self._hits

    @property
    def misses(self) -> int:
        """Number of cold lookups so far."""
        return self._misses

    @property
    def integrity_failures(self) -> int:
        """Number of persisted batches that failed checksum verification."""
        return self._integrity_failures

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _admit(self, token: str, material: Any, size: Optional[int] = None) -> None:
        """Insert under the lock, evicting LRU entries past the budget."""
        if size is None:
            size = material_nbytes(material)
        if token in self._entries:
            self._memory_bytes -= self._entry_bytes.get(token, 0)
            self._entries.pop(token)
        self._entries[token] = material
        self._entry_bytes[token] = size
        self._memory_bytes += size
        while self._memory_bytes > self._max_memory_bytes and len(self._entries) > 1:
            evicted, _ = self._entries.popitem(last=False)
            self._memory_bytes -= self._entry_bytes.pop(evicted, 0)
            self._evictions += 1

    def _path_for(self, token: str) -> Path:
        assert self._cache_dir is not None
        if self._mmap:
            return self._cache_dir / f"{token}.npk"
        return self._cache_dir / f"{token}.triples"

    def _bin_path_for(self, token: str) -> Path:
        assert self._cache_dir is not None
        return self._cache_dir / f"{token}.bin"

    def _write_to_disk(self, token: str, signature: TripleSignature, material: Any) -> None:
        path = self._path_for(token)
        tmp = path.with_suffix(".tmp")
        if self._mmap:
            bin_path = self._bin_path_for(token)
            bin_tmp = bin_path.with_suffix(".bin.tmp")
            # The structural pickle is tiny (array stubs only), so buffering
            # it in memory to checksum it costs nothing; the array bytes
            # stream straight to the .bin side-car as before.
            buffer = io.BytesIO()
            with bin_tmp.open("wb") as bin_handle:
                pickler = _ArrayExternalisingPickler(buffer, bin_handle)
                pickler.dump(material)
            struct_bytes = buffer.getvalue()
            # The bin file must land before the pickle that references it.
            bin_tmp.replace(bin_path)
            checksums = {
                "pickle": checksum_bytes(struct_bytes),
                "bin": checksum_file(bin_path),
            }
            with tmp.open("wb") as handle:
                pickle.dump(
                    (_MMAP_MAGIC, _PERSIST_VERSION, signature, checksums, struct_bytes),
                    handle,
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
            tmp.replace(path)
            return
        payload = pickle.dumps(material, protocol=pickle.HIGHEST_PROTOCOL)
        with tmp.open("wb") as handle:
            pickle.dump(
                (_PERSIST_MAGIC, _PERSIST_VERSION, signature, checksum_bytes(payload), payload),
                handle,
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        tmp.replace(path)

    def _integrity_failure(self, context: str, error: Optional[BaseException] = None):
        """Count one verification failure; raise under strict integrity.

        The graceful (default) path returns ``None``, which the caller
        reports as a cold miss — the run re-deals fresh material instead of
        consuming corrupt shares.
        """
        with self._lock:
            self._integrity_failures += 1
        if self._metrics is not None:
            self._metrics.increment("store_integrity_failures")
        if self._strict_integrity:
            if isinstance(error, IntegrityError):
                raise error
            raise IntegrityError(f"persisted triple batch failed verification: {context}") from error
        return None

    def _load_from_disk(self, token: str, signature: TripleSignature) -> Optional[Any]:
        if self._cache_dir is None:
            return None
        path = self._path_for(token)
        if not path.exists():
            return None

        def read_file() -> bytes:
            spec = fault_point("triple_store.read")
            data = path.read_bytes()
            if spec is not None and spec.kind is FaultKind.BITFLIP:
                data = corrupt_bytes(data, spec)
            return data

        try:
            if self._retry is not None:
                blob = self._retry.run("triple_store.read", read_file, metrics=self._metrics)
            else:
                blob = read_file()
        except (OSError, RetryExhaustedError):
            # An unreadable batch degrades to a cold miss: the run re-deals.
            return None
        expected_magic = _MMAP_MAGIC if self._mmap else _PERSIST_MAGIC
        try:
            magic, version, stored_signature, checksum, payload = pickle.loads(blob)
        except Exception as error:
            # The file exists but does not parse — corruption, not staleness.
            return self._integrity_failure(f"unreadable batch envelope {path.name}", error)
        if magic != expected_magic or version != _PERSIST_VERSION:
            # A stale or foreign format (including pre-checksum v1 batches)
            # is a plain miss, not an integrity event.
            return None
        if stored_signature != signature:
            # Token collision or stale file: never serve mismatched material.
            return None
        try:
            if self._mmap:
                verify_bytes(payload, checksum["pickle"], context=f"batch pickle {path.name}")
                bin_path = self._bin_path_for(token)
                if not bin_path.exists():
                    raise IntegrityError(f"missing side-car {bin_path.name} for batch {path.name}")
                verify_file(bin_path, checksum["bin"], context=f"batch side-car {bin_path.name}")
                unpickler = _ArrayMappingUnpickler(io.BytesIO(payload), bin_path)
                return unpickler.load()
            verify_bytes(payload, checksum, context=f"batch {path.name}")
            return pickle.loads(payload)
        except (IntegrityError, pickle.UnpicklingError, ValueError, EOFError, KeyError) as error:
            return self._integrity_failure(f"batch {path.name}", error)
