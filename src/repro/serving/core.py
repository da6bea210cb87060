"""The sharded-serving core: routing, partitions, one cached fan-out.

* **Routing.**  :class:`ShardRouter` assigns each document to a shard
  by a *stable* hash of its id (crc32, not Python's per-process salted
  ``hash``), so it lives on the same shard across runs, restarts and
  recovery replays; every mutation bumps its shard's **epoch**.
* **Partitioning.**  :class:`Partitioned` holds the shards behind one
  ``Durable`` facade whose journal carries shard-tagged ops.
* **Fan-out.**  :meth:`FanOut.map` runs one task per shard;
  :func:`merge_top_k` merges on ``(-score, str(doc_id))``, the
  unsharded engines' tie-break.  Keyword shards score through
  :class:`GlobalFieldStats`, so BM25 scores are bit-identical to one
  engine holding the whole corpus.
* **Caching.**  :meth:`FanOut.search` fronts a computation with a
  :class:`QueryCache` whose entries are stamped with the epoch vector
  captured *before* computing and served only while every epoch still
  matches — staleness is structurally impossible, with no TTL to tune
  and no invalidation call to forget.

Metrics, per backend label (``engine``, ``replica``, ``ir``):
``serving.<backend>.{searches,cache_hits,cache_misses,search_seconds}``
plus ``serving.<backend>.shard{i}.search_seconds``.
"""

from __future__ import annotations

import json
import time
import zlib
from collections import OrderedDict
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Hashable, Iterable

from repro.exceptions import ReproError
from repro.runtime.executor import BatchExecutor

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.metrics import MetricsRegistry
    from repro.search.engine import ScoredHit, SearchEngine


class ShardRouter:
    """Stable doc-id -> shard assignment plus per-shard epochs.

    Example:
        >>> router = ShardRouter(4)
        >>> router.shard_of("pmid-0001") == router.shard_of("pmid-0001")
        True
    """

    def __init__(self, n_shards: int):
        if n_shards < 1:
            raise ReproError(f"n_shards must be >= 1, got {n_shards}")
        self.n_shards = int(n_shards)
        self._epochs = [0] * self.n_shards

    def shard_of(self, doc_id: Any) -> int:
        """The shard owning ``doc_id`` (stable across processes)."""
        return zlib.crc32(str(doc_id).encode("utf-8")) % self.n_shards

    def bump(self, shard_id: int) -> int:
        """Advance one shard's epoch (called on every shard mutation)."""
        self._epochs[shard_id] += 1
        return self._epochs[shard_id]

    def bump_for(self, doc_id: Any) -> int:
        """Bump the epoch of the shard owning ``doc_id``."""
        return self.bump(self.shard_of(doc_id))

    def epoch(self, shard_id: int) -> int:
        return self._epochs[shard_id]

    def epochs(self) -> tuple[int, ...]:
        """The current epoch vector (the cache validity stamp)."""
        return tuple(self._epochs)


class QueryCache:
    """Bounded LRU keyed by query, validated by shard epochs.

    Args:
        capacity: maximum live entries (LRU eviction beyond it).
        epochs: callable returning the current epoch vector; entries
            stored under an older vector never hit (and are dropped by
            the lookup that finds them).

    Example:
        >>> epochs = [0]
        >>> cache = QueryCache(2, lambda: tuple(epochs))
        >>> cache.put("q", [1, 2]); cache.get("q")
        [1, 2]
        >>> epochs[0] += 1  # a mutation lands
        >>> cache.get("q") is None
        True
    """

    def __init__(self, capacity: int, epochs: Callable[[], tuple]):
        if capacity < 1:
            raise ReproError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._epochs = epochs
        self._entries: OrderedDict[Hashable, tuple[tuple, Any]] = (
            OrderedDict()
        )
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.stale_drops = 0

    def get(self, key: Hashable) -> Any | None:
        """The cached value, or None on miss/stale (stale is dropped)."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        stamp, value = entry
        if stamp != self._epochs():
            del self._entries[key]
            self.stale_drops += 1
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return value

    def lookup(
        self, key: Hashable, compute: Callable[[], Any]
    ) -> tuple[Any, bool]:
        """``(value, hit)``: the cached value, or ``compute()`` stored
        under the epoch vector captured *before* computing — a mutation
        racing the computation makes the entry stale on arrival instead
        of masking itself behind a fresh stamp."""
        value = self.get(key)
        if value is not None:
            return value, True
        stamp = self._epochs()
        value = compute()
        self.put(key, value, stamp=stamp)
        return value, False

    def put(
        self, key: Hashable, value: Any, stamp: tuple | None = None
    ) -> None:
        """Store a value stamped with an epoch vector (the current one
        when ``stamp`` is None)."""
        if stamp is None:
            stamp = self._epochs()
        self._entries[key] = (stamp, value)
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def stats(self) -> dict:
        """Hit/miss/eviction counters for ``/stats``."""
        total = self.hits + self.misses
        return {
            "capacity": self.capacity,
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "stale_drops": self.stale_drops,
            "hit_rate": (self.hits / total) if total else 0.0,
        }


def shard_router(
    router: ShardRouter | None, n_shards: int, error: type[ReproError]
) -> ShardRouter:
    """``router`` (a fresh one when omitted), checked to have
    ``n_shards`` partitions — facades sharing a router share one epoch
    vector, so graph and keyword writes invalidate the same cache."""
    if router is None:
        return ShardRouter(n_shards)
    if router.n_shards != n_shards:
        raise error(
            f"router has {router.n_shards} shards, facade asked for "
            f"{n_shards}"
        )
    return router


def merge_top_k(per_shard: Iterable[Iterable], size: int | None) -> list:
    """Merge per-shard rankings of ``.score``/``.doc_id`` items into the
    global top ``size`` (all of them when ``size`` is None)."""
    merged = [item for items in per_shard for item in items]
    merged.sort(key=lambda item: (-item.score, str(item.doc_id)))
    return merged if size is None else merged[:size]


class GlobalFieldStats:
    """Corpus statistics for one field, summed across keyword stores.

    ``stores`` is called on every read, so a replica set's promoted
    primary is picked up without rewiring.
    """

    __slots__ = ("_field", "_stores")

    def __init__(
        self, field_name: str, stores: Callable[[], Iterable["SearchEngine"]]
    ):
        self._field = field_name
        self._stores = stores

    def _indexes(self):
        return (store._field_index(self._field) for store in self._stores())

    @property
    def n_documents(self) -> int:
        return sum(index.n_documents for index in self._indexes())

    @property
    def total_length(self) -> int:
        return sum(index.total_length for index in self._indexes())

    def document_frequency(self, term: str) -> int:
        return sum(index.document_frequency(term) for index in self._indexes())


class FanOut:
    """One backend's cached, metered, parallel per-shard execution.

    Args:
        backend: metric label (``serving.<backend>.*``).
        n_shards: fan-out width; one executor worker per shard.
        epochs: the router's epoch-vector callable (the cache stamp).
        cache_size: query-cache entries (0 disables the cache).
        metrics: registry for the search counters and timers.
        mode: executor mode (``"serial"`` for deterministic runs).
    """

    def __init__(
        self,
        backend: str,
        n_shards: int,
        epochs: Callable[[], tuple],
        cache_size: int,
        metrics: "MetricsRegistry | None" = None,
        mode: str = "thread",
    ):
        self.prefix = f"serving.{backend}"
        self.n_shards = n_shards
        self.metrics = metrics
        self.cache = QueryCache(cache_size, epochs) if cache_size else None
        self._executor = BatchExecutor(workers=n_shards, mode=mode)

    def search(self, key: Hashable | None, compute: Callable) -> list:
        """``compute()``'s result, from the cache while no shard has
        mutated since it was stored (``key=None`` bypasses the cache)."""
        start = time.perf_counter()
        if self.cache is None or key is None:
            value, hit = compute(), False
        else:
            value, hit = self.cache.lookup(key, compute)
        if self.metrics is not None:
            outcome = "cache_hits" if hit else "cache_misses"
            self.metrics.increment(f"{self.prefix}.searches")
            self.metrics.increment(f"{self.prefix}.{outcome}")
            self.metrics.record(
                f"{self.prefix}.search_seconds", time.perf_counter() - start
            )
        return list(value)

    def map(self, fn: Callable[[int], Any]) -> list:
        """``fn(shard_id)`` for every shard, in shard order; the first
        failing shard's exception is re-raised."""
        values = []
        for outcome in self._executor.map(fn, range(self.n_shards)):
            if not outcome.ok:
                raise outcome.error
            if self.metrics is not None:
                self.metrics.record(
                    f"{self.prefix}.shard{outcome.index}.search_seconds",
                    outcome.duration,
                )
            values.append(outcome.value)
        return values


class ShardedKeywordSearch:
    """The keyword-engine surface shared by the sharded engines.

    Subclasses set ``router``, ``default_field`` and ``fan_out``, and
    define ``_read(shard_id, fn)`` / ``_write(shard_id, fn)`` — call
    ``fn`` on the shard's serving / writable store, return its result
    — and ``_primaries()``, the stores holding every acknowledged
    write (the source of the global statistics).
    """

    router: ShardRouter
    default_field: str
    fan_out: FanOut

    def _global_stats(self) -> Callable[[str], GlobalFieldStats]:
        """The ``stats_provider`` every shard store scores through."""
        return partial(GlobalFieldStats, stores=self._primaries)

    @property
    def cache(self) -> QueryCache | None:
        return self.fan_out.cache

    @property
    def n_documents(self) -> int:
        return sum(store.n_documents for store in self._primaries())

    def index(self, doc_id: Any, fields: dict[str, str]) -> None:
        """Index (or re-index) a document on its owning shard."""
        shard_id = self.router.shard_of(doc_id)
        self._write(shard_id, lambda store: store.index(doc_id, fields))
        self.router.bump(shard_id)

    def delete(self, doc_id: Any) -> bool:
        """Remove a document; returns False when it was absent."""
        shard_id = self.router.shard_of(doc_id)
        deleted = self._write(shard_id, lambda store: store.delete(doc_id))
        if deleted:
            self.router.bump(shard_id)
        return deleted

    def search(self, query: str | dict, size: int = 10) -> list["ScoredHit"]:
        """Top ``size`` hits, exactly as the unsharded engine ranks them.

        A cache miss fans out one task per shard, each returning its
        local top ``size`` under global statistics, and merges them.
        """
        if isinstance(query, str):
            query = {"match": {self.default_field: query}}
        text = json.dumps(query, sort_keys=True, default=str)

        def shard_hits(shard_id: int) -> list["ScoredHit"]:
            return self._read(shard_id, lambda s: s.search(query, size=size))

        return self.fan_out.search(
            (text, size),
            lambda: merge_top_k(self.fan_out.map(shard_hits), size),
        )

    def highlight(
        self, doc_id: Any, field: str, query_text: str, window: int = 60
    ) -> list[str]:
        """Snippets from the owning shard's stored copy."""
        return self._read(
            self.router.shard_of(doc_id),
            lambda store: store.highlight(
                doc_id, field, query_text, window=window
            ),
        )

    def stats(self) -> dict:
        """Shard occupancy, epochs and cache health for ``/stats``."""
        out = {
            "n_shards": self.router.n_shards,
            "epochs": list(self.router.epochs()),
            "shard_documents": [s.n_documents for s in self._primaries()],
        }
        if self.cache is not None:
            out["cache"] = self.cache.stats()
        return out


class _ShardJournal:
    """Conduit: a shard store's journaled ops land in the owning
    facade's journal tagged with the shard id, so one WAL record can
    carry (and replay) mutations across partitions."""

    __slots__ = ("_owner", "_shard_id")

    def __init__(self, owner: "Partitioned", shard_id: int):
        self._owner = owner
        self._shard_id = shard_id

    def append(self, op: dict) -> None:
        journal = self._owner.journal
        if journal is not None:
            journal.append({"shard": self._shard_id, "o": op})


class Partitioned:
    """Doc-id-hash partitions behind one ``Durable`` facade.

    Args:
        shards: the partition stores (each itself ``Durable``).
        router: shared routing/epoch state (created when omitted).

    Subclasses set ``error`` to their domain's exception type.
    """

    error: type[ReproError] = ReproError

    def __init__(self, shards: list, router: ShardRouter | None = None):
        self.router = shard_router(router, len(shards), self.error)
        self.shards = shards
        self._journal: list | None = None

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def shard(self, shard_id: int):
        """Direct access to one partition (serving internals, tests)."""
        return self.shards[shard_id]

    # -- durability (repro.durability.Durable protocol) --------------------

    @property
    def journal(self) -> list | None:
        return self._journal

    @journal.setter
    def journal(self, value: list | None) -> None:
        # Attaching (or the manager's quiet-replay suspension) wires or
        # unwires the per-shard conduits in lockstep, so shard-level
        # mutations journal into this facade exactly while it has one.
        self._journal = value
        for shard_id, shard in enumerate(self.shards):
            shard.journal = (
                _ShardJournal(self, shard_id) if value is not None else None
            )

    def durable_apply(self, op: dict) -> None:
        """Replay one shard-tagged op on the owning partition."""
        shard_id = int(op["shard"])
        self.shards[shard_id].durable_apply(op["o"])
        self.router.bump(shard_id)

    def durable_snapshot(self) -> dict:
        return {
            "n_shards": self.n_shards,
            "shards": [shard.durable_snapshot() for shard in self.shards],
        }

    def durable_restore(self, state: dict) -> None:
        """Restore every partition; the shard count must match the
        snapshot (resharding is a rebuild, not a restore)."""
        if int(state.get("n_shards", -1)) != self.n_shards:
            raise self.error(
                f"snapshot has {state.get('n_shards')} shards, facade has "
                f"{self.n_shards}"
            )
        for shard_id, shard_state in enumerate(state["shards"]):
            self.shards[shard_id].durable_restore(shard_state)
            self.router.bump(shard_id)
