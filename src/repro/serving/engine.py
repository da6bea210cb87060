"""Sharded keyword serving: per-shard fan-out, exact top-k merge.

``ShardedSearchEngine`` partitions documents across N independent
:class:`~repro.search.engine.SearchEngine` shards by doc-id hash and
runs every query through the serving core (:mod:`repro.serving.core`):
an epoch-stamped cache in front of a parallel fan-out whose per-shard
top-k lists merge into the global top-k.

**Exact rank equivalence.**  BM25 depends on corpus statistics (``N``,
``df``, avgdl) that a shard holding 1/N of the corpus gets wrong.
Each shard therefore scores through a
:class:`~repro.search.engine.CorpusStatsIndexView` whose statistics
are aggregated across *all* shards, so per-document scores are
bit-identical to the unsharded engine and the merged top-k is exactly
its ranking.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.exceptions import SearchError
from repro.search.engine import SearchEngine
from repro.serving.core import (
    FanOut,
    Partitioned,
    ShardedKeywordSearch,
    ShardRouter,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.metrics import MetricsRegistry


class ShardedSearchEngine(ShardedKeywordSearch, Partitioned):
    """N-way sharded :class:`SearchEngine` with identical semantics.

    Args:
        n_shards: partition count (1 keeps the fan-out machinery but a
            single partition; useful for cache-only serving).
        field_analyzers / default_field: as for :class:`SearchEngine`
            (identical analyzers on every shard).
        router: shared :class:`ShardRouter` (created when omitted) —
            pass the serving layer's router so graph and keyword
            mutations share one epoch vector.
        cache_size: query-cache entries (0 disables the cache).
        metrics: registry for the ``serving.engine.*`` metrics.
    """

    error = SearchError

    def __init__(
        self,
        n_shards: int,
        field_analyzers: dict[str, dict] | None = None,
        default_field: str = "body",
        router: ShardRouter | None = None,
        cache_size: int = 256,
        metrics: "MetricsRegistry | None" = None,
    ):
        super().__init__(
            [
                SearchEngine(field_analyzers, default_field=default_field)
                for _ in range(n_shards)
            ],
            router,
        )
        self.default_field = default_field
        for shard in self.shards:
            shard.stats_provider = self._global_stats()
        self.fan_out = FanOut(
            "engine", n_shards, self.router.epochs, cache_size, metrics
        )

    def _read(self, shard_id: int, fn: Callable[[SearchEngine], Any]) -> Any:
        return fn(self.shards[shard_id])

    _write = _read

    def _primaries(self) -> list[SearchEngine]:
        return self.shards

    def explain_terms(self, field: str, text: str) -> list[str]:
        """Analyzer output (identical on every shard)."""
        return self.shards[0].explain_terms(field, text)
