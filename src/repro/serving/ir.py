"""Sharded CREATe-IR serving: dual-index partitions behind one facade.

``ShardedIrIndexer`` partitions both CREATe-IR indexes — the property
graph and the keyword engine — by doc-id hash: each partition is a
complete :class:`~repro.ir.indexer.CreateIrIndexer` over its slice of
the corpus (own cypher engine, own temporal closure), sharing one
concept normalizer.  ``ShardedIrSearcher`` executes the paper's
Figure-6 workflow as a parallel fan-out: the query is parsed once,
each shard runs graph search and keyword search over its partition,
and the per-shard rankings merge into exactly the unsharded result
(graph scores are per-document; keyword scores use cross-shard BM25
statistics).

The serving core's epoch-stamped cache fronts the fused result; any
``register_report``/``delete`` bumps the touched shard's epoch and
thereby invalidates every cached query that could observe it —
including one whose fan-out was in flight when the write landed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.ir.indexer import CreateIrIndexer, IndexedReport
from repro.ir.query_parser import ParsedQuery, QueryParser
from repro.ir.ranking import fuse_results
from repro.ir.searcher import CreateIrSearcher, SearchResult
from repro.ontology.normalize import ConceptNormalizer
from repro.search.analysis import (
    CREATE_IR_ANALYZER_CONFIG,
    STANDARD_ANALYZER_CONFIG,
)
from repro.serving.core import FanOut, ShardRouter, merge_top_k
from repro.serving.engine import ShardedSearchEngine
from repro.serving.graph import ShardedPropertyGraph

if TYPE_CHECKING:  # pragma: no cover
    from typing import Sequence

    from repro.runtime.metrics import MetricsRegistry


class ShardedIrIndexer:
    """Doc-id-hash sharded drop-in for :class:`CreateIrIndexer`.

    Args:
        n_shards: partition count.
        close_temporal: forwarded to every partition's indexer.
        cache_size: engine-level query-cache entries (0 disables).
        metrics: registry for shard/cache counters.
    """

    def __init__(
        self,
        n_shards: int,
        close_temporal: bool = True,
        cache_size: int = 256,
        metrics: "MetricsRegistry | None" = None,
    ):
        self.router = ShardRouter(n_shards)
        self.engine = ShardedSearchEngine(
            n_shards,
            {
                "body": CREATE_IR_ANALYZER_CONFIG,
                "title": STANDARD_ANALYZER_CONFIG,
            },
            default_field="body",
            router=self.router,
            cache_size=cache_size,
            metrics=metrics,
        )
        self.graph = ShardedPropertyGraph(n_shards, router=self.router)
        self.normalizer = ConceptNormalizer()
        self.shards: list[CreateIrIndexer] = [
            CreateIrIndexer(
                graph=self.graph.shard(shard_id),
                engine=self.engine.shard(shard_id),
                close_temporal=close_temporal,
                normalizer=self.normalizer,
            )
            for shard_id in range(n_shards)
        ]

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    # -- indexing (routed) -------------------------------------------------

    def index_report(
        self,
        doc_id: str,
        title: str,
        text: str,
        spans: "Sequence[tuple[str, str, str, str]]",
        relations: "Sequence[tuple[str, str, str]]",
        negated_span_ids: "Sequence[str]" = (),
    ) -> IndexedReport:
        """Index one report on the shard its doc id hashes to."""
        return self._routed(
            "index_report",
            doc_id,
            title,
            text,
            spans,
            relations,
            negated_span_ids=negated_span_ids,
        )

    def index_annotation_document(self, doc_id, title, annotation_doc):
        """Convenience: index straight from an annotation document."""
        return self._routed(
            "index_annotation_document", doc_id, title, annotation_doc
        )

    def _routed(self, method: str, doc_id: str, *args, **kwargs):
        shard_id = self.router.shard_of(doc_id)
        record = getattr(self.shards[shard_id], method)(
            doc_id, *args, **kwargs
        )
        self.router.bump(shard_id)
        return record

    # -- aggregate accounting ----------------------------------------------

    @property
    def n_reports(self) -> int:
        return sum(shard.n_reports for shard in self.shards)

    @property
    def contradiction_skips(self) -> int:
        return sum(shard.contradiction_skips for shard in self.shards)

    @property
    def closure_failures(self) -> int:
        return sum(shard.closure_failures for shard in self.shards)

    def report_stats(self, doc_id: str) -> IndexedReport | None:
        return self.shards[self.router.shard_of(doc_id)].report_stats(doc_id)

    def stats(self) -> dict:
        """Aggregate indexing health plus per-shard occupancy."""
        return {
            "n_reports": self.n_reports,
            "contradiction_skips": self.contradiction_skips,
            "closure_failures": self.closure_failures,
            "shards": [
                {
                    "shard": shard_id,
                    "n_reports": shard.n_reports,
                    "documents": self.engine.shard(shard_id).n_documents,
                    "graph_nodes": self.graph.shard(shard_id).n_nodes,
                    "epoch": self.router.epoch(shard_id),
                }
                for shard_id, shard in enumerate(self.shards)
            ],
        }

    def serving_stats(self) -> dict:
        """The ``/stats`` serving section: shards, epochs, caches, and
        the graph planner's cardinality statistics + plan counters."""
        return {
            "n_shards": self.n_shards,
            "epochs": list(self.router.epochs()),
            "engine": self.engine.stats(),
            "graph": self.graph.stats(),
            "planner": self.graph.planner_stats(),
        }


class ShardedIrSearcher:
    """Parallel fan-out executor for the Figure-6 search workflow.

    Stands in for :meth:`CreateIrSearcher.search` over a
    :class:`ShardedIrIndexer`: results are exactly the unsharded
    searcher's (same documents, scores, engines, order).

    Args:
        indexer: the populated sharded indexer.
        parser: query parser (None = accept only pre-parsed queries).
        relation_bonus: score bonus per matched query relation.
        metrics: registry for the ``serving.ir.*`` metrics.
        cache_size: fused-result cache entries (0 disables).
    """

    def __init__(
        self,
        indexer: ShardedIrIndexer,
        parser: QueryParser | None = None,
        relation_bonus: float = 1.0,
        metrics: "MetricsRegistry | None" = None,
        cache_size: int = 256,
    ):
        self._indexer = indexer
        self._parser = parser
        self._shard_searchers = [
            CreateIrSearcher(shard, parser=None, relation_bonus=relation_bonus)
            for shard in indexer.shards
        ]
        self._fan_out = FanOut(
            "ir", indexer.n_shards, indexer.router.epochs, cache_size, metrics
        )
        self.cache = self._fan_out.cache

    # -- public API --------------------------------------------------------

    def search(self, query, size: int = 10) -> list[SearchResult]:
        """Search with a raw string (parsed) or a :class:`ParsedQuery`
        (pre-parsed queries bypass the cache)."""
        key = ("ir", query, size) if isinstance(query, str) else None
        return self._fan_out.search(key, lambda: self._search(query, size))

    def _search(self, query, size: int) -> list[SearchResult]:
        if not isinstance(query, str):
            parsed = query
        elif self._parser is None:
            parsed = ParsedQuery(text=query)
        else:
            parsed = self._parser.parse(query)
        keyword_query = {"match": {"body": parsed.keyword_text()}}

        def one_shard(shard_id: int):
            details = self._shard_searchers[shard_id].graph_search(parsed)
            hits = self._indexer.engine.shard(shard_id).search(
                keyword_query, size=size * 3
            )
            return details, hits

        per_shard = self._fan_out.map(one_shard)
        graph_ranked = [
            (detail.doc_id, detail.score)
            for details, _ in per_shard
            for detail in details
        ]
        keyword_ranked = [
            (hit.doc_id, hit.score)
            for hit in merge_top_k((hits for _, hits in per_shard), size * 3)
        ]
        return [
            SearchResult(doc_id, score, engine)
            for doc_id, score, engine in fuse_results(
                graph_ranked, keyword_ranked, size
            )
        ]

    def cache_stats(self) -> dict | None:
        return self.cache.stats() if self.cache is not None else None
