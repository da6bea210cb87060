"""Sharded property graph: N independent partitions, one facade.

Case-report knowledge graphs are naturally partitionable: every node
carries a ``doc_id`` property and every edge connects spans of the
same report, so routing nodes by doc-id hash yields fully independent
per-shard subgraphs.  The facade presents the whole corpus with the
:class:`~repro.graphdb.graph.PropertyGraph` read API (merged,
deterministic ordering) while indexing writes go straight to shard
graphs through the per-shard :class:`~repro.ir.indexer.CreateIrIndexer`
instances that own them.

Mutations bump the owning shard's epoch on the shared
:class:`~repro.serving.core.ShardRouter`, which is what invalidates
cached query results that depended on this partition.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import Any, Iterator

from repro.exceptions import GraphError
from repro.graphdb.graph import Edge, Node, PropertyGraph
from repro.serving.core import Partitioned, ShardRouter


class ShardedPropertyGraph(Partitioned):
    """Doc-id-hash partitioned :class:`PropertyGraph` facade.

    Args:
        n_shards: partition count.
        router: shared epoch/routing state (created when omitted).
    """

    error = GraphError

    def __init__(self, n_shards: int, router: ShardRouter | None = None):
        super().__init__([PropertyGraph() for _ in range(n_shards)], router)
        # Facade-level executor slot; per-shard matches land on the
        # shard graphs' own counters (see merged_planner_counters).
        self.planner_counters: dict[str, int] = {}

    def _owning_shard(self, node_id: str) -> int | None:
        for shard_id, shard in enumerate(self.shards):
            if shard.has_node(node_id):
                return shard_id
        return None

    # -- nodes -------------------------------------------------------------

    def add_node(self, node_id: str, **properties: Any) -> Node:
        """Create/merge a node on the shard its document hashes to.

        Routing uses the ``doc_id`` property when present (the CREATe
        data model always sets it), falling back to the node id.
        """
        existing = self._owning_shard(node_id)
        if existing is not None:
            shard_id = existing  # merge must land on the current owner
        else:
            key = properties.get("doc_id", node_id)
            shard_id = self.router.shard_of(key)
        node = self.shards[shard_id].add_node(node_id, **properties)
        self.router.bump(shard_id)
        return node

    def node(self, node_id: str) -> Node:
        shard_id = self._owning_shard(node_id)
        if shard_id is None:
            raise GraphError(f"unknown node: {node_id!r}")
        return self.shards[shard_id].node(node_id)

    def has_node(self, node_id: str) -> bool:
        return self._owning_shard(node_id) is not None

    def remove_node(self, node_id: str) -> None:
        """Delete a node (and incident edges) from its owning shard."""
        shard_id = self._owning_shard(node_id)
        if shard_id is None:
            return
        self.shards[shard_id].remove_node(node_id)
        self.router.bump(shard_id)

    def nodes(self) -> Iterator[Node]:
        """All nodes (shard order, insertion order within a shard)."""
        return chain.from_iterable(shard.nodes() for shard in self.shards)

    @property
    def n_nodes(self) -> int:
        return sum(shard.n_nodes for shard in self.shards)

    # -- edges -------------------------------------------------------------

    def add_edge(
        self, source: str, target: str, label: str, **properties: Any
    ) -> Edge:
        """Create an edge; both endpoints must live on one shard.

        Raises:
            GraphError: missing endpoint, or endpoints on different
                shards (cross-document edges are outside the serving
                data model).
        """
        src_shard = self._owning_shard(source)
        tgt_shard = self._owning_shard(target)
        if src_shard is None:
            raise GraphError(f"unknown node: {source!r}")
        if tgt_shard is None:
            raise GraphError(f"unknown node: {target!r}")
        if src_shard != tgt_shard:
            raise GraphError(
                f"cross-shard edge {source!r} -> {target!r} "
                f"(shards {src_shard} and {tgt_shard})"
            )
        edge = self.shards[src_shard].add_edge(
            source, target, label, **properties
        )
        self.router.bump(src_shard)
        return edge

    def edges(self) -> Iterator[Edge]:
        """All edges (shard order)."""
        return chain.from_iterable(shard.edges() for shard in self.shards)

    @property
    def n_edges(self) -> int:
        return sum(shard.n_edges for shard in self.shards)

    def _on_owner(self, node_id: str, default: Any, method: str, *args):
        """``method(node_id, *args)`` on the node's owning shard, or
        ``default`` when no shard holds it."""
        shard_id = self._owning_shard(node_id)
        if shard_id is None:
            return default
        return getattr(self.shards[shard_id], method)(node_id, *args)

    def out_edges(self, node_id: str, label: str | None = None) -> list[Edge]:
        return self._on_owner(node_id, [], "out_edges", label)

    def in_edges(self, node_id: str, label: str | None = None) -> list[Edge]:
        return self._on_owner(node_id, [], "in_edges", label)

    def neighbors(self, node_id: str) -> set[str]:
        return self._on_owner(node_id, set(), "neighbors")

    def out_degree(self, node_id: str, label: str | None = None) -> int:
        return self._on_owner(node_id, 0, "out_degree", label)

    def in_degree(self, node_id: str, label: str | None = None) -> int:
        return self._on_owner(node_id, 0, "in_degree", label)

    # -- cardinality statistics (planner inputs) ---------------------------

    def edge_label_counts(self) -> dict[str, int]:
        """Per-label edge counts summed across shards."""
        merged: Counter[str] = Counter()
        for shard in self.shards:
            merged.update(shard.edge_label_counts())
        return dict(merged)

    def edge_label_count(self, label: str) -> int:
        return sum(shard.edge_label_count(label) for shard in self.shards)

    def property_value_count(self, key: str, value: Any) -> int | None:
        """Cross-shard node count for ``key == value``; None when any
        shard cannot answer exactly (unindexed key)."""
        total = 0
        for shard in self.shards:
            count = shard.property_value_count(key, value)
            if count is None:
                return None
            total += count
        return total

    def statistics(self) -> dict:
        """Shard-merged planner statistics (same shape as unsharded)."""
        merged = {
            "n_nodes": self.n_nodes,
            "n_edges": self.n_edges,
            "edge_labels": dict(sorted(self.edge_label_counts().items())),
            "indexed_properties": {},
        }
        for shard in self.shards:
            for key, entry in shard.statistics()["indexed_properties"].items():
                slot = merged["indexed_properties"].setdefault(
                    key, {"n_values": 0, "n_indexed_nodes": 0}
                )
                # Distinct values may overlap across shards, so this
                # is an upper bound; indexed-node totals are exact.
                slot["n_values"] += entry["n_values"]
                slot["n_indexed_nodes"] += entry["n_indexed_nodes"]
        return merged

    def merged_planner_counters(self) -> dict[str, int]:
        """Plan-execution counters: per-shard matches + facade-level
        matches (``planner_counters`` is the executor's mutable slot,
        like on the unsharded graph)."""
        merged = Counter(self.planner_counters)
        for shard in self.shards:
            merged.update(shard.planner_counters)
        return dict(merged)

    def planner_stats(self) -> dict:
        """The ``/stats`` planner section, aggregated over shards."""
        return {
            "counters": dict(sorted(self.merged_planner_counters().items())),
            "statistics": self.statistics(),
        }

    # -- property index ----------------------------------------------------

    def create_property_index(self, key: str) -> None:
        for shard in self.shards:
            shard.create_property_index(key)

    def find_nodes(self, **criteria: Any) -> list[Node]:
        """Matching nodes across all shards, sorted by node id (the
        same contract as the unsharded graph)."""
        out: list[Node] = []
        for shard in self.shards:
            out.extend(shard.find_nodes(**criteria))
        out.sort(key=lambda node: node.node_id)
        return out

    # -- observability -----------------------------------------------------

    def stats(self) -> dict:
        return {
            "n_shards": self.n_shards,
            "shard_nodes": [shard.n_nodes for shard in self.shards],
            "shard_edges": [shard.n_edges for shard in self.shards],
        }
