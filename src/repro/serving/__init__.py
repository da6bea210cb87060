"""Sharded query serving: partitioned indexes over one serving core
(parallel fan-out with exact top-k merge behind an invalidation-correct
query cache), per-shard read replicas with WAL-shipped failover, and an
admission-controlled asyncio front end."""

from repro.serving.core import QueryCache, ShardRouter
from repro.serving.engine import ShardedSearchEngine
from repro.serving.frontend import Route, ServingFrontend
from repro.serving.graph import ShardedPropertyGraph
from repro.serving.ir import ShardedIrIndexer, ShardedIrSearcher
from repro.serving.replica import (
    ReplicatedShardedSearchEngine,
    ShardReplicaSet,
)

__all__ = [
    "QueryCache",
    "ReplicatedShardedSearchEngine",
    "Route",
    "ServingFrontend",
    "ShardReplicaSet",
    "ShardRouter",
    "ShardedIrIndexer",
    "ShardedIrSearcher",
    "ShardedPropertyGraph",
    "ShardedSearchEngine",
]
