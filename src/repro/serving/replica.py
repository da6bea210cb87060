"""Per-shard read replicas: WAL shipping, promotion, failover reads.

Each shard of the serving tier is a :class:`ShardReplicaSet`: one
**primary** store, the single store attached to the shard's own
:class:`~repro.durability.manager.DurabilityManager` (its own WAL,
snapshot and metrics), plus N **replicas** that apply *acknowledged*
records (committed with append + fsync) in LSN order via
``durable_apply``.  A replica behind the manager's latest snapshot
bootstraps from the snapshot file first.

**Read consistency.**  Only a *fully caught-up* replica
(``applied_lsn == durable_lsn``) serves a read; otherwise the primary
does.  With the cache's stamp-before-fan-out epochs, a read never
observes a state older than its stamp — replication lag shifts load
back to the primary instead of leaking stale results.

**Promotion.**  When the primary dies (process crash, poisoned WAL
after an fsync error), a fresh store recovers from the shard's
*surviving bytes* through a fresh manager's ``recover()`` — snapshot,
then WAL replay with torn-tail truncation — exactly as a restarted
process would.  It holds every acknowledged write (and possibly some
complete-but-unacknowledged records that survived the page cache,
which the durability contract allows); the replicas, which only ever
applied acknowledged records, then catch up to it.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Callable

from repro.durability.fs import MemFS
from repro.durability.manager import DurabilityManager
from repro.durability.snapshot import load_snapshot
from repro.exceptions import DurabilityError, ReplicaError, SearchError
from repro.search.engine import SearchEngine
from repro.serving.core import (
    FanOut,
    ShardedKeywordSearch,
    ShardRouter,
    shard_router,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.durability.manager import Durable
    from repro.runtime.metrics import MetricsRegistry


class Replica:
    """One read replica: a store plus the last LSN applied to it."""

    __slots__ = ("store", "applied_lsn")

    def __init__(self, store, applied_lsn: int = 0):
        self.store = store
        self.applied_lsn = applied_lsn


class ShardReplicaSet:
    """One shard's primary + replicas + per-shard WAL.

    Args:
        shard_id: shard index (names the WAL/snapshot files).
        store_factory: builds an empty ``Durable`` store; called for
            the primary, once per replica and on every promotion, so
            every copy starts structurally identical.
        n_replicas: replication factor (>= 0; 0 keeps the WAL machinery
            but leaves nothing to promote).
        fs: durability filesystem for the shard's WAL + snapshots
            (``MemFS`` when omitted; tests wrap a ``FaultInjector``).
        ship_every: apply acknowledged records to replicas every Nth
            commit (1 = synchronous shipping; >1 creates real lag so
            the router's caught-up check earns its keep).
        snapshot_every: snapshot and reset the WAL after this many
            commits (``None`` disables).
        metrics: registry for the ``serving.replica.*`` counters.
    """

    def __init__(
        self,
        shard_id: int,
        store_factory: Callable[[], "Durable"],
        n_replicas: int = 1,
        fs=None,
        ship_every: int = 1,
        snapshot_every: int | None = None,
        metrics: "MetricsRegistry | None" = None,
    ):
        if n_replicas < 0:
            raise ReplicaError(f"n_replicas must be >= 0, got {n_replicas}")
        if ship_every < 1:
            raise ReplicaError(f"ship_every must be >= 1, got {ship_every}")
        self.shard_id = shard_id
        self._factory = store_factory
        self.fs = fs if fs is not None else MemFS()
        self.ship_every = ship_every
        self.snapshot_every = snapshot_every
        self.metrics = metrics
        self.lock = threading.RLock()
        self.replicas: list[Replica] = [
            Replica(store_factory()) for _ in range(n_replicas)
        ]
        self.down = False
        # Acknowledged ops by LSN, in LSN order: shipping never re-reads
        # the WAL.  Promotion rebuilds it from the disk bytes.
        self._records: dict[int, list] = {}
        self._commits_since_ship = 0
        self._read_cursor = 0
        self.promotions = 0
        self._attach(store_factory())

    def _attach(self, primary) -> None:
        """Make ``primary`` the store journaled by a fresh manager over
        this shard's files (a fresh WAL object never inherits a dead
        primary's unflushed buffer)."""
        self.durability = DurabilityManager(
            self.fs,
            snapshot_every=self.snapshot_every,
            wal_name=f"shard-{self.shard_id}.wal",
            snapshot_name=f"shard-{self.shard_id}.snapshot.json",
        )
        self.durability.attach("store", primary)
        self.primary = primary

    @property
    def wal(self):
        return self.durability.wal

    @property
    def durable_lsn(self) -> int:
        return self.durability.durable_lsn

    @property
    def snapshot_lsn(self) -> int:
        return self.durability.snapshot_lsn

    # -- write path --------------------------------------------------------

    def mutate(self, fn: Callable[[Any], Any]) -> Any:
        """Apply one mutation to the primary and make it durable.

        ``fn`` receives the primary store; whatever it journals is
        committed as one WAL record (none when it journaled nothing),
        and whatever it returns is returned.  A failed commit marks the
        primary down — after an fsync error its log tail is unknowable,
        so it must not acknowledge further writes; a replica takes over
        via :meth:`promote`.
        """
        with self.lock:
            if self.down:
                raise ReplicaError(
                    f"shard {self.shard_id} primary is down; promote a "
                    "replica before writing"
                )
            result = fn(self.primary)
            ops = list(self.primary.journal)
            try:
                lsn = self.durability.commit()
            except DurabilityError:
                self.down = True
                raise
            if lsn is None:
                return result
            if self.snapshot_lsn == lsn:
                self._records.clear()  # the snapshot covers them all
            else:
                self._records[lsn] = ops
            self._commits_since_ship += 1
            if self._commits_since_ship >= self.ship_every:
                self.ship()
            return result

    # -- shipping ----------------------------------------------------------

    def ship(self) -> int:
        """Apply acknowledged records (and snapshots) to every replica.

        Returns the number of records applied across all replicas.
        """
        with self.lock:
            applied = sum(self._catch_up(replica) for replica in self.replicas)
            self._commits_since_ship = 0
            if applied:
                self._count("records_shipped", applied)
            return applied

    def _catch_up(self, replica: Replica) -> int:
        """Bring one replica to ``durable_lsn`` from snapshot + mirror
        (replica journals are off: they are never attached)."""
        applied = 0
        if replica.applied_lsn < self.snapshot_lsn:
            snapshot = load_snapshot(self.fs, self.durability.snapshot_name)
            if snapshot is None:
                raise ReplicaError(
                    f"shard {self.shard_id} snapshot missing while a "
                    "replica lags it"
                )
            replica.store.durable_restore(snapshot["stores"]["store"])
            replica.applied_lsn = int(snapshot.get("lsn", 0))
            applied += 1
        for lsn, ops in self._records.items():
            if lsn <= replica.applied_lsn:
                continue
            for op in ops:
                replica.store.durable_apply(op)
            replica.applied_lsn = lsn
            applied += 1
        return applied

    # -- reads -------------------------------------------------------------

    def read_store(self):
        """The store that serves the next read: a caught-up replica
        (round-robin), else the primary.  With the primary down this
        raises :class:`ReplicaError`; the tier promotes and retries."""
        with self.lock:
            if self.down:
                raise ReplicaError(
                    f"shard {self.shard_id} primary is down; reads need a "
                    "promotion"
                )
            eligible = [
                replica
                for replica in self.replicas
                if replica.applied_lsn == self.durable_lsn
            ]
            if not eligible:
                self._count("primary_reads")
                return self.primary
            self._read_cursor = (self._read_cursor + 1) % len(eligible)
            self._count("replica_reads")
            return eligible[self._read_cursor].store

    def lag_lsns(self) -> list[int]:
        """Per-replica lag behind the durable LSN, in LSNs."""
        with self.lock:
            return [
                self.durable_lsn - replica.applied_lsn
                for replica in self.replicas
            ]

    # -- failure & promotion -----------------------------------------------

    def crash_primary(self) -> None:
        """Declare the primary dead (its in-memory state is gone)."""
        with self.lock:
            self.down = True

    def promote(self) -> int:
        """Replace the dead primary with one recovered from disk.

        A fresh store recovers from the shard's *durable bytes* — the
        snapshot, then the WAL suffix with torn-tail truncation — so
        the new primary reflects every acknowledged record regardless
        of shipping lag; the replicas then catch up to it.  A set with
        no replica has no standby to promote.  Returns the recovered
        durable LSN.
        """
        with self.lock:
            if not self.replicas:
                raise ReplicaError(
                    f"shard {self.shard_id} has no replica to promote"
                )
            self._attach(self._factory())
            self.durability.recover()
            self._records = {
                int(record["lsn"]): record["ops"]["store"]
                for record in self.wal.replay().records
                if int(record["lsn"]) > self.snapshot_lsn
            }
            self.down = False
            self.promotions += 1
            self._count("promotions")
            self.ship()
            return self.durable_lsn

    # -- observability -----------------------------------------------------

    def stats(self) -> dict:
        with self.lock:
            return {
                "durable_lsn": self.durable_lsn,
                "snapshot_lsn": self.snapshot_lsn,
                "primary_down": self.down,
                "n_replicas": len(self.replicas),
                "lag_lsns": self.lag_lsns(),
                "promotions": self.promotions,
            }

    def _count(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.increment(f"serving.replica.{name}", amount)


class ReplicatedShardedSearchEngine(ShardedKeywordSearch):
    """N-way sharded search where every shard is a replica set.

    Semantically identical to
    :class:`~repro.serving.engine.ShardedSearchEngine` — the same
    serving core: exact rank equivalence via global BM25 statistics
    and an epoch-stamped query cache — but each shard survives its
    primary's death: reads and writes routed to a dead primary promote
    a replacement recovered from the shard WAL, then proceed.

    Args:
        n_shards / field_analyzers / default_field / router /
            cache_size: as for ``ShardedSearchEngine``.
        n_replicas: replicas per shard.
        ship_every / snapshot_every: replication cadence (see
            :class:`ShardReplicaSet`).
        fs_factory: ``shard_id -> fs`` for per-shard WAL storage
            (``MemFS`` each when omitted; fuzzing injects faults here).
        executor_mode: fan-out executor mode (``"serial"`` for
            deterministic tests).
        metrics: registry for the ``serving.replica.*`` metrics.
    """

    def __init__(
        self,
        n_shards: int,
        n_replicas: int = 1,
        field_analyzers: dict[str, dict] | None = None,
        default_field: str = "body",
        router: ShardRouter | None = None,
        cache_size: int = 256,
        ship_every: int = 1,
        snapshot_every: int | None = None,
        fs_factory: Callable[[int], Any] | None = None,
        executor_mode: str = "thread",
        metrics: "MetricsRegistry | None" = None,
    ):
        self.router = shard_router(router, n_shards, SearchError)
        self.default_field = default_field
        self.metrics = metrics

        def factory() -> SearchEngine:
            store = SearchEngine(field_analyzers, default_field=default_field)
            store.stats_provider = self._global_stats()
            return store

        self.sets: list[ShardReplicaSet] = [
            ShardReplicaSet(
                shard_id,
                factory,
                n_replicas=n_replicas,
                fs=fs_factory(shard_id) if fs_factory is not None else None,
                ship_every=ship_every,
                snapshot_every=snapshot_every,
                metrics=metrics,
            )
            for shard_id in range(n_shards)
        ]
        self.fan_out = FanOut(
            "replica",
            n_shards,
            self.router.epochs,
            cache_size,
            metrics,
            mode=executor_mode,
        )
        self.failovers = 0

    @property
    def n_shards(self) -> int:
        return len(self.sets)

    def _primaries(self) -> list[SearchEngine]:
        # Primaries hold every acknowledged write, and replicas only
        # serve while equal to their primary, so statistics summed
        # over primaries are exact for whichever copy runs the query.
        return [s.primary for s in self.sets]

    def _write(self, shard_id: int, fn: Callable[[SearchEngine], Any]) -> Any:
        """Write through the shard's primary, failing over once when it
        is already known to be down."""
        try:
            return self.sets[shard_id].mutate(fn)
        except ReplicaError:
            self.promote(shard_id)
            return self.sets[shard_id].mutate(fn)

    def _read(self, shard_id: int, fn: Callable[[SearchEngine], Any]) -> Any:
        """``fn`` on the shard's serving copy, promoting first when the
        primary is down; the set's lock holds the copy still."""
        replica_set = self.sets[shard_id]
        with replica_set.lock:
            try:
                store = replica_set.read_store()
            except ReplicaError:
                self.promote(shard_id)
                store = replica_set.read_store()
            return fn(store)

    # -- failover ----------------------------------------------------------

    def crash_primary(self, shard_id: int) -> None:
        """Declare one shard's primary dead (test/fuzz hook)."""
        self.sets[shard_id].crash_primary()

    def promote(self, shard_id: int) -> int:
        """Promote on one shard and invalidate cached reads.

        The promoted state can differ from the dead primary's memory
        (unacknowledged writes are legitimately lost), so the shard
        epoch must bump — entries cached against the old state become
        structurally unservable.
        """
        lsn = self.sets[shard_id].promote()
        self.router.bump(shard_id)
        self.failovers += 1
        if self.metrics is not None:
            self.metrics.increment("serving.replica.failovers")
        return lsn

    def ship_all(self) -> int:
        """Force shipping on every shard (tests, graceful drains)."""
        return sum(s.ship() for s in self.sets)

    def stats(self) -> dict:
        """Replication health for ``/stats``: lag, promotions, epochs."""
        out = super().stats()
        out["failovers"] = self.failovers
        out["replication"] = [s.stats() for s in self.sets]
        return out
