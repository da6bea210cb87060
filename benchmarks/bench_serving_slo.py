"""Serving-tier SLOs: latency percentiles and graceful overload.

Stands up a replicated tier (2 shards x 1 replica) behind the asyncio
:class:`ServingFrontend` and drives it with closed-loop clients over a
mixed read/write workload:

* **normal load** — client count below the admission queue, measuring
  clean-path qps and accepted-latency percentiles;
* **overload** — clients well past ``queue_limit`` (2x the queue), where
  the tier must *shed* excess requests immediately rather than buffer
  them into unbounded latency.

Acceptance (the degrade-gracefully contract):

* every request is answered — completed, shed, or timed out; none hang;
* overload sheds (``shed > 0``) instead of queueing the excess;
* a rejection is far cheaper than an accepted request (reject p99 <
  accepted p99), so overload answers arrive *faster*, not slower;
* accepted requests still meet the deadline under overload.

Feeds the CI regression gate via ``BENCH_serving_slo.json``.  Absolute
latencies on a shared 1-cpu runner are volatile, so the gate pins only
normal-load throughput; the SLO assertions above are the real teeth.
"""

from __future__ import annotations

import asyncio
import os
import time

from conftest import write_json_result, write_result

from repro.corpus.scale import build_scale_corpus, scale_queries
from repro.exceptions import DeadlineExceededError, LoadShedError
from repro.serving import ReplicatedShardedSearchEngine, ServingFrontend

N_DOCS = int(os.environ.get("BENCH_SLO_DOCS", "300"))
DEADLINE = 0.5
DEADLINE_SLACK = 0.25
MAX_CONCURRENCY = 2
QUEUE_LIMIT = 8
NORMAL_CLIENTS = 2
OVERLOAD_CLIENTS = QUEUE_LIMIT * 2
REQUESTS_PER_CLIENT = 40
WRITE_EVERY = 10  # one write per client per this many reads


def _percentile(values: list[float], pct: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (pct / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


async def _client(
    frontend: ServingFrontend,
    queries: list[str],
    client_id: int,
    tally: dict,
) -> None:
    """One closed-loop client: mostly reads, a periodic write."""
    for i in range(REQUESTS_PER_CLIENT):
        if i and i % WRITE_EVERY == 0:
            route = "index"
            args = (
                f"live-{client_id}-{i}",
                {"body": f"interim report {client_id} revision {i}"},
            )
        else:
            route = "search"
            args = (queries[(client_id * 7 + i) % len(queries)],)
        started = time.perf_counter()
        try:
            await frontend.handle(route, *args)
        except LoadShedError:
            tally["reject_lat"].append(time.perf_counter() - started)
            tally["shed"] += 1
        except DeadlineExceededError:
            tally["timeout"] += 1
        else:
            tally["accept_lat"].append(time.perf_counter() - started)
            tally["ok"] += 1


async def _drive(frontend: ServingFrontend, queries: list[str], n_clients: int):
    tally = {"ok": 0, "shed": 0, "timeout": 0, "accept_lat": [], "reject_lat": []}
    started = time.perf_counter()
    await asyncio.gather(
        *(_client(frontend, queries, c, tally) for c in range(n_clients))
    )
    tally["wall"] = time.perf_counter() - started
    return tally


def test_serving_slo():
    docs = build_scale_corpus(N_DOCS, seed=3)
    queries = scale_queries(40, seed=9)

    tier = ReplicatedShardedSearchEngine(
        n_shards=2, n_replicas=1, executor_mode="serial"
    )
    for doc in docs:
        tier.index(doc.doc_id, doc.fields())

    frontend = ServingFrontend(
        max_concurrency=MAX_CONCURRENCY,
        queue_limit=QUEUE_LIMIT,
        default_deadline=DEADLINE,
    )
    frontend.register("search", lambda q: tier.search(q, size=10))
    frontend.register("index", tier.index, retryable=False)

    try:
        normal = asyncio.run(_drive(frontend, queries, NORMAL_CLIENTS))
        overload = asyncio.run(_drive(frontend, queries, OVERLOAD_CLIENTS))
    finally:
        frontend.close()

    def _answered(tally, clients):
        return tally["ok"] + tally["shed"] + tally["timeout"] == (
            clients * REQUESTS_PER_CLIENT
        )

    qps_normal = normal["ok"] / normal["wall"]
    normal_p50 = _percentile(normal["accept_lat"], 50.0)
    normal_p99 = _percentile(normal["accept_lat"], 99.0)
    over_p50 = _percentile(overload["accept_lat"], 50.0)
    over_p99 = _percentile(overload["accept_lat"], 99.0)
    reject_p99 = _percentile(overload["reject_lat"], 99.0)

    lines = [
        f"Serving SLOs ({N_DOCS} docs, 2 shards x 1 replica, "
        f"deadline {DEADLINE:.1f}s, queue {QUEUE_LIMIT})",
        f"{'load':<12}{'clients':>8}{'ok':>7}{'shed':>7}{'timeout':>8}"
        f"{'p50 ms':>9}{'p99 ms':>9}",
        f"{'normal':<12}{NORMAL_CLIENTS:>8}{normal['ok']:>7}"
        f"{normal['shed']:>7}{normal['timeout']:>8}"
        f"{normal_p50 * 1000:>9.1f}{normal_p99 * 1000:>9.1f}",
        f"{'overload':<12}{OVERLOAD_CLIENTS:>8}{overload['ok']:>7}"
        f"{overload['shed']:>7}{overload['timeout']:>8}"
        f"{over_p50 * 1000:>9.1f}{over_p99 * 1000:>9.1f}",
        f"normal qps (accepted): {qps_normal:.1f}",
        f"overload reject p99: {reject_p99 * 1000:.2f} ms",
    ]
    write_result("bench_serving_slo", lines)
    write_json_result(
        "serving_slo",
        {
            "qps_normal": {"value": qps_normal, "direction": "higher"},
            # Latency percentiles on a shared 1-cpu runner are too
            # volatile to gate; report them for EXPERIMENTS.md.
            "accepted_p99_normal_ms": {
                "value": normal_p99 * 1000,
                "direction": "lower",
                "gate": False,
            },
            "accepted_p99_overload_ms": {
                "value": over_p99 * 1000,
                "direction": "lower",
                "gate": False,
            },
            "shed_fraction_overload": {
                "value": overload["shed"]
                / (OVERLOAD_CLIENTS * REQUESTS_PER_CLIENT),
                "direction": "higher",
                "gate": False,
            },
        },
    )

    # Every request is answered; none hang.
    assert _answered(normal, NORMAL_CLIENTS)
    assert _answered(overload, OVERLOAD_CLIENTS)
    # Normal load clears the queue without shedding.
    assert normal["shed"] == 0, f"shed {normal['shed']} under normal load"
    assert normal["ok"] > 0
    # Overload sheds the excess instead of buffering it.
    assert overload["shed"] > 0, "2x-queue overload never shed"
    assert overload["ok"] > 0, "overload starved accepted requests entirely"
    # Degrade gracefully: rejection is cheap, acceptance stays in SLO.
    assert reject_p99 < over_p99, (
        f"rejects ({reject_p99 * 1000:.2f} ms p99) not cheaper than "
        f"accepted requests ({over_p99 * 1000:.2f} ms p99)"
    )
    assert over_p99 <= DEADLINE + DEADLINE_SLACK, (
        f"accepted p99 {over_p99:.3f}s blew the {DEADLINE:.1f}s deadline "
        "under overload — queue is buffering, not shedding"
    )
