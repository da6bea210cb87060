"""Measurement helpers shared by the workloads.

Everything here is independent of the system under test, so the unit
tests in ``test_harness.py`` pin down the rules the benchmark reports
by: the tail-percentile rule, request failure classification, open-loop
due-time latency, and output digests.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

# A tail percentile is only reported as supported when at least this
# many samples lie strictly beyond it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``pct`` percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n: int, pct: float) -> int:
    """How many of ``n`` samples lie beyond the nearest-rank ``pct``."""
    if n <= 0:
        return 0
    return n - max(1, math.ceil(pct / 100.0 * n))


@dataclass(frozen=True)
class Tail:
    """A median and a tail percentile with its support."""

    p50: float
    tail: float
    n: int
    beyond: int

    @property
    def supported(self) -> bool:
        return self.beyond >= MIN_BEYOND


def tail(values: Sequence[float], pct: float = 95.0) -> Tail:
    return Tail(
        p50=percentile(values, 50.0),
        tail=percentile(values, pct),
        n=len(values),
        beyond=samples_beyond(len(values), pct),
    )


# -- request outcomes --------------------------------------------------------


@dataclass
class Outcome:
    """What one request did.

    ``expected`` is the status class (2 for 2xx, 4 for 4xx) a correct
    server answers with; ``error`` names an exception that escaped the
    handler.
    """

    expected: int
    status: int | None = None
    error: str | None = None
    body: Any = None

    @property
    def failed(self) -> bool:
        if self.error is not None or self.status is None:
            return True
        return self.status // 100 != self.expected


def call(expected: int, fn: Callable[[], Any]) -> Outcome:
    """Run one request and classify it.

    ``fn`` returns an object with ``status`` and ``body``.  Any
    exception escaping it is a failure of the server, recorded by type
    name, never re-raised: a facade that documents "never raises" must
    not take the load generator down with it.
    """
    outcome = Outcome(expected)
    try:
        response = fn()
    except Exception as exc:  # the server's contract boundary
        outcome.error = type(exc).__name__
        return outcome
    outcome.status = response.status
    outcome.body = response.body
    return outcome


# -- open loop ---------------------------------------------------------------


def poisson_schedule(rng, rate: float, seconds: float) -> list[float]:
    """Due offsets of a Poisson process with ``round(rate * seconds)``
    arrivals in ``[0, seconds)``.

    Conditioned on its count, a Poisson process's arrival times are
    sorted uniform draws, so every seed offers exactly the same load.
    """
    n = max(1, round(rate * seconds))
    return sorted(float(x) for x in rng.uniform(0.0, seconds, n))


@dataclass
class Timing:
    """When one request was due, sent and answered (clock seconds)."""

    due: float
    sent: float
    done: float

    @property
    def latency(self) -> float:
        """From due time: a stall delays later requests' latency too."""
        return self.done - self.due

    @property
    def lag(self) -> float:
        """How late the generator sent the request."""
        return self.sent - self.due

    @property
    def service(self) -> float:
        return self.done - self.sent


def run_open_loop(
    offsets: Sequence[float],
    send: Callable[[int], Any],
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> list[tuple[Timing, Any]]:
    """Send request ``i`` at ``start + offsets[i]`` (or as soon after as
    the single client is free) and time it from its due time."""
    start = clock()
    out = []
    for i, offset in enumerate(offsets):
        due = start + offset
        now = clock()
        if now < due:
            sleep(due - now)
            now = clock()
        result = send(i)
        out.append((Timing(due, now, clock()), result))
    return out


# -- digests -----------------------------------------------------------------


def digest(payload: Any) -> str:
    """Stable SHA-256 of a JSON-shaped value (floats by ``repr``, so
    any change in the last digit of a score changes the digest)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def per_op(total: float, ops: int) -> float:
    return total / ops if ops else 0.0
