"""The runtime substrate: batch executor, metrics, span tracer."""

import threading
import time

import pytest

from repro.exceptions import ReproError, StageFailure, TransientParseError
from repro.runtime import BatchExecutor, MetricsRegistry, SpanTracer


def _square(x):
    return x * x


def _fail_on_three(x):
    if x == 3:
        raise ValueError("three is right out")
    return x


_FLAKY_CALLS = {}


def _flaky(x):
    """Fails the first two calls for each item, then succeeds."""
    count = _FLAKY_CALLS.get(x, 0) + 1
    _FLAKY_CALLS[x] = count
    if count <= 2:
        raise TransientParseError(f"transient #{count} for {x}")
    return x * 10


class TestBatchExecutor:
    @pytest.mark.parametrize(
        "workers,mode",
        [(1, "serial"), (4, "thread"), (2, "process")],
    )
    def test_results_ordered_by_input(self, workers, mode):
        executor = BatchExecutor(workers=workers, mode=mode)
        outcomes = executor.map(_square, range(20))
        assert [o.index for o in outcomes] == list(range(20))
        assert [o.value for o in outcomes] == [i * i for i in range(20)]
        assert all(o.ok and o.attempts == 1 for o in outcomes)

    def test_fault_isolation(self):
        executor = BatchExecutor(workers=4, mode="thread")
        outcomes = executor.map(_fail_on_three, [1, 2, 3, 4])
        assert [o.ok for o in outcomes] == [True, True, False, True]
        failed = outcomes[2]
        assert isinstance(failed.error, ValueError)
        assert failed.value is None
        assert [o.value for o in outcomes if o.ok] == [1, 2, 4]

    def test_retry_bounded_success(self):
        _FLAKY_CALLS.clear()
        executor = BatchExecutor(
            workers=1, retries=2, retry_on=(TransientParseError,)
        )
        outcomes = executor.map(_flaky, [7])
        assert outcomes[0].ok
        assert outcomes[0].value == 70
        assert outcomes[0].attempts == 3

    def test_retry_exhausted(self):
        _FLAKY_CALLS.clear()
        executor = BatchExecutor(
            workers=1, retries=1, retry_on=(TransientParseError,)
        )
        outcomes = executor.map(_flaky, [7])
        assert not outcomes[0].ok
        assert isinstance(outcomes[0].error, TransientParseError)
        assert outcomes[0].attempts == 2

    def test_no_retry_for_unlisted_exception(self):
        executor = BatchExecutor(
            workers=1, retries=5, retry_on=(TransientParseError,)
        )
        outcomes = executor.map(_fail_on_three, [3])
        assert outcomes[0].attempts == 1

    def test_initializer_runs_for_serial_and_thread(self):
        seen = []
        executor = BatchExecutor(
            workers=1, initializer=seen.append, initargs=("ready",)
        )
        executor.map(_square, [1])
        executor = BatchExecutor(
            workers=2, mode="thread", initializer=seen.append, initargs=("go",)
        )
        executor.map(_square, [1])
        assert seen == ["ready", "go"]

    def test_empty_batch(self):
        assert BatchExecutor(workers=4).map(_square, []) == []

    def test_unknown_mode_rejected(self):
        with pytest.raises(ReproError):
            BatchExecutor(workers=2, mode="quantum")


class TestMetricsRegistry:
    def test_counters(self):
        metrics = MetricsRegistry()
        assert metrics.counter("a") == 0
        metrics.increment("a")
        metrics.increment("a", 4)
        assert metrics.counter("a") == 5

    def test_timer_percentiles(self):
        metrics = MetricsRegistry()
        for ms in range(1, 101):  # 1..100
            metrics.record("lat", ms / 1000.0)
        stats = metrics.timer_stats("lat")
        assert stats.count == 100
        assert stats.minimum == pytest.approx(0.001)
        assert stats.maximum == pytest.approx(0.100)
        assert stats.percentiles[50.0] == pytest.approx(0.0505, abs=1e-4)
        assert stats.percentiles[99.0] == pytest.approx(0.09901, abs=1e-4)

    def test_time_context_manager(self):
        metrics = MetricsRegistry()
        with metrics.time("block"):
            time.sleep(0.01)
        stats = metrics.timer_stats("block")
        assert stats.count == 1
        assert stats.total >= 0.01

    def test_snapshot_shape(self):
        metrics = MetricsRegistry()
        metrics.increment("requests", 3)
        metrics.record("latency", 0.25)
        snap = metrics.snapshot()
        assert snap["counters"] == {"requests": 3}
        timer = snap["timers"]["latency"]
        assert timer["count"] == 1
        assert {"p50", "p90", "p99", "mean", "max"} <= set(timer)

    def test_thread_safety(self):
        metrics = MetricsRegistry()

        def hammer():
            for _ in range(1000):
                metrics.increment("hits")
                metrics.record("t", 0.001)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert metrics.counter("hits") == 4000
        assert metrics.timer_stats("t").count == 4000

    def test_reset(self):
        metrics = MetricsRegistry()
        metrics.increment("x")
        metrics.record("y", 1.0)
        metrics.reset()
        assert metrics.snapshot() == {"counters": {}, "timers": {}}


class TestSpanTracer:
    def test_nesting_parent_ids(self):
        tracer = SpanTracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner", doc="d1") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert inner.attributes == {"doc": "d1"}
        names = [s.name for s in tracer.finished()]
        assert names == ["inner", "outer"]  # finished in close order

    def test_durations_and_export(self):
        tracer = SpanTracer()
        with tracer.span("work"):
            time.sleep(0.005)
        span = tracer.finished("work")[0]
        assert span.duration >= 0.005
        exported = tracer.export()
        assert exported[0]["name"] == "work"
        assert exported[0]["duration"] >= 0.005

    def test_bounded_retention(self):
        tracer = SpanTracer(max_spans=5)
        for i in range(12):
            with tracer.span(f"s{i}"):
                pass
        finished = tracer.finished()
        assert len(finished) == 5
        assert finished[-1].name == "s11"

    def test_clear(self):
        tracer = SpanTracer()
        with tracer.span("x"):
            pass
        tracer.clear()
        assert tracer.finished() == []


class TestStageFailure:
    def test_pickle_round_trip(self):
        import pickle

        failure = StageFailure("parse", "ParseError", "bad content", 3)
        clone = pickle.loads(pickle.dumps(failure))
        assert isinstance(clone, StageFailure)
        assert (clone.stage, clone.error_type, clone.message, clone.attempts) == (
            "parse",
            "ParseError",
            "bad content",
            3,
        )


class TestExecutorStartMethod:
    def test_fork_avoided_while_threads_are_live(self):
        stop = threading.Event()
        worker = threading.Thread(target=stop.wait)
        worker.start()
        try:
            ctx = BatchExecutor._mp_context()
            # Forking with a live thread risks deadlocking the child on
            # locks the thread holds; a thread-safe method must win.
            assert ctx.get_start_method() in ("forkserver", "spawn")
        finally:
            stop.set()
            worker.join()

    def test_context_method_is_always_available(self):
        import multiprocessing

        ctx = BatchExecutor._mp_context()
        assert ctx.get_start_method() in (
            multiprocessing.get_all_start_methods()
        )

    def test_process_map_works_with_live_threads(self):
        stop = threading.Event()
        worker = threading.Thread(target=stop.wait)
        worker.start()
        try:
            executor = BatchExecutor(workers=2, mode="process")
            outcomes = executor.map(_square, [2, 3])
            assert [o.value for o in outcomes] == [4, 9]
        finally:
            stop.set()
            worker.join()
