"""Tests of the benchmark's own rules.

Run from the repository root: ``python -m pytest -q perfbench``.
"""

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from perfbench import harness
from perfbench.tracer import MissingTarget, Span, Target, Tracer, self_times

HERE = Path(__file__).resolve().parent


# -- the percentile rule -------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert harness.percentile(values, 50) == 50
    assert harness.percentile(values, 95) == 95
    assert harness.percentile(list(reversed(values)), 95) == 95
    assert harness.percentile([7.0], 95) == 7.0
    with pytest.raises(ValueError):
        harness.percentile([], 50)


def test_p95_needs_two_hundred_samples_for_ten_beyond():
    assert harness.samples_beyond(200, 95) == 10
    assert harness.samples_beyond(199, 95) == 9
    assert harness.samples_beyond(1000, 99) == 10
    assert harness.tail(list(range(200))).supported
    short = harness.tail(list(range(199)))
    assert not short.supported and short.beyond == 9


# -- self time -----------------------------------------------------------------


def test_self_time_subtracts_nested_children():
    spans = [
        Span("api", 0.0, 10.0, -1, 0),
        Span("parse", 1.0, 4.0, 0, 0),
        Span("graph", 5.0, 9.0, 0, 0),
        Span("find", 6.0, 7.0, 2, 0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 3.0, 3.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span("outer", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 5.0, 0, 0),
        Span("b", 3.0, 12.0, 0, 0),  # overlaps a and outlives its parent
    ]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_totals_do_not_double_count_recursion():
    tracer = Tracer()
    tracer.spans = [
        Span("find", 0.0, 0.004, -1, 0),
        Span("find", 0.001, 0.003, 0, 0),
        Span("other", 0.0035, 0.004, 0, 0),
    ]
    totals = tracer.totals()
    assert totals["find"]["calls"] == 2
    assert totals["find"]["ms"] == pytest.approx(4.0)
    assert totals["find"]["self_ms"] == pytest.approx(1.5 + 2.0)


# -- wrappers --------------------------------------------------------------------


@pytest.fixture
def fake_module(monkeypatch):
    module = types.ModuleType("perfbench_fake_layer")

    class Engine:
        def search(self, query):
            return [query]

    def matches(a, b):
        return a == b

    def caller(a, b):
        return module.matches(a, b)

    module.Engine = Engine
    module.matches = matches
    module.caller = caller
    monkeypatch.setitem(sys.modules, module.__name__, module)
    return module


def test_wrappers_record_spans_and_counts_then_restore(fake_module):
    original = fake_module.Engine.search
    tracer = Tracer()
    tracer.install([
        Target("perfbench_fake_layer:Engine.search", "engine.search",
               observe=lambda t, args, result: t.count("hits", len(result))),
        Target("perfbench_fake_layer:matches", "ranking.matches",
               count_only=True),
    ])
    try:
        tracer.request = 7
        assert fake_module.Engine().search("q") == ["q"]
        assert fake_module.caller("x", "x") is True
        assert fake_module.caller("x", "y") is False
    finally:
        tracer.uninstall()
    assert fake_module.Engine.search is original
    assert [s.name for s in tracer.spans] == ["engine.search"]
    assert tracer.spans[0].request == 7
    assert tracer.counts["hits"] == 1
    assert tracer.counts["ranking.matches.calls"] == 2
    assert tracer.counts["ranking.matches.hits"] == 1


def test_missing_target_fails_loudly_and_installs_nothing(fake_module):
    tracer = Tracer()
    with pytest.raises(MissingTarget):
        tracer.install([
            Target("perfbench_fake_layer:matches", "ok"),
            Target("perfbench_fake_layer:Engine.renamed", "gone"),
        ])
    assert fake_module.matches.__name__ == "matches"
    with pytest.raises(MissingTarget):
        Tracer().install([Target("perfbench_no_such_module:f", "gone")])


def test_span_closes_when_the_wrapped_call_raises(fake_module):
    def boom(self, query):
        raise KeyError(query)

    fake_module.Engine.search = boom
    errors = []
    tracer = Tracer()
    tracer.install([
        Target("perfbench_fake_layer:Engine.search", "engine.search",
               on_error=lambda t, exc: errors.append(type(exc).__name__)),
    ])
    try:
        with pytest.raises(KeyError):
            fake_module.Engine().search("q")
    finally:
        tracer.uninstall()
    assert errors == ["KeyError"]
    assert tracer.spans[0].end >= tracer.spans[0].start
    assert tracer._stack == []


def test_every_layer_target_exists_in_the_program():
    from perfbench.workloads import LAYER_TARGETS, TRAIN_TARGETS

    tracer = Tracer()
    tracer.install(LAYER_TARGETS + TRAIN_TARGETS)
    tracer.uninstall()


# -- open loop ---------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


def test_open_loop_times_from_due_and_reports_lag():
    clock = FakeClock()
    service = {0: 0.5, 1: 0.1, 2: 0.1}

    def send(i):
        clock.now += service[i]
        return i

    out = harness.run_open_loop([0.0, 0.1, 1.0], send, clock, clock.sleep)
    timings = [t for t, _ in out]
    # Request 1 was due at 0.1 but the client was busy until 0.5: its
    # latency includes the 0.4 s it waited behind the stall.
    assert timings[0].latency == pytest.approx(0.5)
    assert timings[1].lag == pytest.approx(0.4)
    assert timings[1].latency == pytest.approx(0.5)
    assert timings[1].service == pytest.approx(0.1)
    # Request 2 is sent on time after the generator idles.
    assert timings[2].lag == pytest.approx(0.0)
    assert timings[2].latency == pytest.approx(0.1)
    assert [r for _, r in out] == [0, 1, 2]


def test_poisson_schedule_offers_a_fixed_count_deterministically():
    a = harness.poisson_schedule(np.random.default_rng(3), 25.0, 15.0)
    b = harness.poisson_schedule(np.random.default_rng(3), 25.0, 15.0)
    assert a == b
    assert len(a) == 375
    assert a == sorted(a) and 0.0 <= a[0] and a[-1] < 15.0


# -- failure classification --------------------------------------------------------


class Reply:
    def __init__(self, status, body=None):
        self.status = status
        self.body = body


def test_status_outside_the_expected_class_fails():
    assert not harness.call(2, lambda: Reply(200)).failed
    assert not harness.call(2, lambda: Reply(201)).failed
    assert harness.call(2, lambda: Reply(400)).failed
    assert harness.call(2, lambda: Reply(500)).failed


def test_malformed_request_answered_4xx_is_correct():
    outcome = harness.call(4, lambda: Reply(404))
    assert not outcome.failed and outcome.status == 404
    assert harness.call(4, lambda: Reply(200)).failed
    assert harness.call(4, lambda: Reply(500)).failed


def test_exception_escaping_the_handler_is_a_failure_not_a_crash():
    def handle():
        return {"q": ["a", "b"]}["q"].strip()  # AttributeError

    outcome = harness.call(4, handle)
    assert outcome.failed
    assert outcome.error == "AttributeError"
    assert outcome.status is None


# -- digests and the declared metrics ----------------------------------------------


def test_digest_is_stable_and_sensitive_to_the_last_digit():
    payload = {"b": [["d1", 0.1 + 0.2]], "a": 1}
    assert harness.digest(payload) == harness.digest(dict(reversed(payload.items())))
    assert harness.digest(payload) != harness.digest({"b": [["d1", 0.3]], "a": 1})


def test_spec_annotates_exactly_the_declared_metrics():
    spec = json.loads((HERE / "spec.json").read_text())
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert bench["paths"] == ["perfbench"]
    for key in ("end_to_end", "per_layer"):
        names = [m["name"] for m in bench[key]]
        assert len(names) == len(set(names))
        assert names == list(spec[key])
    workloads = {w["name"] for w in bench["workloads"]}
    for layer in spec["per_layer"].values():
        assert set(layer["workloads"]) <= workloads
    assert any(
        m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
        and m["bound"] == max(e["bound"] for e in bench["end_to_end"])
        for m in bench["end_to_end"]
    )
