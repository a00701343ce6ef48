"""Arithmetic of the benchmark: percentiles, self times, fidelity."""

import math

import pytest

from perfbench import fidelity
from perfbench.run import measure, ok_seconds, spans_in
from perfbench.stats import (latency_summary, nearest_rank, samples_beyond,
                             tail_resolved, union_length)
from perfbench.tracing import (Tracer, layer_totals, self_times,
                               unattributed_share)
from perfbench.workloads import OpResult


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_nearest_rank_percentiles():
    values = list(range(1, 101))
    assert nearest_rank(values, 0.50) == 50
    assert nearest_rank(values, 0.99) == 99
    assert nearest_rank(values, 1.0) == 100
    assert nearest_rank([7.0], 0.99) == 7.0
    with pytest.raises(ValueError):
        nearest_rank([], 0.5)


def test_p99_needs_ten_samples_beyond_it():
    assert samples_beyond(1000, 0.99) == 10
    assert tail_resolved(1000, 0.99)
    assert samples_beyond(999, 0.99) == 9
    assert not tail_resolved(999, 0.99)
    assert not tail_resolved(2, 0.99)
    summary = latency_summary([0.001 * i for i in range(1, 1001)])
    assert summary["n"] == 1000 and summary["p99_resolved"]
    assert summary["p50_ms"] == pytest.approx(500.0)
    assert summary["p99_ms"] == pytest.approx(990.0)


def test_union_length_merges_and_clips():
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert union_length([(0, 2), (1, 3), (5, 6)], 1.5, 5.5) == 2
    assert union_length([]) == 0


def test_self_time_of_a_nested_span_tree():
    # root [0, 10] holds a [1, 4] (itself holding a leaf [2, 3]) and,
    # from another thread, b [3.5, 5.5] and c [5, 6], which overlap.
    spans = [
        [0, "root", 0.0, 10.0, None, 1],
        [1, "a", 1.0, 4.0, 0, 1],
        [2, "leaf", 2.0, 3.0, 1, 1],
        [3, "b", 3.5, 5.5, 0, 1],
        [4, "c", 5.0, 6.0, 0, 1],
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0)   # union of [1, 6]
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(1.0)
    totals = layer_totals(spans + [[5, "leaf", 7.0, 7.5, 0, 1]])
    assert totals["leaf"] == {"calls": 2, "self_s": pytest.approx(1.5)}
    assert totals["root"]["self_s"] == pytest.approx(4.5)


def test_tracer_records_parents_and_ops():
    tracer = Tracer(clock=FakeClock([0.0, 1.0, 2.0, 3.0]))
    tracer.op = 7
    inner_fn = tracer.wrap("inner", lambda: None)
    tracer.wrap("outer", inner_fn)()
    inner, outer = tracer.spans
    assert (inner[1], outer[1]) == ("inner", "outer")
    assert inner[4] == outer[0] and outer[4] is None
    assert inner[5] == outer[5] == 7
    assert self_times(tracer.spans)[outer[0]] == pytest.approx(2.0)


def test_unattributed_share_and_span_matching():
    spans = [[0, "x", 0.0, 4.0, None, None], [1, "y", 6.0, 8.0, None, None],
             [2, "z", 11.0, 12.0, None, None], [3, "w", 20.0, 21.0, None, None]]
    assert unattributed_share([(0.0, 10.0)], spans) == pytest.approx(0.4)
    assert unattributed_share([(0.0, 10.0), (10.0, 12.0)], spans) == \
        pytest.approx(1 - 7.0 / 12.0)
    kept = spans_in(spans, [(0.0, 10.0), (10.5, 12.0)])
    assert [rec[0] for rec in kept] == [0, 1, 2]


def test_tracer_install_replaces_every_binding_and_uninstalls():
    import repro.graphs.partition as partition
    import repro.perf.cache as cache
    from repro.quant.fake_quant import FakeQuantSTE
    from repro.tensor.tensor import Tensor

    original = partition.partition_graph
    matmul = Tensor.__dict__["matmul"]
    forward = FakeQuantSTE.__dict__["forward"]
    tracer = Tracer()
    tracer.install((
        ("graphs.partition", "repro.graphs.partition", "partition_graph"),
        ("tensor.matmul", "repro.tensor.tensor", "Tensor.matmul"),
        ("quant.fake_quant.forward", "repro.quant.fake_quant",
         "FakeQuantSTE.forward"),
    ))
    try:
        assert cache.partition_graph is partition.partition_graph
        assert cache.partition_graph is not original
        assert Tensor.__matmul__ is Tensor.matmul
        assert isinstance(FakeQuantSTE.__dict__["forward"], staticmethod)
        product = Tensor([[1.0, 2.0]]) @ Tensor([[3.0], [4.0]])
        assert product.data.tolist() == [[11.0]]
        assert [rec[1] for rec in tracer.spans] == ["tensor.matmul"]
    finally:
        tracer.uninstall()
    assert cache.partition_graph is original
    assert Tensor.__dict__["matmul"] is matmul
    assert Tensor.__dict__["__matmul__"] is matmul
    assert FakeQuantSTE.__dict__["forward"] is forward


def test_fig14_log_err_on_a_hand_built_table():
    paper = fidelity.FIG14_PAPER
    assert fidelity.fig14_log_err(dict(paper)) == 0.0
    off = {name: value * math.e for name, value in paper.items()}
    assert fidelity.fig14_log_err(off) == pytest.approx(1.0)
    half = dict(paper, hygcn=paper["hygcn"] / math.e ** 5)
    assert fidelity.fig14_log_err(half) == pytest.approx(1.0)

    workloads = ["w1", "w2"]
    cycles = {}
    for w, scale in (("w1", 1.0), ("w2", 4.0)):
        cycles[(w, "mega")] = 100.0 * scale
        for name, speedup in (("hygcn", 40.0), ("gcnax", 8.0), ("grow", 4.0),
                              ("sgcn", 4.0), ("hygcn-8bit", 10.0),
                              ("gcnax-8bit", 4.0)):
            cycles[(w, name)] = 100.0 * scale * (speedup if w == "w1"
                                                 else speedup / 4.0)
    geomeans = fidelity.speedup_geomeans(cycles, workloads)
    assert geomeans["hygcn"] == pytest.approx(20.0)
    assert geomeans["gcnax"] == pytest.approx(4.0)
    rows = {w: {a: cycles[(w, a)] for a in fidelity.DISTINCT_BASELINES}
            for w in workloads}
    # grow, sgcn and gcnax-8bit tie on both workloads: 3 pairs each.
    assert fidelity.identical_baseline_pairs(rows) == 6


class FakeWorkload:
    """Ops alternate between passing and failing their check."""

    period_s = 0.0

    def __init__(self):
        self.count = 0
        self.interval = (0.0, 0.0)

    def run_op(self):
        self.count += 1
        self.interval = (float(self.count), self.count + 0.5)
        return OpResult(0.5, 1, ok=self.count % 2 == 1, error="check")


def test_failed_ops_are_counted_but_never_timed():
    ops, intervals = measure(FakeWorkload(), seconds=0.0, min_ops=4)
    assert len(ops) == 4
    assert sum(not op.ok for op in ops) == 2
    assert ok_seconds(ops) == [0.5, 0.5]
    assert intervals == [(1.0, 1.5), (3.0, 3.5)]
