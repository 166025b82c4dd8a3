"""Tests of the benchmark's own arithmetic, on synthetic data only.

    python3 -m pytest perfbench
"""

import pytest

from stats import Ledger, Span, layer_metrics, layer_totals, self_times, tail


@pytest.mark.parametrize("n, index, beyond", [
    (100, 89, 10),   # p90: ten samples beyond it
    (11, 0, 10),     # the smallest sample size with a qualifying percentile
    (200, 189, 10),
])
def test_tail_keeps_ten_samples_beyond(n, index, beyond):
    values = list(range(n))[::-1]     # order must not matter
    t = tail(values)
    assert t.value == index
    assert t.beyond == beyond
    assert t.n == n
    assert t.pct == pytest.approx(100.0 * (index + 1) / n)
    assert sum(v > t.value for v in values) == beyond


def test_tail_with_ten_samples_or_fewer_is_the_maximum_and_says_so():
    t = tail([3.0, 1.0, 2.0, 5.0, 4.0])
    assert (t.value, t.pct, t.beyond, t.n) == (5.0, 100.0, 0, 5)


def test_tail_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        tail([])


def test_self_time_subtracts_nested_and_sibling_children():
    spans = [
        Span("op", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),      # child of op
        Span("b", 2.0, 3.0, 1, 0),      # grandchild: only a loses it
        Span("c", 5.0, 9.0, 0, 0),      # sibling of a
    ]
    assert self_times(spans) == pytest.approx([10 - 3 - 4, 3 - 1, 1, 4])


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span("p", 0.0, 10.0, None, 0),
        Span("x", 1.0, 5.0, 0, 0),
        Span("y", 3.0, 7.0, 0, 0),
        Span("z", 9.0, 12.0, 0, 0),     # runs past its parent: clipped
    ]
    assert self_times(spans)[0] == pytest.approx(10 - 6 - 1)


def test_layer_totals_split_ops_from_setup_and_nested_same_name():
    spans = [
        Span("f", 0.0, 4.0, None, 0),
        Span("f", 1.0, 2.0, 0, 0),      # recursion: inclusive time counted once
        Span("g", 5.0, 6.0, None, None),  # outside any operation
    ]
    ops = layer_totals(spans)
    assert ops["f"].calls == 2
    assert ops["f"].ms == pytest.approx(4000.0)
    assert ops["f"].self_ms == pytest.approx(4000.0)
    assert "g" not in ops
    assert layer_totals(spans, in_ops=False)["g"].ms == pytest.approx(1000.0)


def test_layer_metrics_per_operation_shares_and_coverage():
    spans = [
        Span("model.encode", 0.0, 0.2, None, 0),
        Span("model.decode", 0.2, 0.5, None, 0),
        Span("model.decode", 1.0, 1.3, None, 1),
        Span("numcore.backward", 1.3, 1.8, None, 1),
        Span("model.load_checkpoint", -1.0, -0.9, None, None),
    ]
    m = layer_metrics(spans, op_seconds=[0.6, 1.0], untraced_op_seconds=[0.5, 0.75],
                      graph_nodes=777, skipped=0)
    assert m["model.decode.calls"] == pytest.approx(1.0)
    assert m["model.decode.ms"] == pytest.approx(300.0)
    assert m["numcore.backward.share"] == pytest.approx(0.5 / 1.6)
    assert m["sharesched.encoder_reuse_ratio"] == pytest.approx(0.5)
    assert m["model.load_checkpoint.ms"] == pytest.approx(100.0)
    assert m["trace.coverage"] == pytest.approx(1.3 / 1.6)
    assert m["trace.overhead"] == pytest.approx(1.6 / 1.25)
    assert m["sharesched.plan_dp.self_ms"] == 0.0
    assert m["numcore.graph_nodes"] == 777.0


def test_failed_ratio_counts_operations_not_checks():
    ledger = Ledger()
    ops = [ledger.begin() for _ in range(8)]
    ledger.check(ops[2], "finite", False)
    ledger.check(ops[2], "nfe", False)     # second failure of the same op
    ledger.check(ops[5], "finite", False)
    ledger.check(ops[6], "finite", True)
    assert ledger.attempted == 8
    assert ledger.failed == 2
    assert ledger.failed_ratio == pytest.approx(2 / 8)
    assert [f["check"] for f in ledger.failures] == ["finite", "nfe", "finite"]


def test_failed_ratio_of_no_operations_is_zero():
    assert Ledger().failed_ratio == 0.0
