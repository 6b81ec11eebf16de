import pytest

from perfbench import stats
from perfbench.spans import Recorder, aggregate, self_times


def test_tail_is_the_highest_value_with_ten_samples_above():
    value, pct, above = stats.tail(range(1, 101))
    assert (value, pct, above) == (90, 90.0, 10)
    with pytest.raises(ValueError):
        stats.tail([5.0] * 11)  # every sample ties: nothing is above
    with pytest.raises(ValueError):
        stats.tail([5.0] * 11 + [7.0] * 9)
    assert stats.tail(list(range(11))) == (0, 100.0 / 11, 10)


def test_tail_walks_down_past_ties():
    values = [1.0] * 5 + [2.0] * 20
    assert stats.tail(values) == (1.0, 20.0, 20)
    values = [1.0] * 30 + [3.0] * 4 + [2.0] * 6
    assert stats.tail(values) == (1.0, 75.0, 10)


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        stats.tail(range(10))


def _span(sid, parent, start, end, name="x"):
    return (sid, parent, None, "w", name, start, end)


def test_self_time_subtracts_the_direct_children():
    spans = [
        _span(0, None, 0, 100),
        _span(1, 0, 10, 30),
        _span(2, 0, 40, 50),
        _span(3, 0, 60, 70),
        _span(4, 1, 12, 18),  # grandchild: only its own parent loses this time
    ]
    assert self_times(spans) == {0: 100 - 20 - 10 - 10, 1: 20 - 6, 2: 10, 3: 10, 4: 6}


def test_recorder_nests_spans_and_carries_the_op_id():
    rec = Recorder(enabled=True)
    rec.workload = "w"
    with rec.span("op.a", op_id=7):
        assert rec.call("inner", lambda x: x + 1, 1) == 2
        with rec.span("group"):
            rec.call("leaf", lambda: None)
    rec.call("loose", lambda: None)
    by_name = {s[4]: s for s in rec.spans}
    assert by_name["op.a"][1] is None
    assert by_name["inner"][1] == by_name["op.a"][0]
    assert by_name["leaf"][1] == by_name["group"][0]
    assert {by_name[n][2] for n in ("op.a", "inner", "group", "leaf")} == {7}
    assert by_name["loose"][1:3] == (None, None)
    agg = aggregate(rec.spans)
    assert len(agg[("w", "op", "op.a")]["dur"]) == 1
    off = Recorder(enabled=False)
    assert off.call("x", lambda: 3) == 3
    with off.span("y", op_id=1):
        pass
    assert off.spans == []
