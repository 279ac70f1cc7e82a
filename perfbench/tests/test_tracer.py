import types

import pytest

from tracer import Tracer, covered, self_times


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    t = Tracer(clock)
    root = t.begin("root")          # 0
    clock.now = 1.0
    a = t.begin("a")                # 1
    clock.now = 2.0
    inner = t.begin("a.inner")      # 2
    clock.now = 2.5
    t.end(inner)
    clock.now = 4.0
    t.end(a)                        # a: 1..4, child 2..2.5
    clock.now = 6.0
    b = t.begin("b")
    clock.now = 7.0
    t.end(b)                        # b: 6..7
    clock.now = 10.0
    t.end(root)                     # root: 0..10
    assert self_times(t.spans) == pytest.approx([10 - 3 - 1, 3 - 0.5, 0.5, 1.0])
    # self times of all spans add up to the root's wall time
    assert sum(self_times(t.spans)) == pytest.approx(10.0)
    summary = t.summary()
    assert summary["a"] == {"calls": 1, "busy_s": 3.0, "self_s": 2.5}
    assert summary["root"]["self_s"] == pytest.approx(6.0)


def test_covered_takes_the_union_of_overlapping_intervals():
    assert covered([]) == 0.0
    assert covered([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)
    assert covered([(5, 6), (0, 1), (0.5, 0.75)]) == pytest.approx(2.0)


def test_busy_counts_a_reentrant_name_once():
    clock = FakeClock()
    t = Tracer(clock)
    outer = t.begin("f")
    clock.now = 1.0
    inner = t.begin("f")
    clock.now = 3.0
    t.end(inner)
    clock.now = 4.0
    t.end(outer)
    rec = t.summary()["f"]
    assert rec["calls"] == 2
    assert rec["busy_s"] == pytest.approx(4.0)
    assert rec["self_s"] == pytest.approx(4.0)


def test_spans_must_close_in_order():
    t = Tracer()
    first = t.begin("x")
    t.begin("y")
    with pytest.raises(RuntimeError):
        t.end(first)
    with pytest.raises(RuntimeError):
        t.summary()


def test_wrap_records_parent_and_observer_and_uninstall_restores():
    def leaf(n):
        return n + 1

    module = types.ModuleType("fake")
    module.leaf = leaf
    t = Tracer()
    seen = []
    t.patch(module, "leaf", t.wrap("fake.leaf", leaf, lambda a, k: seen.append(a[0])))
    with t.span("root"):
        assert module.leaf(2) == 3
    assert seen == [2]
    names = [s[0] for s in t.spans]
    assert names == ["root", "fake.leaf"]
    assert t.spans[1][3] == 0  # parent is the root span
    t.uninstall()
    assert module.leaf is leaf


def test_span_closes_when_the_call_raises():
    t = Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        t.wrap("boom", boom)()
    assert t.spans[0][2] is not None
    assert t.summary()["boom"]["calls"] == 1


def test_write_emits_one_line_per_span(tmp_path):
    import gzip
    import json

    t = Tracer()
    with t.span("a"):
        with t.span("b"):
            pass
    path = tmp_path / "spans.jsonl.gz"
    t.write(path)
    rows = [json.loads(line) for line in gzip.open(path, "rt")]
    assert [r["name"] for r in rows] == ["a", "b"]
    assert rows[1]["parent"] == 0
