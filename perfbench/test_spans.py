"""Unit tests of the benchmark's span, self-time and quartile arithmetic.

    python3 -m pytest perfbench/test_spans.py
"""

import statistics

import pytest

from spans import Span, Tracer, quartiles, self_times, span_cost


def span(name, start, end, parent=None):
    return Span(name, start, end, parent, "r", 1.0)


def test_tracer_links_children_to_the_open_span():
    tr = Tracer("run-1")
    with tr.span("outer"):
        with tr.span("a"):
            pass
        with tr.span("b"):
            with tr.span("c"):
                pass
    names = [s.name for s in tr.spans]
    assert names == ["outer", "a", "b", "c"]
    assert [s.parent for s in tr.spans] == [None, 0, 0, 2]
    assert all(s.run == "run-1" and s.rss_mb > 0 for s in tr.spans)
    outer, a, b, c = tr.spans
    assert outer.start <= a.start <= a.end <= b.start <= c.start <= c.end <= b.end <= outer.end


def test_tracer_closes_the_span_when_the_call_raises():
    tr = Tracer("run")
    with pytest.raises(ValueError):
        with tr.span("boom"):
            raise ValueError
    with tr.span("next"):
        pass
    assert [s.parent for s in tr.spans] == [None, None]


def test_self_time_subtracts_the_union_of_children():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, parent=0),
        span("b", 3.0, 6.0, parent=0),  # overlaps a: the cover is [1, 6]
        span("c", 2.0, 3.0, parent=1),
        span("a", 7.0, 8.0, parent=0),  # same name: self times add up
    ]
    got = self_times(spans)
    assert got == pytest.approx({"root": 4.0, "a": 3.0, "b": 3.0, "c": 1.0})


def test_self_time_clips_children_to_the_parent_and_accepts_dicts():
    spans = [
        {"name": "p", "start": 0.0, "end": 2.0, "parent": None, "run": "r", "rss_mb": 1.0},
        {"name": "k", "start": 1.5, "end": 3.0, "parent": 0, "run": "r", "rss_mb": 1.0},
    ]
    assert self_times(spans) == pytest.approx({"p": 1.5, "k": 1.5})


def test_self_times_of_a_recorded_trace_sum_to_the_root():
    tr = Tracer("run")
    with tr.span("root"):
        for _ in range(3):
            with tr.span("leaf"):
                sum(range(1000))
    got = self_times(tr.spans)
    assert got["root"] + got["leaf"] == pytest.approx(tr.spans[0].seconds)


@pytest.mark.parametrize("values", [[3.0, 1.0, 2.0, 5.0], [1.0, 2.0], list(range(1, 11))])
def test_quartiles_match_statistics_quantiles(values):
    assert quartiles(values) == tuple(statistics.quantiles(values, n=4))
    assert quartiles(values)[1] == statistics.median(values)


def test_quartiles_of_one_value():
    assert quartiles([2.5]) == (2.5, 2.5, 2.5)


def test_quartiles_of_ten_values():
    assert quartiles([float(v) for v in range(10, 0, -1)]) == (2.75, 5.5, 8.25)


def test_span_cost_is_a_small_positive_time():
    assert 0 < span_cost(200) < 1e-3
