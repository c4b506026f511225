"""Span self time subtracts the union of child intervals, across threads."""

import time
from concurrent.futures import ThreadPoolExecutor

from perfbench.tracing import SpanRecorder, covered, propagate_context_to_threads


def test_covered_is_a_clipped_union():
    assert covered([(1, 3), (2, 4), (6, 7)], 0, 10) == 4
    assert covered([(-1, 2), (8, 12)], 0, 10) == 4
    assert covered([], 0, 10) == 0


def test_children_on_pool_threads_count_against_parent():
    original = ThreadPoolExecutor.submit
    propagate_context_to_threads()
    try:
        _run_parent_with_pooled_children()
    finally:
        ThreadPoolExecutor.submit = original


def _run_parent_with_pooled_children():
    recorder = SpanRecorder()
    child = recorder.wrap(lambda: time.sleep(0.02), "child")

    def parent():
        with ThreadPoolExecutor(2) as pool:
            for future in [pool.submit(child), pool.submit(child)]:
                future.result()

    recorder.wrap(parent, "parent")()
    spans = recorder.snapshot()["spans"]
    assert spans["child"][0] == 2
    count, busy, own = spans["parent"]
    assert count == 1 and busy >= 0.02
    assert own < busy - 0.015  # the overlapping children covered most of it


def test_direct_recursion_is_one_span():
    recorder = SpanRecorder()

    def countdown(n):
        return n if n == 0 else traced(n - 1)

    traced = recorder.wrap(countdown, "countdown")
    traced(5)
    assert recorder.snapshot()["spans"]["countdown"][0] == 1
