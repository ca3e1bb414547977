"""Array span code against list-based references: `nms`, `top_spans` and
`sample_positive_spans` must give the same spans, scores and order as the
greedy loops below, `nms` with a score floor must cut its floor-free result,
and the cached span tables must agree with `iou`."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcmr.spans import (enumerate_spans, iou, iou_matrix, nms, sample_positive_spans, span_lengths, span_table,
                        suppression_table, top_spans)

THRESHOLDS = (0.5, 0.7, 1.0)


def greedy_nms(moments, threshold, keep):
    """List-based greedy NMS over (span, score) pairs, ties by (start, end)."""
    ordered = sorted(moments, key=lambda m: (-m[1], m[0]))
    kept = []
    for span, score in ordered:
        if any(iou(span, k_span) >= threshold for k_span, _ in kept):
            continue
        kept.append((span, score))
        if len(kept) >= keep:
            break
    return kept


@st.composite
def span_limits(draw):
    """(n_clips, min_len, max_len) for 1-64 clips."""
    n_clips = draw(st.integers(1, 64))
    min_len = draw(st.integers(1, n_clips))
    return n_clips, min_len, draw(st.integers(min_len, n_clips))


def rounded_scores(seed, size, decimals):
    """Normal scores rounded to `decimals`, so that ties are common."""
    return np.round(np.random.default_rng(seed).normal(size=size), decimals)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(span_limits(), st.integers(0, 2**32 - 1), st.integers(0, 2), st.sampled_from(THRESHOLDS),
       st.sampled_from((1, 100)))
def test_nms_matches_greedy_reference(limits, seed, decimals, threshold, keep):
    spans = span_table(*limits)
    scores = rounded_scores(seed, len(spans), decimals)
    moments = [(tuple(span), score) for span, score in zip(spans.tolist(), scores.tolist())]
    kept = nms(spans, scores, iou_matrix(spans) >= threshold, keep=keep)
    assert [moments[i] for i in kept] == greedy_nms(moments, threshold, keep)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(span_limits(), st.integers(0, 2**32 - 1), st.integers(0, 2), st.sampled_from(THRESHOLDS),
       st.sampled_from((1, 5, 100)), st.data())
def test_nms_floor_cuts_the_floor_free_result(limits, seed, decimals, threshold, keep, data):
    spans = span_table(*limits)
    scores = rounded_scores(seed, len(spans), decimals)
    suppress = iou_matrix(spans) >= threshold
    # a floor equal to one of the scores (so spans tie with it) or anywhere around them
    floor = data.draw(st.one_of(st.sampled_from(scores.tolist()), st.floats(-4.0, 4.0), st.just(-np.inf)))
    full = nms(spans, scores, suppress, keep=keep).tolist()
    above = [i for i in full if scores[i] >= floor]
    assert above == full[: len(above)]
    assert nms(spans, scores, suppress, keep=keep, floor=floor).tolist() == above


@settings(max_examples=60, deadline=None, derandomize=True)
@given(span_limits(), st.integers(0, 2**32 - 1), st.integers(0, 1), st.integers(1, 8))
def test_top_spans_matches_sorted_reference(limits, seed, decimals, k):
    n_clips, min_len, max_len = limits
    l_st, l_ed = rounded_scores(seed, (2, n_clips), decimals)
    ref = sorted(enumerate_spans(n_clips, min_len, max_len), key=lambda s: (-float(l_st[s[0]] + l_ed[s[1]]), s))
    assert top_spans(l_st, l_ed, min_len, max_len, k) == ref[:k]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(1, 24), st.integers(1, 24), st.integers(1, 24), st.sampled_from(THRESHOLDS))
def test_suppression_table_entries_equal_iou(n_clips, a, b, threshold):
    min_len, max_len = min(a, b), max(a, b)
    spans = span_table(n_clips, min_len, max_len)
    assert spans.tolist() == [list(s) for s in enumerate_spans(n_clips, min_len, max_len)]
    table = suppression_table(n_clips, min_len, max_len, threshold)
    ref = [[iou(p, q) >= threshold for q in spans.tolist()] for p in spans.tolist()]
    assert table.tolist() == ref


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(1, 64), st.data(), st.sampled_from((0.5, 0.7, 0.9)))
def test_sample_positive_spans_matches_double_loop(video_len, data, threshold):
    st_ = data.draw(st.integers(0, video_len - 1))
    gt = (st_, data.draw(st.integers(st_, video_len - 1)))
    ref = [(s, e) for s in range(video_len) for e in range(s, video_len) if iou((s, e), gt) > threshold]
    got = sample_positive_spans(gt, video_len, threshold)
    assert got == ref
    assert all(type(s) is int and type(e) is int for s, e in got)


def test_span_lengths_count_and_clamp_the_span_table():
    # min_len and max_len run past n_clips, and min_len past max_len
    for n_clips in range(1, 13):
        for min_len in range(0, 15):
            for max_len in range(0, 15):
                lo, hi, count = span_lengths(n_clips, min_len, max_len)
                table = span_table(n_clips, min_len, max_len)
                lengths = table[:, 1] - table[:, 0] + 1
                assert count == len(table) and (lo, hi) == (lengths.min(), lengths.max())


def test_span_tables_are_cached_and_read_only():
    spans = span_table(16, 1, 24)
    suppress = suppression_table(16, 1, 24, 0.7)
    assert span_table(16, 1, 24) is spans
    assert suppression_table(16, 1, 24, 0.7) is suppress
    assert spans.shape == (136, 2) and suppress.shape == (136, 136) and suppress.dtype == bool
    for table in (spans, suppress):
        with pytest.raises(ValueError):
            table[0, 0] = 0
