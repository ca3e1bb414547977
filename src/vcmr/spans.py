"""Temporal span utilities shared by the localizer and the pipeline.

Spans are inclusive clip-index intervals (start, end). IoU counts clips,
i.e. |A n B| / |A u B| over inclusive indices; this is the reading under
which extending a 4-clip moment by one clip on either side stays above the
0.7 positive-sampling threshold.

Ranking works on arrays: `span_table` is the read-only [S, 2] array of the
admissible spans of one video length, `suppression_table` the read-only
[S, S] bool matrix `iou >= threshold` over it, and `nms` walks both. Both
tables are cached per key, so a video length is tabulated once per process.

`nms` takes a score floor and leaves out the spans below it, which cuts its
result at the first kept span below the floor. The pipeline visits the
retrieved videos best span first with the `results_per_query`-th best score
kept so far as the floor, and stops at the first video whose best span is
below it, before one merge of the kept spans.
"""

from __future__ import annotations

import functools

import numpy as np


def iou(a, b) -> float:
    """Intersection over union of two inclusive clip spans."""
    (a_st, a_ed), (b_st, b_ed) = a, b
    if a_st > a_ed or b_st > b_ed:
        raise ValueError(f"invalid span: {a} vs {b}")
    inter = min(a_ed, b_ed) - max(a_st, b_st) + 1
    if inter <= 0:
        return 0.0
    union = (a_ed - a_st + 1) + (b_ed - b_st + 1) - inter
    return inter / union


def _iou(a_st, a_ed, b_st, b_ed):
    """`iou` over broadcast int arrays of valid spans: the same inter / union in float64."""
    inter = np.minimum(a_ed, b_ed) - np.maximum(a_st, b_st) + 1
    union = (a_ed - a_st + 1) + (b_ed - b_st + 1) - inter
    return np.maximum(inter, 0) / union


def iou_matrix(spans):
    """[S, S] float64 IoU between every pair of rows of a [S, 2] span array."""
    st, ed = spans[:, 0], spans[:, 1]
    return _iou(st[:, None], ed[:, None], st, ed)


def span_lengths(n_clips, min_len, max_len):
    """(lo, hi, count): the length limits clamped to the available range,
    lo <= hi for n_clips >= 1, and the number of spans of `n_clips` clips
    with a length in lo..hi."""
    lo = max(1, min(min_len, n_clips))
    hi = max(lo, min(max_len, n_clips))
    lengths = hi - lo + 1
    return lo, hi, lengths * (n_clips + 1) - lengths * (lo + hi) // 2


def enumerate_spans(n_clips, min_len, max_len):
    """All (st, ed) with st <= ed and length within `span_lengths`'s limits,
    shortest first; never empty for n_clips >= 1."""
    lo, hi, _ = span_lengths(n_clips, min_len, max_len)
    return [
        (st, st + length - 1)
        for length in range(lo, hi + 1)
        for st in range(n_clips - length + 1)
    ]


@functools.lru_cache(maxsize=None)
def span_table(n_clips, min_len, max_len):
    """`enumerate_spans` as a read-only [S, 2] int64 array, in the same order."""
    table = np.array(enumerate_spans(n_clips, min_len, max_len), dtype=np.int64).reshape(-1, 2)
    table.flags.writeable = False
    return table


# Each entry holds S * S bytes (1.6 MB for 64 clips and spans of up to 24
# clips), so this cache is bounded; eval needs one entry per video length.
@functools.lru_cache(maxsize=64)
def suppression_table(n_clips, min_len, max_len, threshold):
    """Read-only [S, S] bool matrix iou(span_i, span_j) >= threshold over
    `span_table(n_clips, min_len, max_len)`: row i is what keeping span i
    suppresses in `nms`."""
    table = iou_matrix(span_table(n_clips, min_len, max_len)) >= threshold
    table.flags.writeable = False
    return table


def sample_positive_spans(gt, video_len, threshold=0.7):
    """All spans in the video with IoU strictly above `threshold` vs `gt`,
    in ascending (start, end) order.

    Depends only on indices, never on video content; always contains gt.
    """
    st, ed = gt
    if not (0 <= st <= ed < video_len):
        raise ValueError(f"ground-truth span {gt} out of range for {video_len} clips")
    s, e = np.triu_indices(video_len)
    hit = _iou(s, e, st, ed) > threshold
    return list(zip(s[hit].tolist(), e[hit].tolist()))


def _ranked(spans, scores):
    """Indices of `spans` by descending score, ties by (start, end)."""
    return np.lexsort((spans[:, 1], spans[:, 0], -scores))


def top_spans(l_st, l_ed, min_len, max_len, k):
    """Top-k spans by l_st[st] + l_ed[ed] within the length limits.

    Pure value computation (no gradients); ties break by (start, end) so the
    ordering is deterministic.
    """
    l_st = np.asarray(l_st, dtype=np.float64)
    l_ed = np.asarray(l_ed, dtype=np.float64)
    spans = span_table(len(l_st), min_len, max_len)
    scores = l_st[spans[:, 0]] + l_ed[spans[:, 1]]
    return [(st, ed) for st, ed in spans[_ranked(spans, scores)[:k]].tolist()]


def nms(spans, scores, suppress, keep=100, floor=-np.inf):
    """Greedy same-video suppression.

    `spans` is a [S, 2] span array, `scores` its [S] scores and `suppress`
    the [S, S] bool matrix iou(spans[i], spans[j]) >= threshold (see
    `suppression_table`). The best-scored span is kept and every remaining
    span it suppresses is dropped; ties break by (start, end) for
    determinism. Returns the [K] indices of up to `keep` kept spans, best
    first.

    Spans scoring below `floor` are left out before ranking. They rank after
    every span at or above it, so they can suppress none of those, and the
    result is the floor-free one cut at its first span below `floor`.
    """
    candidates = np.flatnonzero(scores >= floor)
    dropped = np.zeros(len(spans), dtype=bool)
    kept = []
    for i in candidates[_ranked(spans[candidates], scores[candidates])].tolist():
        if dropped[i]:
            continue
        kept.append(i)
        if len(kept) >= keep:
            break
        dropped |= suppress[i]
    return np.array(kept, dtype=np.intp)
