"""Temporal span utilities shared by the localizer and the pipeline.

Spans are inclusive clip-index intervals (start, end). IoU counts clips,
i.e. |A n B| / |A u B| over inclusive indices; this is the reading under
which extending a 4-clip moment by one clip on either side stays above the
0.7 positive-sampling threshold.
"""

from __future__ import annotations

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


def enumerate_spans(n_clips, min_len, max_len):
    """All (st, ed) with st <= ed and length within the limits, clamped to
    the available range; never empty for n_clips >= 1."""
    lo = max(1, min(min_len, n_clips))
    hi = max(lo, min(max_len, n_clips))
    return [
        (st, st + length - 1)
        for length in range(lo, hi + 1)
        for st in range(n_clips - length + 1)
    ]


def sample_positive_spans(gt, video_len, threshold=0.7):
    """All spans in the video with IoU strictly above `threshold` vs `gt`.

    Depends only on indices, never on video content; always contains gt.
    """
    st, ed = gt
    if not (0 <= st <= ed < video_len):
        raise ValueError(f"ground-truth span {gt} out of range for {video_len} clips")
    out = []
    for s in range(video_len):
        for e in range(s, video_len):
            if iou((s, e), gt) > threshold:
                out.append((s, e))
    return out


def top_spans(l_st, l_ed, min_len, max_len, k):
    """Top-k spans by l_st[st] + l_ed[ed] within the length limits.

    Pure value computation (no gradients); ties break by (start, end) so the
    ordering is deterministic.
    """
    l_st = np.asarray(l_st, dtype=np.float64)
    l_ed = np.asarray(l_ed, dtype=np.float64)
    cands = enumerate_spans(len(l_st), min_len, max_len)
    scored = [(float(l_st[s] + l_ed[e]), (s, e)) for s, e in cands]
    scored.sort(key=lambda item: (-item[0], item[1]))
    return [span for _, span in scored[:k]]


def nms(moments, threshold, keep=100):
    """Greedy same-video suppression.

    `moments` is a list of (span, score); the best-scored span is kept and
    any remaining span with IoU >= threshold against a kept span is dropped.
    Ties break by (start, end) for determinism.
    """
    ordered = sorted(moments, key=lambda m: (-m[1], m[0]))
    kept = []
    for span, score in ordered:
        if any(iou(span, k_span) >= threshold for k_span, _ in kept):
            continue
        kept.append((span, score))
        if len(kept) >= keep:
            break
    return kept
