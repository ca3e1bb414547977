"""Multi-modal collaborative video retriever.

Late-fusion design: queries and videos are encoded independently, so video
encodings can be precomputed once per corpus and ranking reduces to cosine
scoring. The query encoder pools token representations per modality with
learned weights; the video encoder runs one transformer layer jointly over
the image and subtitle streams. Training uses relevant-content contrastive
learning: the positive logit is the score of the best clips inside the
annotated moment (plus a weaker term for the best clips outside it), and
negatives are the hardest clips of other in-batch videos.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import Tensor
from .nn import MASK_NEG

POOLING_MODES = ("modality_specific", "mean")


@dataclass(frozen=True)
class RetrieverConfig(nn.EncoderConfig):
    pooling: str = "modality_specific"

    def __post_init__(self):
        super().__post_init__()
        if self.pooling not in POOLING_MODES:
            raise ValueError(f"unknown pooling mode {self.pooling!r}; expected one of {POOLING_MODES}")


@dataclass
class ModalityQueryReps:
    q_image: np.ndarray
    q_subtitle: np.ndarray
    alpha_image: np.ndarray
    alpha_subtitle: np.ndarray


@dataclass
class VideoEncoding:
    image: np.ndarray  # [clips, hidden]
    subtitle: np.ndarray  # [clips, hidden]


@dataclass
class ScoreResult:
    phi_image: float
    phi_subtitle: float
    score: float
    argmax_image: int
    argmax_subtitle: int


@dataclass
class RelevanceSample:
    strong: tuple[int, int]  # (image clip, subtitle clip) inside the span
    weak: tuple[int, int] | None  # best clips outside the span, if any
    strong_score: float
    weak_score: float | None


class RetrieverModel(nn.EncoderTrunk):
    def __init__(self, d_txt, d_img, d_sub, config: RetrieverConfig | None = None, seed=0):
        super().__init__(d_txt, d_img, d_sub, config or RetrieverConfig(), np.random.default_rng(seed))

    def encode_query_batch(self, tokens, token_mask):
        """tokens [B, L, d_txt], token_mask [B, L] -> (q_img, q_sub [B, D], alphas [2, B, L])."""
        h = self.encode_tokens(tokens, token_mask)
        if self.config.pooling == "modality_specific":
            return self.pool_tokens(h, token_mask)
        # mean pooling: uniform weights over valid tokens, one vector for both modalities
        valid = np.asarray(token_mask, dtype=np.float64)
        weights = valid / valid.sum(axis=1, keepdims=True)
        q = ad.reshape(ad.matmul(weights[:, None, :], h), (h.shape[0], self.config.hidden))
        alpha = Tensor(weights)
        return q, q, (alpha, alpha)


# ---------------------------------------------------------------------------
# single-sample inference API (plain numpy results, no tape required)


def encode_query(model: RetrieverModel, query) -> ModalityQueryReps:
    tokens = np.asarray(query.tokens, dtype=np.float64)
    if tokens.ndim != 2 or tokens.shape[0] < 1:
        raise ValueError("query must have at least one token")
    mask = np.ones((1, tokens.shape[0]))
    q_img, q_sub, (a_img, a_sub) = model.encode_query_batch(tokens[None], mask)
    return ModalityQueryReps(
        q_image=q_img.data[0].copy(),
        q_subtitle=q_sub.data[0].copy(),
        alpha_image=a_img.data[0].copy(),
        alpha_subtitle=a_sub.data[0].copy(),
    )


def encode_video(model: RetrieverModel, video) -> VideoEncoding:
    images = video.image_matrix()[None]
    subs = video.subtitle_matrix()[None]
    img_r, sub_r = model.encode_video_batch(images, subs, np.ones((1, len(video))))
    return VideoEncoding(image=img_r.data[0].copy(), subtitle=sub_r.data[0].copy())


def _unit_rows(mat):
    norms = np.linalg.norm(mat, axis=-1, keepdims=True)
    return mat / np.where(norms > 0.0, norms, 1.0)


def _unit(v):
    n = np.linalg.norm(v)
    return v / n if n > 0 else v


def clip_similarities(reps: ModalityQueryReps, enc: VideoEncoding):
    """Per-clip cosine similarities, (image [N], subtitle [N])."""
    return (
        _unit_rows(enc.image) @ _unit(reps.q_image),
        _unit_rows(enc.subtitle) @ _unit(reps.q_subtitle),
    )


def score_video(reps: ModalityQueryReps, enc: VideoEncoding, use_subtitles=True) -> ScoreResult:
    sim_img, sim_sub = clip_similarities(reps, enc)
    ai = int(np.argmax(sim_img))
    asub = int(np.argmax(sim_sub))
    phi_i = float(sim_img[ai])
    phi_s = float(sim_sub[asub])
    score = phi_i if not use_subtitles else (phi_i + phi_s) / 2.0
    return ScoreResult(phi_image=phi_i, phi_subtitle=phi_s, score=score, argmax_image=ai, argmax_subtitle=asub)


def sample_relevance(reps: ModalityQueryReps, enc: VideoEncoding, span, use_subtitles=True) -> RelevanceSample:
    n = enc.image.shape[0]
    st, ed = span
    if not (0 <= st <= ed < n):
        raise ValueError(f"span {span} out of range for {n} clips")
    sim_img, sim_sub = clip_similarities(reps, enc)
    inside = np.zeros(n, dtype=bool)
    inside[st : ed + 1] = True

    def best(sim, region):
        idx = int(np.flatnonzero(region)[np.argmax(sim[region])])
        return idx, float(sim[idx])

    si, s_img = best(sim_img, inside)
    ss, s_sub = best(sim_sub, inside)
    strong_score = s_img if not use_subtitles else (s_img + s_sub) / 2.0
    if inside.all():
        return RelevanceSample(strong=(si, ss), weak=None, strong_score=strong_score, weak_score=None)
    wi, w_img = best(sim_img, ~inside)
    ws, w_sub = best(sim_sub, ~inside)
    weak_score = w_img if not use_subtitles else (w_img + w_sub) / 2.0
    return RelevanceSample(strong=(si, ss), weak=(wi, ws), strong_score=strong_score, weak_score=weak_score)


def encode_corpus(model: RetrieverModel, corpus):
    """Precompute encodings for every video (late-fusion property)."""
    return {v.id: encode_video(model, v) for v in corpus.videos}


def retrieve_topk(model: RetrieverModel, corpus, query, k, index):
    """Rank every corpus video by its `encode_corpus` index entry: descending score, ties by id."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not corpus.videos:
        raise ValueError("empty corpus")
    reps = encode_query(model, query)
    scored = [
        (v.id, score_video(reps, index[v.id], use_subtitles=corpus.has_subtitles).score) for v in corpus.videos
    ]
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored[:k]


# ---------------------------------------------------------------------------
# training graph


def make_batch(corpus, query_indices):
    """Pad a set of queries plus their target videos into dense arrays."""
    queries = [corpus.queries[i] for i in query_indices]
    videos = [corpus.video(q.target_video) for q in queries]
    tokens, token_mask, images, subs, clip_mask = nn.pad_pairs(list(zip(queries, videos)))
    in_span = np.zeros(clip_mask.shape)
    for i, q in enumerate(queries):
        in_span[i, q.span[0] : q.span[1] + 1] = 1.0
    return {
        "tokens": tokens,
        "token_mask": token_mask,
        "images": images,
        "subs": subs,
        "clip_mask": clip_mask,
        "in_span": in_span,
        "video_ids": [v.id for v in videos],
    }


def contrastive_loss(model: RetrieverModel, batch, temperature=0.01, lam=0.5, use_subtitles=True):
    """Relevant-content contrastive objective over one batch.

    Per query: positive logit is the strong-sample score (hardest clips per
    modality inside the moment), negatives are the hardest clips of every
    other in-batch video; a weaker positive uses the best clips outside the
    moment scaled by `lam`. A symmetric video-to-query InfoNCE term (strong
    samples only) is added. Batch-mean reduction.
    """
    b = batch["tokens"].shape[0]
    if b < 2:
        raise ValueError("contrastive training needs a batch of at least 2 queries")
    n = batch["images"].shape[1]
    d = model.config.hidden

    q_img, q_sub, _ = model.encode_query_batch(batch["tokens"], batch["token_mask"])
    img_r, sub_r = model.encode_video_batch(batch["images"], batch["subs"], batch["clip_mask"])

    qi_n = ad.l2_normalize(q_img)
    qs_n = ad.l2_normalize(q_sub)
    img_n = ad.l2_normalize(img_r)
    sub_n = ad.l2_normalize(sub_r)

    valid = batch["clip_mask"]  # [B, N]
    in_span = batch["in_span"]
    out_span = valid * (1.0 - in_span)
    has_weak = (out_span.sum(axis=1) > 0).astype(np.float64)

    def own_sims(qn, clips_n):
        return ad.reshape(ad.matmul(ad.reshape(qn, (b, 1, d)), ad.swapaxes(clips_n, 1, 2)), (b, n))

    def cross_sims(qn, clips_n):
        flat = ad.reshape(clips_n, (b * n, d))
        return ad.reshape(ad.matmul(qn, ad.swapaxes(flat, 0, 1)), (b, b, n))

    def masked_max(x, mask):
        vals, _ = ad.max_over_axis(ad.add(x, (1.0 - mask) * MASK_NEG), axis=x.ndim - 1)
        return vals

    own_i = own_sims(qi_n, img_n)
    own_s = own_sims(qs_n, sub_n)
    cross_i = cross_sims(qi_n, img_n)
    cross_s = cross_sims(qs_n, sub_n)

    def combine(a, bb):
        return a if not use_subtitles else ad.mul(ad.add(a, bb), 0.5)

    s_strong = combine(masked_max(own_i, in_span), masked_max(own_s, in_span))  # [B]
    # rows without any out-of-span clip get a dummy all-ones mask; their weak
    # loss contribution is zeroed below
    weak_mask = np.minimum(out_span + (1.0 - has_weak)[:, None], 1.0)
    s_weak = combine(masked_max(own_i, weak_mask), masked_max(own_s, weak_mask))
    s_neg = combine(masked_max(cross_i, valid[None, :, :]), masked_max(cross_s, valid[None, :, :]))  # [Bq, Bv]

    ids = batch["video_ids"]
    neg_ok = np.array([[1.0 if ids[j] != ids[i] else 0.0 for j in range(b)] for i in range(b)])
    neg_logits = ad.add(s_neg, (1.0 - neg_ok) * MASK_NEG)

    def info_nce(pos):  # pos [B]
        logits = ad.concat([ad.reshape(pos, (b, 1)), neg_logits], axis=1)
        lse = ad.logsumexp(ad.mul(logits, 1.0 / temperature), axis=1)
        return ad.sub(lse, ad.mul(pos, 1.0 / temperature))  # [B]

    loss_strong = ad.mean(info_nce(s_strong))
    per_weak = ad.mul(info_nce(s_weak), has_weak)
    loss_weak = ad.mul(ad.sum_(per_weak), 1.0 / max(1.0, has_weak.sum()))

    # video-to-query: for video i, candidate queries j scored by their best
    # clips inside video i's annotated moment; positive is the paired query.
    strong_cross = combine(
        masked_max(cross_i, in_span[None, :, :]), masked_max(cross_s, in_span[None, :, :])
    )  # [Bq, Bv]
    v2q = ad.swapaxes(strong_cross, 0, 1)  # [Bv, Bq]
    q_ok = neg_ok.T.copy()
    np.fill_diagonal(q_ok, 1.0)
    v2q_masked = ad.mul(ad.add(v2q, (1.0 - q_ok) * MASK_NEG), 1.0 / temperature)
    lse_q = ad.logsumexp(v2q_masked, axis=1)
    diag = ad.take(ad.reshape(v2q, (b * b,)), np.arange(b) * (b + 1))
    loss_q = ad.mean(ad.sub(lse_q, ad.mul(diag, 1.0 / temperature)))

    return ad.add(ad.add(loss_strong, ad.mul(loss_weak, lam)), loss_q)
