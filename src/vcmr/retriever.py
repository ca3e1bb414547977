"""Multi-modal collaborative video retriever.

Late-fusion design: queries and videos are encoded independently, so video
encodings can be precomputed once per corpus, a split's queries can be
encoded together (`encode_queries`, one batch per token count), and ranking
reduces to cosine scoring of one query's reps (`retrieve_topk`). The query
encoder pools token representations per modality with learned weights; the
video encoder runs one transformer layer jointly over the image and
subtitle streams. Training uses relevant-content contrastive
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


@dataclass(frozen=True)
class CorpusIndex:
    """Read-only clip encodings of a corpus, videos sorted by id: unit rows zero-padded
    to the longest video, image/subtitle [V, N, D], clip_mask [V, N] (1 = clip)."""

    ids: tuple[str, ...]
    image: np.ndarray
    subtitle: np.ndarray
    clip_mask: np.ndarray


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
# inference API (plain numpy results, no tape required)


def encode_queries(model: RetrieverModel, queries) -> list[ModalityQueryReps]:
    """Reps of each query, in order. Queries of one token count share one `encode_query_batch` call
    with an all-ones mask; no row is padded, so each row has the bits of a one-query batch."""
    groups = {}
    for i, q in enumerate(queries):
        groups.setdefault(len(q.tokens), []).append(i)
    out = [None] * len(queries)
    for length, rows in groups.items():
        q_img, q_sub, (a_img, a_sub) = model.encode_query_batch(np.stack([queries[i].tokens for i in rows]),
                                                                np.ones((len(rows), length)))
        for j, i in enumerate(rows):
            out[i] = ModalityQueryReps(*(t.data[j].copy() for t in (q_img, q_sub, a_img, a_sub)))
    return out


def encode_query(model: RetrieverModel, query) -> ModalityQueryReps:
    """Reps of one query, by the one implementation: `encode_queries` of a one-query list."""
    return encode_queries(model, [query])[0]


encode_video = nn.EncoderTrunk.encode_video  # encode_video(model, video), under the name the benchmark traces


def clip_cosines(qn, clips_n):
    """Every unit query [Bq, D] against every video's unit clip rows [Bv, N, D] -> [Bq, Bv, N]."""
    bv, n, d = clips_n.shape
    flat = ad.reshape(clips_n, (bv * n, d))
    return ad.reshape(ad.matmul(qn, ad.swapaxes(flat, 0, 1)), (qn.shape[0], bv, n))


def video_cosines(qn, clips_n):
    """Each unit query [B, D] against its own video's unit clip rows [B, N, D] -> [B, 1, N];
    one query [1, D] meets every video. One product per video, so its bits do not depend on its position."""
    return ad.matmul(ad.reshape(qn, (qn.shape[0], 1, qn.shape[1])), ad.swapaxes(clips_n, 1, 2))


def best_clips(sims_img, sims_sub, mask, use_subtitles):
    """Cosine of the best clip under `mask` per modality, averaged over the
    modalities (image alone without subtitles): [..., N] -> [...]."""

    def best(sims):
        return ad.max_over_axis(ad.add(sims, (1.0 - mask) * MASK_NEG), axis=-1)

    phi_img = best(sims_img)
    return phi_img if not use_subtitles else ad.mul(ad.add(phi_img, best(sims_sub)), 0.5)


def _query_cosines(q, clips_n):
    return video_cosines((q / np.linalg.norm(q))[None], clips_n)


def score_video(reps: ModalityQueryReps, index: CorpusIndex, use_subtitles=True):
    """Retrieval score of every index video for one query, [V] in `index.ids` order."""
    sims_img, sims_sub = _query_cosines(reps.q_image, index.image), _query_cosines(reps.q_subtitle, index.subtitle)
    return best_clips(sims_img, sims_sub, index.clip_mask[:, None, :], use_subtitles).data[:, 0]


def encode_corpus(model: RetrieverModel, corpus) -> CorpusIndex:
    """Precompute the clip encodings of every video once (late-fusion property)."""
    if not corpus.videos:
        raise ValueError("empty corpus")
    videos = sorted(corpus.videos, key=lambda v: v.id)
    encoded = [encode_video(model, v) for v in videos]
    image, subtitle, clip_mask = nn.pad_rows(*zip(*encoded))
    image, subtitle = (ad.l2_normalize(x).data for x in (image, subtitle))
    image.flags.writeable = subtitle.flags.writeable = clip_mask.flags.writeable = False
    return CorpusIndex(tuple(v.id for v in videos), image, subtitle, clip_mask)


def retrieve_topk(reps: ModalityQueryReps, corpus, k, index: CorpusIndex):
    """Top k corpus videos for one query's reps by their `encode_corpus` index entries: descending score,
    ties by id."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if list(index.ids) != sorted(v.id for v in corpus.videos):
        raise ValueError("the index does not hold this corpus's videos; build it with encode_corpus")
    scores = score_video(reps, index, use_subtitles=corpus.has_subtitles)
    return [(index.ids[i], float(scores[i])) for i in np.argsort(-scores, kind="stable")[:k]]


# ---------------------------------------------------------------------------
# training graph


def make_batch(corpus, query_indices):
    """A set of queries padded into dense arrays, plus their target videos, which
    `contrastive_loss` pads once per distinct video."""
    queries = [corpus.queries[i] for i in query_indices]
    videos = [corpus.video(q.target_video) for q in queries]
    tokens, token_mask = nn.pad_rows([q.tokens for q in queries])
    in_span = np.zeros((len(queries), max(map(len, videos))))
    for i, q in enumerate(queries):
        in_span[i, q.span[0] : q.span[1] + 1] = 1.0
    return {
        "tokens": tokens,
        "token_mask": token_mask,
        "videos": videos,
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

    q_img, q_sub, _ = model.encode_query_batch(batch["tokens"], batch["token_mask"])
    videos = batch["videos"]
    (img_r, sub_r), valid = nn.encode_once(model.encode_video_batch, batch["video_ids"],
                                           [v.image_matrix() for v in videos], [v.subtitle_matrix() for v in videos])

    qi_n = ad.l2_normalize(q_img)
    qs_n = ad.l2_normalize(q_sub)
    img_n = ad.l2_normalize(img_r)
    sub_n = ad.l2_normalize(sub_r)

    in_span = batch["in_span"]
    out_span = valid * (1.0 - in_span)
    has_weak = (out_span.sum(axis=1) > 0).astype(np.float64)

    own_i = video_cosines(qi_n, img_n)  # [B, 1, N]
    own_s = video_cosines(qs_n, sub_n)
    cross_i = clip_cosines(qi_n, img_n)  # [Bq, Bv, N]
    cross_s = clip_cosines(qs_n, sub_n)

    s_strong = ad.reshape(best_clips(own_i, own_s, in_span[:, None, :], use_subtitles), (b,))
    # rows without any out-of-span clip get a dummy all-ones mask; their weak
    # loss contribution is zeroed below
    weak_mask = np.minimum(out_span + (1.0 - has_weak)[:, None], 1.0)
    s_weak = ad.reshape(best_clips(own_i, own_s, weak_mask[:, None, :], use_subtitles), (b,))
    s_neg = best_clips(cross_i, cross_s, valid, use_subtitles)  # [Bq, Bv]

    ids = np.array(batch["video_ids"])
    neg_ok = (ids[None, :] != ids[:, None]).astype(np.float64)  # [i, j]: 1 where video j is not query i's
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
    strong_cross = best_clips(cross_i, cross_s, in_span, use_subtitles)  # [Bq, Bv]
    v2q = ad.swapaxes(strong_cross, 0, 1)  # [Bv, Bq]
    q_ok = neg_ok.T.copy()
    np.fill_diagonal(q_ok, 1.0)
    v2q_masked = ad.mul(ad.add(v2q, (1.0 - q_ok) * MASK_NEG), 1.0 / temperature)
    lse_q = ad.logsumexp(v2q_masked, axis=1)
    diag = ad.take(ad.reshape(v2q, (b * b,)), np.arange(b) * (b + 1))
    loss_q = ad.mean(ad.sub(lse_q, ad.mul(diag, 1.0 / temperature)))

    return ad.add(ad.add(loss_strong, ad.mul(loss_weak, lam)), loss_q)
