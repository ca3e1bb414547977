"""Focus-then-fuse moment localizer.

Early-fusion design on its own copy of the encoder trunk (the retriever's
architecture, no parameter sharing): modality-specific gates emphasize
query-relevant content per channel, a fully-connected layer fuses the gated
image/subtitle streams per clip, a two-layer transformer with
cross-attention to the query tokens contextualizes the clips, and two
convolutional heads emit per-clip start and end boundary scores. Boundary
training uses shared normalization across the positive and all mined
negative videos; an auxiliary adversarial branch classifies moment features
as relevant/irrelevant (never used at inference).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import nn
from .nn import MASK_NEG, TransformerLayer, xavier_uniform


@dataclass(frozen=True)
class LocalizerConfig(nn.EncoderConfig):
    use_gates: bool = True
    shared_norm: bool = True


class LocalizerModel(nn.EncoderTrunk):
    def __init__(self, d_txt, d_img, d_sub, config: LocalizerConfig | None = None, seed=0):
        rng = np.random.default_rng(seed)
        super().__init__(d_txt, d_img, d_sub, config or LocalizerConfig(), rng)
        p, d = self.params, self.config.hidden
        p.add("gate.w_img", xavier_uniform(rng, d, d))
        p.add("gate.w_sub", xavier_uniform(rng, d, d))
        p.add("fuse.w", xavier_uniform(rng, 2 * d, d))
        p.add("fuse.b", np.zeros(d))
        self.fusion = [
            TransformerLayer(p, f"fusion{i}", d, self.config.intermediate, self.config.heads, rng, cross=True)
            for i in range(2)
        ]
        for head in ("st", "ed"):
            p.add(f"head.{head}.k1", xavier_uniform(rng, 3 * d, d, shape=(3, d, d)))
            p.add(f"head.{head}.b1", np.zeros(d))
            p.add(f"head.{head}.k2", xavier_uniform(rng, 3 * d, d, shape=(3, d, d)))
            p.add(f"head.{head}.b2", np.zeros(d))
            p.add(f"head.{head}.w", xavier_uniform(rng, d, 1))
            p.add(f"head.{head}.b", np.zeros(1))
        self.adv_layer = TransformerLayer(p, "adv.trans", d, self.config.intermediate, self.config.heads, rng)
        p.add("adv.fc1.w", xavier_uniform(rng, d, d))
        p.add("adv.fc1.b", np.zeros(d))
        p.add("adv.fc2.w", xavier_uniform(rng, d, d))
        p.add("adv.fc2.b", np.zeros(d))
        p.add("adv.fc3.w", xavier_uniform(rng, d, 1))
        p.add("adv.fc3.b", np.zeros(1))
        self._memo, self._memo_weights = {}, []  # see `video_clips`

    # -- focus-then-fuse ------------------------------------------------------

    def apply_gates(self, img_r, sub_r, q_img, q_sub):
        """Gate each clip by its modality's query representation.

        gate = l2norm((W_d * clip) . q_d); output = gate . clip. An all-zero
        query vector annihilates the stream (zero-vector normalization).
        """
        b = img_r.shape[0]
        d = self.config.hidden
        out = []
        for clips, q, w_name in ((img_r, q_img, "gate.w_img"), (sub_r, q_sub, "gate.w_sub")):
            proj = ad.matmul(clips, self.params[w_name])
            gate = ad.l2_normalize(ad.mul(proj, ad.reshape(q, (b, 1, d))))
            out.append(ad.mul(gate, clips))
        return out[0], out[1]

    def fuse_clips(self, gated_img, gated_sub):
        """Per-clip fully-connected fusion, concatenation order image-then-subtitle."""
        if gated_img.shape != gated_sub.shape:
            raise ad.ShapeError(f"gated streams disagree: {gated_img.shape} vs {gated_sub.shape}")
        both = ad.concat([gated_img, gated_sub], axis=-1)
        return nn.linear(both, self.params["fuse.w"], self.params["fuse.b"])

    def fuse_with_query(self, fused, token_reps, token_mask, clip_mask):
        """Contextualize clips with self-attention plus cross-attention to tokens."""
        x = fused
        for layer in self.fusion:
            x = layer(x, clip_mask, memory=(token_reps, token_mask))
        return x

    def boundary_scores(self, ctx, clip_mask):
        """-> (l_st [B, N], l_ed [B, N]); conv -> ReLU -> conv -> linear per head.

        Each convolution reads zeros past a row's last clip (clip_mask [B, N]),
        as past the end of the batch, so a row's scores do not depend on the
        batch's longest video."""
        p = self.params
        b, n, _ = ctx.shape
        clips = np.asarray(clip_mask, dtype=np.float64)[:, :, None]
        ctx = ad.mul(ctx, clips)
        out = []
        for head in ("st", "ed"):
            h = ad.relu(ad.conv1d(ctx, p[f"head.{head}.k1"], p[f"head.{head}.b1"]))
            h = ad.conv1d(ad.mul(h, clips), p[f"head.{head}.k2"], p[f"head.{head}.b2"])
            s = nn.linear(h, p[f"head.{head}.w"], p[f"head.{head}.b"])
            out.append(ad.reshape(s, (b, n)))
        return out[0], out[1]

    def adv_classify(self, features):
        """Three-layer classifier head; features [S, D] -> logits [S]."""
        p = self.params
        h = ad.relu(nn.linear(features, p["adv.fc1.w"], p["adv.fc1.b"]))
        h = ad.relu(nn.linear(h, p["adv.fc2.w"], p["adv.fc2.b"]))
        logits = nn.linear(h, p["adv.fc3.w"], p["adv.fc3.b"])
        return ad.reshape(logits, (features.shape[0],))

    def forward_rows(self, token_reps, token_mask, img_r, sub_r, clip_mask):
        """Gates, fusion and heads over a stack of encoded (query, video) rows.

        token_reps [R, L, D] (`encode_tokens`) carry each row's owning query and
        img_r/sub_r [R, N, D] (`encode_video_batch`) its video. Returns the
        boundary scores l_st, l_ed [R, N] and the fused clips [R, N, D] that
        the adversarial branch (`adv_layer`) reads in training.
        """
        q_img, q_sub, _ = self.pool_tokens(token_reps, token_mask)
        if self.config.use_gates:
            img_g, sub_g = self.apply_gates(img_r, sub_r, q_img, q_sub)
        else:
            img_g, sub_g = img_r, sub_r
        fused = self.fuse_clips(img_g, sub_g)
        ctx = self.fuse_with_query(fused, token_reps, token_mask, clip_mask)
        l_st, l_ed = self.boundary_scores(ctx, clip_mask)
        return l_st, l_ed, fused

    def video_clips(self, videos):
        """Clip encodings of `videos` for inference, zero-padded to the longest:
        (img_r [R, N, D], sub_r [R, N, D], clip_mask [R, N]).

        Each video is encoded once by `encode_video` and memoized per `Video`
        object, whose arrays are read-only. The memo is dropped as soon as any
        parameter's `.data` is no longer the array it was encoded with, as
        after `AdamW.step` or `Params.load_state_dict`; a write into a
        parameter array in place is not seen.
        """
        weights = [t.data for _, t in self.params.items()]
        if len(weights) != len(self._memo_weights) or not all(map(operator.is_, weights, self._memo_weights)):
            self._memo, self._memo_weights = {}, weights
        entries = []
        for video in videos:
            entry = self._memo.get(id(video))
            if entry is None:  # the entry holds the video, so its id is not reused while memoized
                entry = self._memo[id(video)] = (video, *self.encode_video(video))
            entries.append(entry)
        return nn.pad_rows([img for _, img, _ in entries], [sub for _, _, sub in entries])


# ---------------------------------------------------------------------------
# losses


def boundary_loss(l_st, l_ed, clip_mask, groups, spans, shared_norm):
    """Boundary cross-entropy over stacked rows l_st/l_ed [R, N], mean over queries.

    groups[i] lists query i's rows, ground-truth row first, and spans[i] is its span; its
    softmax covers the real clips of all its rows, or without shared_norm the ground-truth row's."""
    r, n = clip_mask.shape
    member = np.zeros((len(groups), r * n))
    for gi, row_ids in enumerate(groups):
        for ri in row_ids if shared_norm else row_ids[:1]:
            member[gi, ri * n : (ri + 1) * n] = clip_mask[ri]
    gt_start = np.array([row_ids[0] * n for row_ids in groups], dtype=np.intp)
    spans = np.asarray(spans, dtype=np.intp)
    total = 0.0
    for scores, pos_idx in ((l_st, gt_start + spans[:, 0]), (l_ed, gt_start + spans[:, 1])):
        flat = ad.reshape(scores, (r * n,))
        logits = ad.add(ad.reshape(flat, (1, r * n)), (1.0 - member) * MASK_NEG)
        lse = ad.logsumexp(logits, axis=1)
        picked = ad.take(flat, pos_idx)
        total = ad.add(total, ad.mean(ad.sub(lse, picked)))
    return total


def span_max_features(adv_out, items):
    """Max-pool adversarial representations over span positions.

    adv_out: Tensor [R, N, D]; items: list of (row, (st, ed)). Returns [S, D].
    """
    n = adv_out.shape[1]
    sel = ad.take(adv_out, [r for r, _ in items])
    mask = np.zeros((len(items), n))
    for i, (_, (st, ed)) in enumerate(items):
        mask[i, st : ed + 1] = 1.0
    return ad.max_over_axis(ad.add(sel, ((1.0 - mask) * MASK_NEG)[:, :, None]), axis=1)


def adversarial_loss(model: LocalizerModel, adv_out, positives, negatives):
    """Binary cross-entropy over span features: label 1 for spans overlapping
    the ground truth, 0 for mined negative-video moments. Mean reduction."""
    if not positives or not negatives:
        raise ValueError("adversarial loss needs at least one positive and one negative span")
    feats = span_max_features(adv_out, list(positives) + list(negatives))
    logits = model.adv_classify(feats)
    labels = np.concatenate([np.ones(len(positives)), np.zeros(len(negatives))])
    return ad.mean(ad.bce_with_logits(logits, labels))


def total_loss(boundary, adversarial, gamma=0.8):
    """Weighted sum of the boundary loss and the adversarial loss."""
    return ad.add(boundary, ad.mul(adversarial, gamma))

