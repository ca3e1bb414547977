"""Model-building blocks on top of the autodiff engine.

Conventions: activations are [batch, length, hidden] everywhere, attention
masks are [batch, keys] float arrays with 1 = attend / 0 = blocked, and
blocked logits get an additive -1e9 before softmax (exact zero weight after
exponentiation at float64). Transformer blocks use the post-layer-norm
residual layout: sublayer -> add -> norm.

`linear` and `layer_norm` are the fused autodiff ops `ad.linear` and
`ad.layer_norm`, re-exported, and `multi_head_attention` calls `ad.attention`;
each is one tape record that evaluates the same NumPy expressions in the same
order as the chain of elementary ops it replaces, so values and gradients keep
their bits. `pad_rows` is the one padder of aligned streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import MASK_NEG, Tensor, layer_norm, linear


class Params(dict):
    """Insertion-ordered registry of named parameter tensors."""

    def add(self, name, array):
        if name in self:
            raise ValueError(f"duplicate parameter name: {name}")
        t = self[name] = Tensor(array)
        return t

    def state_dict(self):
        return {name: t.data.copy() for name, t in self.items()}

    def load_state_dict(self, state):
        for name, t in self.items():
            if name not in state:
                raise KeyError(f"missing parameter in state: {name}")
            arr = np.asarray(state[name], dtype=np.float64)
            if arr.shape != t.data.shape:
                raise ValueError(f"parameter {name}: shape {arr.shape} != {t.data.shape}")
            t.data = arr.copy()


def xavier_uniform(rng, fan_in, fan_out, shape=None):
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape if shape is not None else (fan_in, fan_out))


def add_attention_params(params, prefix, d, rng):
    for name in ("wq", "wk", "wv", "wo"):
        params.add(f"{prefix}.{name}", xavier_uniform(rng, d, d))
    for name in ("bq", "bk", "bv", "bo"):
        params.add(f"{prefix}.{name}", np.zeros(d))


def multi_head_attention(q, k, v, params, prefix, heads, key_mask):
    """Scaled dot-product attention, [B, L, D] activations.

    key_mask [B, Lk]; masked key positions contribute exactly zero weight.
    """
    ctx = ad.attention(linear(q, params[f"{prefix}.wq"], params[f"{prefix}.bq"]),
                       linear(k, params[f"{prefix}.wk"], params[f"{prefix}.bk"]),
                       linear(v, params[f"{prefix}.wv"], params[f"{prefix}.bv"]), heads, key_mask)
    return linear(ctx, params[f"{prefix}.wo"], params[f"{prefix}.bo"])


class TransformerLayer:
    """Post-LN transformer layer, optionally with a cross-attention block.

    Block order: self-attention, (cross-attention,) feed-forward with ReLU;
    each block closes with residual add and layer norm.
    """

    def __init__(self, params, prefix, d, d_ff, heads, rng, cross=False):
        self.params = params
        self.prefix = prefix
        self.heads = heads
        self.cross = cross
        add_attention_params(params, f"{prefix}.attn", d, rng)
        params.add(f"{prefix}.ln1.g", np.ones(d))
        params.add(f"{prefix}.ln1.b", np.zeros(d))
        if cross:
            add_attention_params(params, f"{prefix}.xattn", d, rng)
            params.add(f"{prefix}.lnx.g", np.ones(d))
            params.add(f"{prefix}.lnx.b", np.zeros(d))
        params.add(f"{prefix}.ffn.w1", xavier_uniform(rng, d, d_ff))
        params.add(f"{prefix}.ffn.b1", np.zeros(d_ff))
        params.add(f"{prefix}.ffn.w2", xavier_uniform(rng, d_ff, d))
        params.add(f"{prefix}.ffn.b2", np.zeros(d))
        params.add(f"{prefix}.ln2.g", np.ones(d))
        params.add(f"{prefix}.ln2.b", np.zeros(d))

    def _ln(self, tag, x):
        return layer_norm(x, self.params[f"{self.prefix}.{tag}.g"], self.params[f"{self.prefix}.{tag}.b"])

    def __call__(self, x, mask, memory=None):
        """mask [B, L]; a cross-attention layer also takes memory = (kv [B, Lk, D], kv_mask [B, Lk])."""
        p, pre = self.params, self.prefix
        att = multi_head_attention(x, x, x, p, f"{pre}.attn", self.heads, mask)
        x = self._ln("ln1", ad.add(x, att))
        if self.cross:
            kv, kv_mask = memory
            xatt = multi_head_attention(x, kv, kv, p, f"{pre}.xattn", self.heads, kv_mask)
            x = self._ln("lnx", ad.add(x, xatt))
        h = linear(x, p[f"{pre}.ffn.w1"], p[f"{pre}.ffn.b1"])
        h = linear(ad.relu(h), p[f"{pre}.ffn.w2"], p[f"{pre}.ffn.b2"])
        return self._ln("ln2", ad.add(x, h))


def pad_rows(*streams):
    """Zero-pad aligned streams, each one array [n_i, d] per row with the same n_i in every stream,
    to the longest row: (padded [R, max n, d] per stream, ..., mask [R, max n])."""
    lengths = np.array([len(row) for row in streams[0]])
    valid = np.arange(lengths.max()) < lengths[:, None]
    padded = [np.zeros(valid.shape + rows[0].shape[1:]) for rows in streams]
    for out, rows in zip(padded, streams):
        out[valid] = np.concatenate(rows)
    return (*padded, valid.astype(np.float64))


def encode_once(encode, keys, *streams):
    """Encode each distinct row of a batch once. Rows are keyed by `keys`, and each stream lists one
    [n_i, d] array per row. The first row of each key is zero-padded (`pad_rows`) and encoded, and
    the encoder `ad.take`s its output back to every row; the take's backward sums the rows'
    gradients. Returns the encoding and the rows' padding mask [R, max n]."""
    _, first, rows = np.unique(keys, return_index=True, return_inverse=True)
    *padded, mask = pad_rows(*([stream[i] for i in first] for stream in streams))
    return encode(*padded, mask, rows=rows), mask[rows]


@dataclass(frozen=True)
class EncoderConfig:
    """Sizes of the encoder trunk; each model's config extends these fields.
    Configs are immutable and checked when built."""

    hidden: int = 32
    intermediate: int = 128
    heads: int = 4
    max_positions: int = 64

    def __post_init__(self):
        for name in ("hidden", "intermediate", "heads", "max_positions"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.hidden % self.heads != 0:
            raise ValueError(f"hidden size {self.hidden} is not divisible by {self.heads} heads")


class EncoderTrunk:
    """Query and video encoders shared by the retriever and the localizer.

    Queries: projected tokens plus positions through one transformer layer,
    then modality-specific attention pooling. Videos: projected image and
    subtitle clips plus positions and a modality embedding, encoded jointly
    by one transformer layer over both streams. A model draws its own
    parameters from `rng` after the trunk's.
    """

    def __init__(self, d_txt, d_img, d_sub, config: EncoderConfig, rng):
        self.config = config
        d = config.hidden
        p = Params()
        p.add("q_proj.w", xavier_uniform(rng, d_txt, d))
        p.add("q_proj.b", np.zeros(d))
        p.add("img_proj.w", xavier_uniform(rng, d_img, d))
        p.add("img_proj.b", np.zeros(d))
        p.add("sub_proj.w", xavier_uniform(rng, d_sub, d))
        p.add("sub_proj.b", np.zeros(d))
        p.add("pos_emb", rng.normal(0.0, 0.02, size=(config.max_positions, d)))
        p.add("mod_emb", rng.normal(0.0, 0.02, size=(2, d)))
        self.q_layer = TransformerLayer(p, "qtrans", d, config.intermediate, config.heads, rng)
        self.v_layer = TransformerLayer(p, "vtrans", d, config.intermediate, config.heads, rng)
        p.add("pool.w_img", xavier_uniform(rng, d, 1))
        p.add("pool.w_sub", xavier_uniform(rng, d, 1))
        self.params = p

    def _check_length(self, what, length):
        if length > self.config.max_positions:
            raise ad.ShapeError(f"{what} length {length} exceeds max_positions {self.config.max_positions}")

    def encode_tokens(self, tokens, token_mask, rows=None):
        """tokens [B, L, d_txt], token_mask [B, L] -> token reps [B, L, D], or those of batch rows `rows`."""
        p = self.params
        length = tokens.shape[1]
        self._check_length("query", length)
        h = linear(tokens, p["q_proj.w"], p["q_proj.b"])
        h = self.q_layer(ad.add(h, ad.slice_axis(p["pos_emb"], 0, 0, length)), token_mask)
        return h if rows is None else ad.take(h, rows)

    def pool_tokens(self, h, token_mask):
        """Modality-specific pooling of token reps [B, L, D].

        -> (q_img [B, D], q_sub [B, D], (alpha_img, alpha_sub) [B, L]).
        """
        b, length, d = h.shape
        blocked = (1.0 - np.asarray(token_mask, dtype=np.float64)) * MASK_NEG
        reps, alphas = [], []
        for w_name in ("pool.w_img", "pool.w_sub"):
            o = ad.reshape(ad.matmul(h, self.params[w_name]), (b, length))
            alpha = ad.softmax(ad.add(o, blocked), axis=-1)
            reps.append(ad.reshape(ad.matmul(ad.reshape(alpha, (b, 1, length)), h), (b, d)))
            alphas.append(alpha)
        return reps[0], reps[1], (alphas[0], alphas[1])

    def encode_video_batch(self, images, subtitles, clip_mask, rows=None):
        """images [B, N, d_img], subtitles [B, N, d_sub], clip_mask [B, N] -> ([B, N, D], [B, N, D]),
        or the encodings of batch rows `rows`, taken once from the joint image-subtitle output."""
        p = self.params
        n = images.shape[1]
        self._check_length("video", n)
        pos = ad.slice_axis(p["pos_emb"], 0, 0, n)
        h_img = ad.add(linear(images, p["img_proj.w"], p["img_proj.b"]), pos)
        h_img = ad.add(h_img, ad.slice_axis(p["mod_emb"], 0, 0, 1))
        h_sub = ad.add(linear(subtitles, p["sub_proj.w"], p["sub_proj.b"]), pos)
        h_sub = ad.add(h_sub, ad.slice_axis(p["mod_emb"], 0, 1, 2))
        seq = ad.concat([h_img, h_sub], axis=1)
        out = self.v_layer(seq, np.concatenate([clip_mask, clip_mask], axis=1))
        out = out if rows is None else ad.take(out, rows)
        return ad.slice_axis(out, 1, 0, n), ad.slice_axis(out, 1, n, 2 * n)

    def encode_video(self, video):
        """(image, subtitle) clip encodings of one video as plain arrays, each [clips, D], encoded
        on a one-row batch of its own length, so they do not depend on any other video."""
        img_r, sub_r = self.encode_video_batch(video.image_matrix()[None], video.subtitle_matrix()[None],
                                               np.ones((1, len(video))))
        return img_r.data[0], sub_r.data[0]
