"""Dense float64 tensors with reverse-mode automatic differentiation.

Everything is small enough at desk scale that each value is a plain numpy
float64 array. Operations never mutate their inputs, and each returns
`_op(value, pairs, *args)`, where the module-level function `pairs(*args)`
builds the op's pairs, each an input with the function that maps the
output's gradient to that input's. The input of a pair may be a tuple of
inputs; its function then returns one gradient per input, in tuple order.
`_op` converts `value` to float64, raises `NonFiniteError` on NaN/Inf
before recording anything (so a numerical failure surfaces at the op that
produced it instead of corrupting a training run silently) and wraps it in
a `Tensor`. Its finite test
reduces `np.isfinite` with `np.logical_and`, so it does no arithmetic on the
values: a sum would warn on inf - inf or on an overflow, and under
warnings-as-errors that warning would replace `NonFiniteError`. Only on an
active tape does it call `pairs(*args)` and build a record: the pairs with a
`Tensor` among their inputs, in one `Tape.record` call, and none when no
input is a `Tensor`. So every op adds at most one record, and with no tape
an op computes its value, checks it and builds nothing else: no pair, no
closure (an op's body defines no function, so it has no cell variables
either) and no array only backward reads (`relu`'s mask, `concat`'s split
offsets, `logsumexp`'s softmax, `bce_with_logits`' sigmoid). Shape checks
run on both paths.

A record holds no `Tensor`. It keys the output and each input on its node
id, an integer from one process-wide counter that a `Tensor` takes the
first time a tape records it (so inference assigns none), and keys each
input with its shape too. Each function keeps only what its backward reads:
`add`, `sub`, `sum_`, `mean`, `reshape`, `slice_axis` and `take` keep shapes
(and indices), `max_over_axis` its argmax, `relu` its bool mask and
`conv1d` its unpadded input, which it pads again in backward. So an array
the caller drops is freed before backward unless a function needs it, like
the operands of `mul` and `matmul`, `softmax`'s output or the fused ops'
kept intermediates below.

`linear`, `layer_norm` and `attention` are fused ops: one record each for a
chain of the ops above. Each evaluates, forward and backward, the same NumPy
expressions on the same views in the same order as that chain, so its values
and gradients have the same bits; a forward may reuse one buffer through
in-place operators, which round alike. They keep fewer intermediates alive
and recompute what backward needs from those. `attention` adds no mask
term when every `key_mask` entry is exactly 1.0: each such term is -0.0,
which changes no logit. Inputs that share backward work (layer norm's two
paths to `x`, attention's `k` and `q`) share one pair, whose function
computes that work once.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


class NonFiniteError(ArithmeticError):
    """A forward operation produced NaN or Inf."""


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


_ACTIVE_TAPE = None
_NODE_IDS = itertools.count()

# Additive logit of a blocked attention key: an exact zero weight after softmax at float64.
MASK_NEG = -1e9


class Tensor:
    """Immutable-by-convention dense array, optionally tracked by a Tape.

    Parameters are plain Tensors too; what makes a value differentiable is
    only whether a tape was active when the ops producing it ran. `node` is
    None until a tape first records the tensor, then its node id.
    """

    __slots__ = ("data", "node")

    def __init__(self, data):
        self.data = np.array(data, dtype=np.float64)
        self.node = None

    @property
    def shape(self):
        return self.data.shape

    def item(self):
        if self.data.size != 1:
            raise ShapeError(f"expected a scalar tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"


class Tape:
    """Ordered record of operations plus accumulated gradients, keyed on node ids.

    Backward pops the records in reverse creation order exactly once;
    since every op's inputs exist before its output, that order is a valid
    topological order of the computation graph. Each record, and its
    output's gradient, is freed once its pairs have run.
    """

    def __init__(self):
        self._records = []  # (output node, [(input key or list of input keys, grad_fn), ...])
        self._grads = {}  # node -> ndarray
        self._done = False

    def __enter__(self):
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise RuntimeError("a tape is already active; tapes are single-threaded")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, exc_type, exc, tb):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None
        return False

    def record(self, out, pairs):
        """Record `out` with its (input, grad_fn) pairs; `grad_fn(g)` maps the
        gradient of `out` to the gradient of that input, or, when the input is
        a tuple of inputs, to one gradient per input (see `accumulate`).

        The record keeps `out`'s node id and each input's key, not the tensors,
        and the functions close over forward values only, never over the tape,
        so a finished tape is freed by reference counting alone.
        """
        self._records.append((_key(out)[0], [([_key(u) for u in t] if isinstance(t, tuple) else _key(t), fn)
                                             for t, fn in pairs]))

    def accumulate(self, key, grad):
        """Add `grad` to the gradient of the input keyed `key`, a (node id,
        shape) pair. For a list of keys, from a tuple of inputs, `grad` holds
        one gradient per key, added in order; a None key, an input that is not
        a `Tensor`, is skipped. The loop runs here, not in `backward`, so no
        loop variable keeps a gradient alive once this call returns."""
        if isinstance(key, list):
            for ki, gi in zip(key, grad, strict=True):
                if ki is not None:
                    self.accumulate(ki, gi)
            return
        node, shape = key
        if grad.shape != shape:
            raise ShapeError(f"gradient shape {grad.shape} != tensor shape {shape}")
        if node in self._grads:
            self._grads[node] = self._grads[node] + grad
        else:
            self._grads[node] = grad

    def grad(self, t):
        """Accumulated gradient of `t`; zeros if `t` was unreachable. After
        backward the tape holds the gradients of leaves only, tensors that no
        recorded op produced, so an op's output reads zeros."""
        return self._grads.get(t.node, np.zeros_like(t.data))

    def backward(self, loss):
        if loss.data.size != 1:
            raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")
        if self._done:
            raise RuntimeError("backward was already run on this tape")
        self._done = True
        self.accumulate(_key(loss), np.ones_like(loss.data))
        while self._records:
            node, pairs = self._records.pop()
            g = self._grads.pop(node, None)
            if g is not None:
                for key, fn in pairs:
                    self.accumulate(key, fn(g))


def _key(t):
    """(node id, shape) of a Tensor, which takes the next node id on first use; None for a constant."""
    if not isinstance(t, Tensor):
        return None
    if t.node is None:
        t.node = next(_NODE_IDS)
    return t.node, t.data.shape


def _val(x):
    """Raw ndarray of a Tensor or array-like constant."""
    if isinstance(x, Tensor):
        return x.data
    return np.asarray(x, dtype=np.float64)


def _op(value, pairs, *args):
    """`value` as a checked float64 Tensor. Only under an active tape is `pairs(*args)` called, to build
    the op's (input, grad_fn) pairs, and the tape records them."""
    arr = np.asarray(value, dtype=np.float64)
    if not np.logical_and.reduce(np.isfinite(arr), axis=None):
        raise NonFiniteError("operation produced a non-finite value")
    out = Tensor.__new__(Tensor)
    out.data = arr
    out.node = None
    if _ACTIVE_TAPE is not None:
        tracked = [(t, fn) for t, fn in pairs(*args)
                   if isinstance(t, Tensor) or isinstance(t, tuple) and any(isinstance(u, Tensor) for u in t)]
        if tracked:
            _ACTIVE_TAPE.record(out, tracked)
    return out


def _unbroadcast(grad, shape):
    """Reduce a broadcasted gradient back to the original operand shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = np.add.reduce(grad, axis=tuple(range(extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = np.add.reduce(grad, axis=axes, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise / arithmetic


def add(a, b):
    av, bv = _val(a), _val(b)
    return _op(av + bv, _add_pairs, a, b, av, bv)


def _add_pairs(a, b, av, bv):
    a_shape, b_shape = av.shape, bv.shape
    return (a, lambda g: _unbroadcast(g, a_shape)), (b, lambda g: _unbroadcast(g, b_shape))


def sub(a, b):
    av, bv = _val(a), _val(b)
    return _op(av - bv, _sub_pairs, a, b, av, bv)


def _sub_pairs(a, b, av, bv):
    a_shape, b_shape = av.shape, bv.shape
    return (a, lambda g: _unbroadcast(g, a_shape)), (b, lambda g: _unbroadcast(-g, b_shape))


def mul(a, b):
    av, bv = _val(a), _val(b)
    return _op(av * bv, _mul_pairs, a, b, av, bv)


def _mul_pairs(a, b, av, bv):
    return (a, lambda g: _unbroadcast(g * bv, av.shape)), (b, lambda g: _unbroadcast(g * av, bv.shape))


def pow_const(x, p):
    xv = _val(x)
    return _op(xv ** p, _pow_const_pairs, x, xv, p)


def _pow_const_pairs(x, xv, p):
    return (x, lambda g: g * p * xv ** (p - 1)),


def relu(x):
    xv = _val(x)
    return _op(np.maximum(xv, 0.0), _relu_pairs, x, xv)


def _relu_pairs(x, xv):
    mask = xv > 0.0
    return (x, lambda g: g * mask),


def exp(x):
    ev = np.exp(_val(x))
    return _op(ev, _exp_pairs, x, ev)


def _exp_pairs(x, ev):
    return (x, lambda g: g * ev),


def log(x):
    xv = _val(x)
    return _op(np.log(xv), _log_pairs, x, xv)


def _log_pairs(x, xv):
    return (x, lambda g: g / xv),


# ---------------------------------------------------------------------------
# linear algebra


def _check_matmul(av, bv):
    """ShapeError unless `av @ bv` multiplies at-least-2-D operands whose inner dims agree."""
    if av.ndim < 2 or bv.ndim < 2:
        raise ShapeError("matmul operands must be at least 2-D")
    if av.shape[-1] != bv.shape[-2]:
        raise ShapeError(f"matmul inner dims disagree: {av.shape} x {bv.shape}")


def matmul(a, b):
    av, bv = _val(a), _val(b)
    _check_matmul(av, bv)
    return _op(np.matmul(av, bv), _matmul_pairs, a, b, av, bv)


def _matmul_pairs(a, b, av, bv):
    return ((a, lambda g: _unbroadcast(np.matmul(g, bv.swapaxes(-1, -2)), av.shape)),
            (b, lambda g: _unbroadcast(np.matmul(av.swapaxes(-1, -2), g), bv.shape)))


def linear(x, w, b):
    """Affine map `x @ w + b`; `b` broadcasts over the rows of the product."""
    xv, wv, bv = _val(x), _val(w), _val(b)
    _check_matmul(xv, wv)
    out = np.matmul(xv, wv)
    out += bv
    return _op(out, _linear_pairs, x, w, b, xv, wv, bv)


def _linear_pairs(x, w, b, xv, wv, bv):
    return (*_matmul_pairs(x, w, xv, wv), (b, lambda g: _unbroadcast(g, bv.shape)))


# ---------------------------------------------------------------------------
# reductions


def _spread(g, shape, axis, keepdims):
    """Gradient of a reduction over `axis` to an input of `shape`; with axis=None, g is 0-d or keepdims."""
    gg = g if keepdims or axis is None else np.expand_dims(g, axis)
    return np.broadcast_to(gg, shape).copy()


def sum_(x, axis=None, keepdims=False):
    xv = _val(x)
    return _op(np.add.reduce(xv, axis=axis, keepdims=keepdims), _sum_pairs, x, xv, axis, keepdims)


def _sum_pairs(x, xv, axis, keepdims):
    shape = xv.shape
    return (x, lambda g: _spread(g, shape, axis, keepdims)),


def mean(x, axis=None, keepdims=False):
    xv = _val(x)
    scale = 1.0 / (xv.size if axis is None else xv.shape[axis])
    return _op(np.add.reduce(xv, axis=axis, keepdims=keepdims) * scale, _mean_pairs, x, xv, axis, keepdims, scale)


def _mean_pairs(x, xv, axis, keepdims, scale):
    shape = xv.shape
    return (x, lambda g: _spread(g * scale, shape, axis, keepdims)),


def max_over_axis(x, axis):
    """Max along one axis; returns (values, argmax indices).

    Ties break toward the lowest index (numpy argmax), as in the
    relevant-clip sampling oracle of `tests/conftest.py`, so the clip that
    `retriever.best_clips` scores and the clip the oracle picks agree. The
    values come from `np.maximum.reduce`, not a gather at the argmax; a max
    is exact, so they are the same bits.
    """
    xv = _val(x)
    idx = np.argmax(xv, axis=axis)
    return _op(np.maximum.reduce(xv, axis=axis), _max_pairs, x, xv, idx, axis), idx


def _max_pairs(x, xv, idx, axis):
    shape = xv.shape

    def grad(g):
        gx = np.zeros(shape)
        np.put_along_axis(gx, np.expand_dims(idx, axis), np.expand_dims(g, axis), axis=axis)
        return gx

    return (x, grad),


def softmax(x, axis=-1):
    xv = _val(x)
    shifted = xv - np.maximum.reduce(xv, axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / np.add.reduce(e, axis=axis, keepdims=True)
    return _op(s, _softmax_pairs, x, s, axis)


def _softmax_pairs(x, s, axis):
    return (x, lambda g: s * (g - np.add.reduce(g * s, axis=axis, keepdims=True))),


def logsumexp(x, axis=-1, keepdims=False):
    xv = _val(x)
    m = np.maximum.reduce(xv, axis=axis, keepdims=True)
    e = np.exp(xv - m)
    se = np.add.reduce(e, axis=axis, keepdims=True)
    res = m + np.log(se)
    return _op(res if keepdims else res.squeeze(axis), _logsumexp_pairs, x, e, se, axis, keepdims)


def _logsumexp_pairs(x, e, se, axis, keepdims):
    soft = e / se
    return (x, lambda g: soft * (g if keepdims else np.expand_dims(g, axis))),


# ---------------------------------------------------------------------------
# shape manipulation


def reshape(x, shape):
    xv = _val(x)
    return _op(xv.reshape(shape), _reshape_pairs, x, xv)


def _reshape_pairs(x, xv):
    x_shape = xv.shape
    return (x, lambda g: g.reshape(x_shape)),


def swapaxes(x, a, b):
    return _op(_val(x).swapaxes(a, b), _swapaxes_pairs, x, a, b)


def _swapaxes_pairs(x, a, b):
    return (x, lambda g: g.swapaxes(a, b)),


def concat(parts, axis=0):
    vals = [_val(p) for p in parts]
    return _op(np.concatenate(vals, axis=axis), _concat_pairs, parts, vals, axis)


def _concat_pairs(parts, vals, axis):
    ends = np.cumsum([v.shape[axis] for v in vals[:-1]])
    return (tuple(parts), lambda g: np.split(g, ends, axis=axis)),


def slice_axis(x, axis, start, stop):
    xv = _val(x)
    sl = [slice(None)] * xv.ndim
    sl[axis] = slice(start, stop)
    sl = tuple(sl)
    return _op(xv[sl], _slice_axis_pairs, x, xv, sl)


def _slice_axis_pairs(x, xv, sl):
    shape = xv.shape

    def grad(g):
        gx = np.zeros(shape)
        gx[sl] = g
        return gx

    return (x, grad),


def take(x, indices):
    """Rows `indices` (a 1-D index) of x; backward scatter-adds (repeats allowed) as `np.add.at` does, in
    its order, but one `+=` per level of repeated indices (level k: each index's k-th row), which is faster."""
    xv = _val(x)
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError(f"take needs a 1-D index, got shape {idx.shape}")
    return _op(xv[idx], _take_pairs, x, xv, idx)


def _take_pairs(x, xv, idx):
    shape = xv.shape

    def grad(g):
        gx = np.zeros(shape)
        order = np.argsort(idx, kind="stable")
        pos = np.arange(len(idx))
        starts = np.r_[True, idx[order][1:] != idx[order][:-1]]
        level = np.empty_like(pos)
        level[order] = pos - np.maximum.accumulate(np.where(starts, pos, 0))
        for k in range(level.max(initial=-1) + 1):
            gx[idx[level == k]] += g[level == k]
        return gx

    return (x, grad),


# ---------------------------------------------------------------------------
# normalization


def l2_normalize(x, axis=-1):
    """Rows scaled to unit L2 norm; all-zero rows stay zero (by convention)."""
    xv = _val(x)
    norms = np.sqrt(np.add.reduce(xv * xv, axis=axis, keepdims=True))
    safe = np.where(norms > 0.0, norms, 1.0)
    return _op(xv / safe, _l2_normalize_pairs, x, xv, norms, safe, axis)


def _l2_normalize_pairs(x, xv, norms, safe, axis):
    def grad(g):
        inner = np.add.reduce(xv * g, axis=axis, keepdims=True)
        gx = g / safe - xv * inner / safe ** 3
        return np.where(norms > 0.0, gx, 0.0)

    return (x, grad),


def layer_norm(x, gamma, beta, eps=1e-5):
    """`(x - mean) / sqrt(var + eps) * gamma + beta` over the last axis: the chain
    mean, sub, mul, mean, add, pow_const, mul, mul, add as one record."""
    xv, gv, bv = _val(x), _val(gamma), _val(beta)
    scale = 1.0 / xv.shape[-1]
    xc = xv - np.add.reduce(xv, axis=-1, keepdims=True) * scale
    ve = np.add.reduce(xc * xc, axis=-1, keepdims=True) * scale + eps
    p = -0.5
    inv = ve ** p
    out = xc * inv
    out *= gv
    out += bv
    return _op(out, _layer_norm_pairs, x, gamma, beta, xv, gv, bv, xc, ve, p, inv, scale)


def _layer_norm_pairs(x, gamma, beta, xv, gv, bv, xc, ve, p, inv, scale):
    shape, mu_shape = xv.shape, ve.shape

    def d_xc(g):  # the gradient the chain accumulated for xc: (g_n * inv + g_sq * xc) + g_sq * xc
        g_n = g * gv
        g_inv = _unbroadcast(g_n * xc, inv.shape)
        g_sq_xc = (g_inv * p * ve ** (p - 1) * scale) * xc
        return (g_n * inv + g_sq_xc) + g_sq_xc

    def d_x(g):  # x's gradient through xc, then through the mean, as the chain reached x
        g_xc = d_xc(g)
        return g_xc, _spread(_unbroadcast(-g_xc, mu_shape) * scale, shape, -1, True)

    return (((x, x), d_x),
            (gamma, lambda g: _unbroadcast(g * (xc * inv), gv.shape)),
            (beta, lambda g: _unbroadcast(g, bv.shape)))


# ---------------------------------------------------------------------------
# attention


def _split_heads(xv, heads):
    """[B, L, D] -> a [B, heads, L, D / heads] view."""
    b, length, d = xv.shape
    return xv.reshape(b, length, heads, d // heads).swapaxes(1, 2)


def _merge_heads(gh, shape):
    """[B, heads, L, dh] -> [B, L, D]."""
    return gh.swapaxes(1, 2).reshape(shape)


def attention(q, k, v, heads, key_mask):
    """Multi-head scaled dot-product attention core, `softmax(Q Kᵀ / √dh + mask) V`.

    q [B, Lq, D], k and v [B, Lk, D] are the projected inputs; they are split
    into `heads` heads of width dh = D / heads and the heads are merged back,
    so the output is [B, Lq, D]. key_mask [B, Lk] holds 1 = attend, 0 =
    blocked; a blocked key gets an additive `MASK_NEG` and so exactly zero
    weight. The record keeps the head views of q, k and v and the
    probabilities, and backward recomputes the rest from them.
    """
    qv, kv, vv = _val(q), _val(k), _val(v)
    if qv.ndim != 3 or kv.shape != vv.shape or kv.shape[:1] + kv.shape[2:] != qv.shape[:1] + qv.shape[2:]:
        raise ShapeError(f"attention needs q [B, Lq, D] and k, v [B, Lk, D]; got {qv.shape}, {kv.shape}, "
                         f"{vv.shape}")
    d = qv.shape[2]
    if d % heads != 0:
        raise ShapeError(f"hidden size {d} not divisible by {heads} heads")
    scale = 1.0 / math.sqrt(d // heads)
    qh, kh, vh = _split_heads(qv, heads), _split_heads(kv, heads), _split_heads(vv, heads)
    probs = np.matmul(qh, kh.swapaxes(-1, -2))
    probs *= scale
    mask = np.asarray(key_mask, dtype=np.float64)
    if not np.logical_and.reduce(mask == 1.0, axis=None):  # an open key's term is -0.0, which changes no logit
        probs += ((1.0 - mask) * MASK_NEG)[:, None, None, :]
    probs -= np.maximum.reduce(probs, axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= np.add.reduce(probs, axis=-1, keepdims=True)
    return _op(_merge_heads(np.matmul(probs, vh), qv.shape), _attention_pairs, q, k, v, qv, kv, qh, kh, vh, probs,
               heads, scale)


def _attention_pairs(q, k, v, qv, kv, qh, kh, vh, probs, heads, scale):
    q_shape, kv_shape = qv.shape, kv.shape

    def d_kq(g):  # the logit gradient, through softmax and the scale, to k and q
        dl = np.matmul(_split_heads(g, heads), vh.swapaxes(-1, -2))
        dl -= np.add.reduce(dl * probs, axis=-1, keepdims=True)
        dl *= probs
        dl *= scale
        gk, gq = np.matmul(qh.swapaxes(-1, -2), dl).swapaxes(-1, -2), np.matmul(dl, kh)
        del dl  # [B, heads, Lq, Lk]: free it before the merges copy
        return _merge_heads(gk, kv_shape), _merge_heads(gq, q_shape)

    # v, k, q: the order in which the unfused chain reached them
    return ((v, lambda g: _merge_heads(np.matmul(probs.swapaxes(-1, -2), _split_heads(g, heads)), kv_shape)),
            ((k, q), d_kq))


# ---------------------------------------------------------------------------
# convolution


def _pad_seq(xv, pad):
    """xv [..., L, D] with `pad` zero rows before and after its L rows: a copy into a zeroed array."""
    length = xv.shape[-2]
    xp = np.zeros(xv.shape[:-2] + (length + 2 * pad, xv.shape[-1]))
    xp[..., pad : pad + length, :] = xv
    return xp


def conv1d(x, kernel, bias=None):
    """Same-length 1-D cross-correlation over the sequence axis.

    x: [..., L, D], kernel: [k, D, Dout] with k odd; zero padding keeps the
    output length equal to the input length. The record keeps x and pads it
    again in backward.
    """
    xv, kv = _val(x), _val(kernel)
    if kv.ndim != 3:
        raise ShapeError(f"conv1d kernel must be [k, D, Dout], got {kv.shape}")
    k, d_in, _ = kv.shape
    if k % 2 != 1:
        raise ShapeError("conv1d kernel width must be odd")
    if xv.shape[-1] != d_in:
        raise ShapeError(f"conv1d feature dims disagree: input {xv.shape[-1]}, kernel {d_in}")
    length = xv.shape[-2]
    xp = _pad_seq(xv, k // 2)
    res = np.zeros(xv.shape[:-1] + (kv.shape[2],))
    for t in range(k):
        res += np.matmul(xp[..., t : t + length, :], kv[t])
    bv = None
    if bias is not None:
        bv = _val(bias)
        res += bv
    return _op(res, _conv1d_pairs, x, kernel, bias, xv, kv, bv)


def _conv1d_pairs(x, kernel, bias, xv, kv, bv):
    k, d_in, _ = kv.shape
    length, pad = xv.shape[-2], k // 2
    padded_shape = xv.shape[:-2] + (length + 2 * pad, d_in)

    def grad_x(g):
        gxp = np.zeros(padded_shape)
        for t in range(k):
            gxp[..., t : t + length, :] += np.matmul(g, kv[t].T)
        return gxp[..., pad : pad + length, :]

    def grad_kernel(g):
        xp = _pad_seq(xv, pad)
        gk = np.zeros_like(kv)
        g_flat = g.reshape(-1, g.shape[-1])
        for t in range(k):
            gk[t] = xp[..., t : t + length, :].reshape(-1, d_in).T @ g_flat
        return gk

    if bias is None:
        return (x, grad_x), (kernel, grad_kernel)
    return (x, grad_x), (kernel, grad_kernel), (bias, lambda g: _unbroadcast(g, bv.shape))


# ---------------------------------------------------------------------------
# losses


def bce_with_logits(logits, labels):
    """Per-element binary cross-entropy from raw logits, numerically stable."""
    zv = _val(logits)
    yv = _val(labels)
    loss = np.maximum(zv, 0.0) - zv * yv + np.log1p(np.exp(-np.abs(zv)))
    return _op(loss, _bce_pairs, logits, zv, yv)


def _bce_pairs(logits, zv, yv):
    sig = 1.0 / (1.0 + np.exp(-zv))
    return (logits, lambda g: g * (sig - yv)),
