"""Autodiff engine: per-op gradient oracles, fused ops against the chains
they replace, closed forms, tape semantics, and the AdamW update rule."""

import gc
import warnings
import weakref

import numpy as np
import pytest

from conftest import RTOL, chain_attention, chain_concat, chain_layer_norm, chain_linear, fd_check
from vcmr import autodiff as ad
from vcmr.autodiff import NonFiniteError, ShapeError, Tape, Tensor
from vcmr.optim import AdamW
from vcmr.nn import EncoderConfig, EncoderTrunk, Params


def rng_for(seed):
    return np.random.default_rng(seed)


SEEDS = range(5)


# ---------------------------------------------------------------------------
# per-op finite-difference oracles


@pytest.mark.parametrize("seed", SEEDS)
def test_elementwise_ops_match_fd(seed):
    r = rng_for(seed)
    a = r.normal(size=(3, 4))
    b = r.normal(size=(3, 4))
    cases = [
        (lambda x, y: ad.sum_(ad.mul(ad.add(x, y), ad.sub(x, y))), [a, b]),
        (lambda x: ad.sum_(ad.pow_const(x, 3.0)), [a]),
        (lambda x: ad.sum_(ad.relu(x)), [a + 0.05]),  # keep clear of the kink
        (lambda x: ad.sum_(ad.exp(x)), [a]),
        (lambda x: ad.sum_(ad.log(x)), [np.abs(a) + 0.5]),
    ]
    for build, arrays in cases:
        assert fd_check(build, arrays) < RTOL


@pytest.mark.parametrize("seed", SEEDS)
def test_matmul_and_reductions_match_fd(seed):
    r = rng_for(seed)
    a = r.normal(size=(2, 3, 4))
    b = r.normal(size=(4, 5))
    assert fd_check(lambda x, y: ad.sum_(ad.matmul(x, y)), [a, b]) < RTOL
    assert fd_check(lambda x: ad.sum_(ad.mean(x, axis=1)), [a]) < RTOL
    assert fd_check(lambda x: ad.sum_(ad.mean(x)), [a]) < RTOL
    assert fd_check(lambda x: ad.sum_(ad.pow_const(ad.mean(x, axis=-1, keepdims=True), 2.0)), [a]) < RTOL
    assert fd_check(lambda x: ad.sum_(x, axis=2, keepdims=True), [a[:1, :1]]) < RTOL


@pytest.mark.parametrize("seed", SEEDS)
def test_softmax_logsumexp_max_match_fd(seed):
    r = rng_for(seed)
    a = r.normal(size=(3, 5))
    assert fd_check(lambda x: ad.sum_(ad.mul(ad.softmax(x, axis=-1), a)), [a]) < RTOL
    assert fd_check(lambda x: ad.sum_(ad.logsumexp(x, axis=1)), [a]) < RTOL
    # distinct values keep the max argmax stable under the FD perturbation
    spread = a + np.arange(15).reshape(3, 5)
    assert fd_check(lambda x: ad.sum_(ad.max_over_axis(x, axis=1)), [spread]) < RTOL


@pytest.mark.parametrize("seed", SEEDS)
def test_shape_ops_match_fd(seed):
    r = rng_for(seed)
    a = r.normal(size=(2, 3, 4))
    b = r.normal(size=(2, 2, 4))
    assert fd_check(lambda x: ad.sum_(ad.mul(ad.reshape(x, (6, 4)), 2.0)), [a]) < RTOL
    assert fd_check(lambda x: ad.sum_(ad.pow_const(ad.swapaxes(x, 0, 2), 2.0)), [a]) < RTOL
    assert fd_check(lambda x, y: ad.sum_(ad.pow_const(ad.concat([x, y], axis=1), 2.0)), [a, b]) < RTOL
    assert fd_check(lambda x: ad.sum_(ad.pow_const(ad.slice_axis(x, 1, 1, 3), 2.0)), [a]) < RTOL
    idx = np.array([0, 1, 1, 0])
    assert fd_check(lambda x: ad.sum_(ad.pow_const(ad.take(x, idx), 2.0)), [a]) < RTOL


@pytest.mark.parametrize("shape, indices", [
    ((18, 8, 4), np.array([3, 0, 3, 17, 3, 0, 5, 17, 3])),  # rows of a joint encoding, repeated
    ((7,), np.array([6, 6, 6, 1])),
    ((7,), np.array([], dtype=np.intp)),
], ids=["repeated-rows", "repeated-scalars", "empty"])
def test_take_backward_sums_like_add_at(shape, indices):
    r = np.random.default_rng(3)
    x = Tensor(r.normal(size=shape))
    with Tape() as tape:
        y = ad.take(x, indices)
        g = r.normal(size=y.shape)
        g.flat[::3] = -0.0
        tape.backward(ad.sum_(ad.mul(y, g)))
        got = tape.grad(x)
    want = np.zeros(shape)
    np.add.at(want, indices, g)
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def test_take_refuses_an_index_that_is_not_1d():
    with pytest.raises(ShapeError):
        ad.take(Tensor(np.zeros((3, 2))), np.array([[0, 1]]))


@pytest.mark.parametrize("seed", SEEDS)
def test_normalize_cosine_conv_bce_match_fd(seed):
    r = rng_for(seed)
    a = r.normal(size=(3, 4)) + 0.1
    b = r.normal(size=(3, 4)) + 0.1
    assert fd_check(lambda x: ad.sum_(ad.mul(ad.l2_normalize(x), b)), [a]) < RTOL
    x = r.normal(size=(2, 6, 3))
    k = r.normal(size=(3, 3, 2))
    bias = r.normal(size=(2,))
    assert fd_check(lambda u, v, w: ad.sum_(ad.pow_const(ad.conv1d(u, v, w), 2.0)), [x, k, bias]) < RTOL
    logits = r.normal(size=(4,))
    labels = np.array([1.0, 0.0, 1.0, 0.0])
    assert fd_check(lambda z: ad.sum_(ad.bce_with_logits(z, labels)), [logits]) < RTOL


@pytest.mark.parametrize("seed", SEEDS)
def test_broadcasting_grads_match_fd(seed):
    r = rng_for(seed)
    a = r.normal(size=(2, 3, 4))
    row = r.normal(size=(4,))
    col = r.normal(size=(3, 1))
    assert fd_check(lambda x, y: ad.sum_(ad.pow_const(ad.add(x, y), 2.0)), [a, row]) < RTOL
    assert fd_check(lambda x, y: ad.sum_(ad.pow_const(ad.mul(x, y), 2.0)), [a, col]) < RTOL


def test_composite_graph_matches_fd():
    # attention-like chain exercising matmul -> softmax -> matmul -> norm
    r = rng_for(7)
    q = r.normal(size=(3, 4))
    k = r.normal(size=(5, 4))
    v = r.normal(size=(5, 4))

    def build(qq, kk, vv):
        att = ad.softmax(ad.matmul(qq, ad.swapaxes(kk, 0, 1)), axis=-1)
        out = ad.l2_normalize(ad.matmul(att, vv))
        return ad.sum_(ad.pow_const(out, 2.0))

    assert fd_check(build, [q, k, v]) < RTOL


# ---------------------------------------------------------------------------
# fused ops: the same bits as the chains they replace, and their FD oracles

_KEYS = np.ones((2, 7))
_KEYS[0, 4:] = 0.0  # a padded row: its last three keys are blocked
_QUERY_KEYS = np.ones((2, 3))
_QUERY_KEYS[1, 2:] = 0.0
_OPEN_KEYS = np.ones((2, 7))  # no key blocked: the fused op leaves out the mask term
_HALF_KEYS = np.ones((2, 7))
_HALF_KEYS[1, 3] = 0.5  # a mask that is not all ones is added, whatever its values


class Const(tuple):
    """The shape of an input passed as a plain array, not a Tensor."""


# (fused op, its chain of elementary ops, input shapes; a `Const` shape's input is a constant)
FUSED = {
    "linear": (ad.linear, chain_linear, [(2, 5, 6), (6, 4), (4,)]),
    "linear-2d": (ad.linear, chain_linear, [(5, 6), (6, 1), (1,)]),
    "layer_norm": (ad.layer_norm, chain_layer_norm, [(2, 5, 6), (6,), (6,)]),
    "self-attention": (lambda x: ad.attention(x, x, x, 2, _KEYS),
                       lambda x: chain_attention(x, x, x, 2, _KEYS), [(2, 7, 8)]),
    "cross-attention": (lambda q, k, v: ad.attention(q, k, v, 4, _KEYS),
                        lambda q, k, v: chain_attention(q, k, v, 4, _KEYS), [(2, 3, 8), (2, 7, 8), (2, 7, 8)]),
    "one-head": (lambda q, k, v: ad.attention(q, k, v, 1, _QUERY_KEYS),
                 lambda q, k, v: chain_attention(q, k, v, 1, _QUERY_KEYS), [(2, 5, 4), (2, 3, 4), (2, 3, 4)]),
    "layer_norm-constant-affine": (ad.layer_norm, chain_layer_norm, [(2, 5, 6), Const((6,)), Const((6,))]),
    "attention-constant-k": (lambda q, k, v: ad.attention(q, k, v, 4, _KEYS),
                             lambda q, k, v: chain_attention(q, k, v, 4, _KEYS),
                             [(2, 3, 8), Const((2, 7, 8)), (2, 7, 8)]),
    "attention-constant-q": (lambda q, k, v: ad.attention(q, k, v, 4, _KEYS),
                             lambda q, k, v: chain_attention(q, k, v, 4, _KEYS),
                             [Const((2, 3, 8)), (2, 7, 8), (2, 7, 8)]),
    "attention-open-keys": (lambda q, k, v: ad.attention(q, k, v, 2, _OPEN_KEYS),
                            lambda q, k, v: chain_attention(q, k, v, 2, _OPEN_KEYS),
                            [(2, 3, 8), (2, 7, 8), (2, 7, 8)]),
    "attention-fractional-mask": (lambda q, k, v: ad.attention(q, k, v, 2, _HALF_KEYS),
                                  lambda q, k, v: chain_attention(q, k, v, 2, _HALF_KEYS),
                                  [(2, 3, 8), (2, 7, 8), (2, 7, 8)]),
    # x's gradient is its two slices, accumulated in part order
    "concat-constant": (lambda x, c: ad.concat([x, c, x], axis=1), lambda x, c: chain_concat([x, c, x], axis=1),
                        [(2, 3, 4), Const((2, 2, 4))]),
}


def _bind_constants(op, shapes, arrays):
    """`op` as a function of its Tensor inputs alone, its `Const` inputs bound to
    their arrays, and the arrays of those Tensor inputs."""
    free = [i for i, shape in enumerate(shapes) if not isinstance(shape, Const)]

    def bound(*tensors):
        args = list(arrays)
        for i, t in zip(free, tensors):
            args[i] = t
        return op(*args)

    return bound, [arrays[i] for i in free]


def _value_and_grads(op, arrays, seed):
    """op's value and the gradients of its inputs under a random linear loss that
    also reaches every input by a second path, so each gradient accumulates."""
    r = rng_for(seed)
    tensors = [Tensor(a) for a in arrays]
    with Tape() as tape:
        out = op(*tensors)
        loss = ad.sum_(ad.mul(out, r.normal(size=out.shape)))
        for t in tensors:
            loss = ad.add(loss, ad.sum_(ad.mul(t, r.normal(size=t.shape))))
        tape.backward(loss)
    return out.data, [tape.grad(t) for t in tensors]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", FUSED)
def test_fused_op_matches_its_chain_bit_exact(name, seed):
    fused, chain, shapes = FUSED[name]
    arrays = [rng_for(seed).normal(size=shape) for shape in shapes]
    fused, free = _bind_constants(fused, shapes, arrays)
    chain, _ = _bind_constants(chain, shapes, arrays)
    value, grads = _value_and_grads(fused, free, seed)
    want_value, want_grads = _value_and_grads(chain, free, seed)
    assert np.array_equal(value, want_value)
    assert all(np.array_equal(g, w) for g, w in zip(grads, want_grads))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", FUSED)
def test_fused_op_matches_fd(name, seed):
    fused, _, shapes = FUSED[name]
    r = rng_for(seed)
    arrays = [r.normal(size=shape) for shape in shapes]
    fused, free = _bind_constants(fused, shapes, arrays)
    weight = r.normal(size=fused(*free).shape)
    assert fd_check(lambda *ts: ad.sum_(ad.pow_const(ad.add(fused(*ts), weight), 2.0)), free) < RTOL


def test_attention_rejects_bad_shapes():
    x = np.zeros((2, 3, 6))
    with pytest.raises(ShapeError):
        ad.attention(x, x, x, 4, np.ones((2, 3)))  # 6 is not divisible by 4
    with pytest.raises(ShapeError):
        ad.attention(x, x[:, :, :4], x[:, :, :4], 2, np.ones((2, 3)))


def params_of(*names):
    p = Params()
    for name in names:
        p.add(name, np.zeros(2))
    return p


def trunk_of_four_positions():
    return EncoderTrunk(2, 2, 2, EncoderConfig(hidden=4, intermediate=8, heads=1, max_positions=4), rng_for(0))


def backward_through_a_wrong_shaped_gradient():
    x, loss = Tensor(np.ones(2)), Tensor(2.0)
    with Tape() as tape:
        tape.record(loss, [(x, lambda g: np.ones(3))])
        tape.backward(loss)


REFUSALS = {
    "trunk-query-too-long": (lambda: trunk_of_four_positions().encode_tokens(np.zeros((1, 5, 2)), np.ones((1, 5))),
                             ShapeError, "query length 5 exceeds max_positions 4"),
    "trunk-video-too-long": (lambda: trunk_of_four_positions().encode_video_batch(
                                 np.zeros((1, 5, 2)), np.zeros((1, 5, 2)), np.ones((1, 5))),
                             ShapeError, "video length 5 exceeds max_positions 4"),
    "params-duplicate-name": (lambda: params_of("w", "w"), ValueError, "duplicate parameter name: w"),
    "params-missing-state": (lambda: params_of("w").load_state_dict({}), KeyError, "missing parameter in state: w"),
    "backward-gradient-shape": (backward_through_a_wrong_shaped_gradient, ShapeError,
                                r"gradient shape \(3,\) != tensor shape \(2,\)"),
    "adamw-gradient-shape": (lambda: AdamW(params_of("w")).step({"w": np.zeros(3)}), ShapeError,
                             r"gradient for w: shape \(3,\) != \(2,\)"),
    "matmul-1d": (lambda: ad.matmul(np.ones(2), np.ones((2, 2))), ShapeError, "operands must be at least 2-D"),
    "matmul-inner-dims": (lambda: ad.matmul(np.ones((2, 3)), np.ones((2, 2))), ShapeError,
                          r"inner dims disagree: \(2, 3\) x \(2, 2\)"),
    "conv1d-kernel-not-3d": (lambda: ad.conv1d(np.ones((4, 2)), np.ones((3, 2))), ShapeError,
                             r"kernel must be \[k, D, Dout\], got \(3, 2\)"),
    "conv1d-even-width": (lambda: ad.conv1d(np.ones((4, 2)), np.ones((2, 2, 2))), ShapeError, "width must be odd"),
    "conv1d-feature-width": (lambda: ad.conv1d(np.ones((4, 3)), np.ones((3, 2, 2))), ShapeError,
                             "feature dims disagree: input 3, kernel 2"),
    "item-non-scalar": (lambda: Tensor(np.ones(2)).item(), ShapeError, r"expected a scalar tensor, got shape \(2,\)"),
}


@pytest.mark.parametrize("call, error, match", REFUSALS.values(), ids=REFUSALS)
def test_refusals_raise_their_named_error(call, error, match):
    with pytest.raises(error, match=match):
        call()


# ---------------------------------------------------------------------------
# closed forms and tape semantics


def test_softmax_rows_sum_to_one_and_masked_entries_vanish():
    x = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
    masked = x + np.array([[0.0, 0.0, -1e9], [0.0, 0.0, 0.0]])
    with Tape():
        s = ad.softmax(Tensor(masked), axis=-1)
    assert np.allclose(s.data.sum(axis=-1), 1.0, atol=1e-12)
    assert s.data[0, 2] == 0.0  # -1e9 underflows to an exact zero weight


def test_logsumexp_matches_numpy_reference():
    r = rng_for(3)
    x = r.normal(size=(4, 6)) * 50.0  # large scale; naive exp would overflow at /t
    got = ad.logsumexp(Tensor(x), axis=1).data
    ref = np.log(np.exp(x - x.max(axis=1, keepdims=True)).sum(axis=1)) + x.max(axis=1)
    assert np.allclose(got, ref, atol=1e-12)


def test_max_over_axis_breaks_ties_toward_lowest_index():
    x = Tensor(np.array([[2.0, 5.0, 5.0], [7.0, 1.0, 7.0]]))
    with Tape() as tape:
        vals = ad.max_over_axis(x, axis=1)
        tape.backward(ad.sum_(ad.mul(vals, np.array([2.0, 3.0]))))
    assert np.array_equal(vals.data, [5.0, 7.0])
    assert np.array_equal(tape.grad(x), [[0.0, 2.0, 0.0], [3.0, 0.0, 0.0]])


def test_two_paths_accumulate_gradients():
    # y = x*x + 3x => dy/dx = 2x + 3; x feeds two records
    x = Tensor(np.array(2.0))
    with Tape() as tape:
        y = ad.add(ad.mul(x, x), ad.mul(x, 3.0))
        tape.backward(y)
        g = tape.grad(x)
    assert abs(float(g) - 7.0) < 1e-12


def test_zero_norm_rows_are_fixed_points():
    x = np.zeros((2, 3))
    x[1] = [3.0, 0.0, 4.0]
    out = ad.l2_normalize(Tensor(x)).data
    assert np.array_equal(out[0], np.zeros(3))
    assert np.allclose(np.linalg.norm(out[1]), 1.0)


def test_non_finite_forward_raises():
    with np.errstate(divide="ignore", over="ignore"):
        with pytest.raises(NonFiniteError):
            ad.log(Tensor(np.array([0.0])))
        with pytest.raises(NonFiniteError):
            ad.exp(Tensor(np.array([1e4])))


def test_finite_check_does_no_arithmetic_on_values():
    # a sum of the values would warn on inf - inf and overflow on large finite values
    with warnings.catch_warnings(), np.errstate(all="warn"):
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError):
            ad.mul(Tensor([np.inf, -np.inf]), 1.0)
        out = ad.mul(Tensor([1.5e308, 1.5e308]), 1.0)
    assert np.array_equal(out.data, [1.5e308, 1.5e308])


def test_backward_requires_scalar_and_runs_once():
    x = Tensor(np.ones(3))
    with Tape() as tape:
        y = ad.mul(x, 2.0)
        with pytest.raises(ShapeError):
            tape.backward(y)
        z = ad.sum_(y)
        tape.backward(z)
        with pytest.raises(RuntimeError):
            tape.backward(z)


def test_nested_tapes_rejected():
    with Tape():
        with pytest.raises(RuntimeError):
            with Tape():
                pass


def test_grad_of_unreached_tensor_is_zeros():
    x = Tensor(np.ones((2, 2)))
    unused = Tensor(np.ones(3))
    with Tape() as tape:
        tape.backward(ad.sum_(x))
        assert np.array_equal(tape.grad(unused), np.zeros(3))


def test_grad_of_a_reached_tensor_builds_no_zeros(monkeypatch):
    x = Tensor(np.ones((2, 2)))
    with Tape() as tape:
        tape.backward(ad.sum_(ad.mul(x, 3.0)))
    monkeypatch.setattr(np, "zeros_like", lambda *args, **kwargs: pytest.fail("zeros built for a reached tensor"))
    assert np.array_equal(tape.grad(x), np.full((2, 2), 3.0))


def test_backward_keeps_leaf_gradients_only():
    x = Tensor(np.ones((2, 2)))
    with Tape() as tape:
        h = ad.mul(x, 3.0)
        tape.backward(ad.sum_(h))
    assert np.array_equal(tape.grad(x), np.full((2, 2), 3.0))
    assert np.array_equal(tape.grad(h), np.zeros((2, 2)))  # freed once its record's pairs ran


# ---------------------------------------------------------------------------
# what a tape keeps alive until backward

# ops whose backward reads no array of the intermediate input x [2, 5, 3]; `c` is a leaf of x's shape
DROPPED_INPUTS = {
    "add-residual": lambda x, c: ad.add(c, x),
    "relu": lambda x, c: ad.relu(x),
    "max_over_axis": lambda x, c: ad.max_over_axis(x, 1),
}


@pytest.mark.parametrize("name", DROPPED_INPUTS)
def test_an_input_backward_does_not_read_is_freed_once_the_caller_drops_it(name):
    r = rng_for(5)
    leaf, c = Tensor(r.normal(size=(2, 5, 3))), Tensor(r.normal(size=(2, 5, 3)))

    def run(keep):
        with Tape() as tape:
            x = ad.mul(leaf, 3.0)
            ref = weakref.ref(x.data)
            out = DROPPED_INPUTS[name](x, c)
            kept = x if keep else None
            del x
            alive = ref() is not None
            tape.backward(ad.sum_(ad.pow_const(out, 2.0)))
        del kept
        return alive, tape.grad(leaf), tape.grad(c)

    (freed_alive, *freed_grads), (kept_alive, *kept_grads) = run(keep=False), run(keep=True)
    assert not freed_alive and kept_alive
    assert all(np.array_equal(g, w) for g, w in zip(freed_grads, kept_grads))
    assert np.abs(freed_grads[0]).sum() > 0.0  # x's producer passed its gradient on to the leaf


@pytest.mark.parametrize("name", DROPPED_INPUTS)
def test_a_dropped_intermediates_producer_passes_its_gradient_on(name):
    r = rng_for(6)
    c = r.normal(size=(2, 5, 3))
    # the intermediate is never bound, so its Tensor is gone before backward
    assert fd_check(lambda leaf: ad.sum_(ad.pow_const(DROPPED_INPUTS[name](ad.mul(leaf, 3.0), c), 2.0)),
                    [r.normal(size=(2, 5, 3))]) < RTOL


def test_conv1d_frees_its_padded_copy_before_backward_and_pads_again(monkeypatch):
    padded, pad_seq = [], ad._pad_seq

    def spy(*args, **kwargs):
        out = pad_seq(*args, **kwargs)
        padded.append(weakref.ref(out))
        return out

    monkeypatch.setattr(ad, "_pad_seq", spy)
    r = rng_for(7)
    x, kernel = Tensor(r.normal(size=(2, 5, 3))), Tensor(r.normal(size=(3, 3, 2)))
    with Tape() as tape:
        loss = ad.sum_(ad.pow_const(ad.conv1d(x, kernel), 2.0))
        assert len(padded) == 1 and padded[0]() is None
        tape.backward(loss)
    assert len(padded) == 2  # the kernel's gradient padded x again
    assert fd_check(lambda xt, kt: ad.sum_(ad.pow_const(ad.conv1d(xt, kt), 2.0)), [x.data, kernel.data]) < RTOL


def _held(record, name):
    """The value that a function of `record` closes over under `name`."""
    return next(cell.cell_contents for _, fn in record[1]
                for var, cell in zip(fn.__code__.co_freevars, fn.__closure__ or ()) if var == name)


@pytest.mark.parametrize("op, name", [
    (lambda x: ad.attention(x, x, x, 2, _KEYS), "probs"),
    (lambda x: ad.layer_norm(x, Tensor(np.ones(8)), Tensor(np.zeros(8))), "xc"),
], ids=["attention-probs", "layer_norm-xc"])
def test_what_backward_reads_stays_alive_until_backward_frees_its_record(op, name):
    leaf = Tensor(rng_for(8).normal(size=(2, 7, 8)))
    with Tape() as tape:
        out = op(ad.mul(leaf, 1.5))
        ref = weakref.ref(_held(tape._records[-1], name))
        loss = ad.sum_(ad.pow_const(out, 2.0))
        del out
        gc.collect()
        assert ref() is not None
        tape.backward(loss)
    assert ref() is None


# ---------------------------------------------------------------------------
# op contract: what each public op puts on the tape

_R = rng_for(11)
_A, _B = _R.normal(size=(2, 3)), _R.normal(size=(2, 3))
_SEQ, _KERNEL, _BIAS = _R.normal(size=(2, 5, 3)), _R.normal(size=(3, 3, 2)), _R.normal(size=(2,))
_MASK = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 1.0, 1.0, 1.0]])

# (op name, "+bias" for conv1d with a bias; call building its inputs with `v`; tape records it adds on
# Tensor inputs)
OP_CALLS = [
    ("add", lambda v: ad.add(v(_A), v(_B)), 1),
    ("sub", lambda v: ad.sub(v(_A), v(_B)), 1),
    ("mul", lambda v: ad.mul(v(_A), v(_B)), 1),
    ("pow_const", lambda v: ad.pow_const(v(_A), 2.0), 1),
    ("relu", lambda v: ad.relu(v(_A)), 1),
    ("exp", lambda v: ad.exp(v(_A)), 1),
    ("log", lambda v: ad.log(v(np.abs(_A) + 0.5)), 1),
    ("matmul", lambda v: ad.matmul(v(_A), v(_B.T)), 1),
    ("linear", lambda v: ad.linear(v(_SEQ), v(_KERNEL[0]), v(_BIAS)), 1),
    ("sum_", lambda v: ad.sum_(v(_A), axis=1), 1),
    ("mean", lambda v: ad.mean(v(_A)), 1),
    ("max_over_axis", lambda v: ad.max_over_axis(v(_A), axis=1), 1),
    ("softmax", lambda v: ad.softmax(v(_A)), 1),
    ("logsumexp", lambda v: ad.logsumexp(v(_A)), 1),
    ("reshape", lambda v: ad.reshape(v(_A), (6,)), 1),
    ("swapaxes", lambda v: ad.swapaxes(v(_A), 0, 1), 1),
    ("concat", lambda v: ad.concat([v(_A), v(_B), v(_A)], axis=0), 1),
    ("slice_axis", lambda v: ad.slice_axis(v(_A), 1, 0, 2), 1),
    ("take", lambda v: ad.take(v(_A), [1, 0, 1]), 1),
    ("l2_normalize", lambda v: ad.l2_normalize(v(_A)), 1),
    ("layer_norm", lambda v: ad.layer_norm(v(_SEQ), v(_A[0]), v(_B[0])), 1),
    ("attention", lambda v: ad.attention(v(_SEQ), v(_SEQ[:, 1:]), v(_SEQ[:, :4]), 3, _MASK), 1),
    ("conv1d", lambda v: ad.conv1d(v(_SEQ), v(_KERNEL)), 1),
    ("conv1d+bias", lambda v: ad.conv1d(v(_SEQ), v(_KERNEL), v(_BIAS)), 1),
    ("bce_with_logits", lambda v: ad.bce_with_logits(v(_A), (_B > 0).astype(float)), 1),
]
_IDS = [f"{name}-{records}" for name, _, records in OP_CALLS]


def test_op_calls_cover_every_public_op():
    public = {name for name, fn in vars(ad).items()
              if callable(fn) and not isinstance(fn, type) and not name.startswith("_")
              and getattr(fn, "__module__", None) == ad.__name__}
    assert public == {name.split("+")[0] for name, _, _ in OP_CALLS}


@pytest.mark.parametrize("name, call, records", OP_CALLS, ids=_IDS)
def test_op_adds_its_tape_records(name, call, records):
    with Tape() as tape:
        call(Tensor)
    assert len(tape._records) == records


@pytest.mark.parametrize("name, call, records", OP_CALLS, ids=_IDS)
def test_op_on_constants_adds_no_record(name, call, records):
    with Tape() as tape:
        call(np.asarray)
    assert tape._records == []


def test_op_without_tape_records_nothing(monkeypatch):
    def fail(*args):
        raise AssertionError("Tape.record called without an active tape")

    monkeypatch.setattr(Tape, "record", fail)
    for _, call, _ in OP_CALLS:
        call(Tensor)


@pytest.mark.parametrize("name, call, records", OP_CALLS, ids=_IDS)
def test_op_without_tape_has_the_bits_of_the_taped_op(name, call, records):
    free = call(Tensor).data
    with Tape():
        taped = call(Tensor).data
    assert free.dtype == taped.dtype and np.array_equal(free, taped)


@pytest.mark.parametrize("name, call, records", OP_CALLS, ids=_IDS)
def test_op_without_tape_raises_on_a_nan_input(name, call, records):
    def with_nan(a):
        out = np.array(a, dtype=np.float64)
        out.flat[0] = np.nan
        return Tensor(out)

    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteError):
        call(with_nan)


@pytest.mark.parametrize("name, call, records", OP_CALLS, ids=_IDS)
def test_op_without_tape_builds_no_backward_state(monkeypatch, name, call, records):
    built, op = [], ad._op

    def spy(value, pairs, *args):
        def build(*args):
            built.append(name)
            return pairs(*args)

        return op(value, build, *args)

    monkeypatch.setattr(ad, "_op", spy)
    call(Tensor)
    assert built == []  # no pair, gradient function or backward-only array was made
    with Tape():
        call(Tensor)
    assert built == [name]


class _CountsComparisons(np.ndarray):
    comparisons = 0

    def __gt__(self, other):
        _CountsComparisons.comparisons += 1
        return super().__gt__(other)


def test_relu_without_tape_builds_no_mask():
    x = Tensor(_A)
    x.data = _A.view(_CountsComparisons)
    _CountsComparisons.comparisons = 0
    ad.relu(x)
    assert _CountsComparisons.comparisons == 0
    with Tape():
        ad.relu(x)
    assert _CountsComparisons.comparisons == 1  # the mask `x > 0` that backward reads


def test_non_finite_op_adds_no_record():
    with Tape() as tape, np.errstate(divide="ignore", over="ignore"):
        with pytest.raises(NonFiniteError):
            ad.log(Tensor(np.array([0.0])))
        with pytest.raises(NonFiniteError):
            ad.exp(Tensor(np.array([1000.0])))
    assert tape._records == []


# a NaN in one input of each fused op
NON_FINITE_FUSED = {
    "linear": lambda nan: ad.linear(Tensor(_SEQ), Tensor(_KERNEL[0]), Tensor(nan(_BIAS))),
    "layer_norm": lambda nan: ad.layer_norm(Tensor(nan(_SEQ)), Tensor(_A[0]), Tensor(_B[0])),
    "attention": lambda nan: ad.attention(Tensor(_SEQ), Tensor(nan(_SEQ[:, 1:])), Tensor(_SEQ[:, :4]), 3, _MASK),
}


@pytest.mark.parametrize("name", NON_FINITE_FUSED)
def test_fused_op_on_non_finite_input_raises_and_adds_no_record(name):
    def nan(a):
        out = a.copy()
        out.flat[0] = np.nan
        return out

    with Tape() as tape, np.errstate(invalid="ignore"):
        with pytest.raises(NonFiniteError):
            NON_FINITE_FUSED[name](nan)
    assert tape._records == []


# ---------------------------------------------------------------------------
# optimizer


def test_adamw_first_step_hand_check():
    # With m_hat = g and v_hat = g^2 after bias correction, the first step is
    # p - lr*g/(|g|+eps) - lr*wd*p = 1 - 0.1*1/(1+1e-8) - 0.1*0.5*1.
    p = Params()
    p.add("w", np.array([1.0]))
    opt = AdamW(p, lr=0.1, weight_decay=0.5)
    opt.step({"w": np.array([1.0])})
    expected = 1.0 - 0.1 * (1.0 / (1.0 + 1e-8)) - 0.1 * 0.5 * 1.0
    assert abs(p["w"].data[0] - expected) < 1e-12


def test_adamw_decoupled_decay_moves_zero_grad_param():
    p = Params()
    p.add("w", np.array([2.0]))
    opt = AdamW(p, lr=0.1, weight_decay=0.1)
    opt.step({"w": np.array([0.0])})
    assert abs(p["w"].data[0] - (2.0 - 0.1 * 0.1 * 2.0)) < 1e-12


def test_adamw_step_needs_every_gradient():
    p = Params()
    p.add("w", np.array([1.0]))
    with pytest.raises(KeyError):
        AdamW(p).step({})
    assert p["w"].data[0] == 1.0


def test_adamw_converges_on_quadratic():
    p = Params()
    p.add("w", np.array([5.0]))
    opt = AdamW(p, lr=0.2, weight_decay=0.0)
    for _ in range(200):
        opt.step({"w": 2.0 * p["w"].data})  # d/dw w^2
    assert abs(p["w"].data[0]) < 1e-2


def test_training_step_is_deterministic():
    def run():
        r = rng_for(11)
        p = Params()
        p.add("w", r.normal(size=(4, 4)))
        opt = AdamW(p, lr=1e-3)
        x = r.normal(size=(2, 4))
        for _ in range(5):
            with Tape() as tape:
                loss = ad.sum_(ad.pow_const(ad.matmul(Tensor(x), p["w"]), 2.0))
                tape.backward(loss)
                opt.step({"w": tape.grad(p["w"])})
        return p["w"].data.copy()

    assert np.array_equal(run(), run())
