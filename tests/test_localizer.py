"""Localizer: gates, fusion, boundary heads, Shared-Norm and adversarial
losses, span utilities, and negative-moment mining."""

import numpy as np
import pytest

from conftest import RTOL, fd_check_params, shared_norm_loss
from vcmr import autodiff as ad
from vcmr import localizer as L
from vcmr.autodiff import Tape, Tensor
from vcmr.spans import iou, sample_positive_spans, top_spans

D = 8


def make_model(seed=0, **overrides):
    cfg = L.LocalizerConfig(hidden=D, intermediate=16, heads=2, **overrides)
    return L.LocalizerModel(d_txt=6, d_img=6, d_sub=6, config=cfg, seed=seed)


def rand(shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape)


# ---------------------------------------------------------------------------
# span utilities


def test_iou_worked_example():
    gt = (5, 8)
    expected = {(5, 8): 1.0, (4, 8): 0.8, (5, 7): 0.75, (6, 8): 0.75, (5, 9): 0.8}
    for span, value in expected.items():
        assert abs(iou(span, gt) - value) < 1e-12
    assert set(sample_positive_spans(gt, 16)) == set(expected)


def test_iou_properties():
    r = np.random.default_rng(0)
    for _ in range(50):
        a = tuple(sorted(r.integers(0, 12, size=2)))
        b = tuple(sorted(r.integers(0, 12, size=2)))
        assert iou(a, b) == iou(b, a)
        assert 0.0 <= iou(a, b) <= 1.0
        assert iou(a, a) == 1.0


def test_positive_spans_single_clip_gt_is_alone():
    assert sample_positive_spans((3, 3), 10) == [(3, 3)]


def test_positive_spans_depend_only_on_indices():
    assert sample_positive_spans((5, 8), 16) == sample_positive_spans((5, 8), 16)
    assert (5, 8) in sample_positive_spans((5, 8), 16)


# ---------------------------------------------------------------------------
# gates and fusion


def test_gate_zero_query_annihilates_stream():
    model = make_model()
    img = Tensor(rand((1, 3, D), 1))
    sub = Tensor(rand((1, 3, D), 2))
    zero_q = Tensor(np.zeros((1, D)))
    some_q = Tensor(rand((1, D), 3))
    g_img, g_sub = model.apply_gates(img, sub, zero_q, some_q)
    assert np.array_equal(g_img.data, np.zeros((1, 3, D)))
    assert not np.allclose(g_sub.data, 0.0)


def test_gate_identity_one_hot_algebra():
    model = make_model()
    model.params["gate.w_img"].data[:] = np.eye(D)
    one_hot = np.zeros((1, 1, D))
    one_hot[0, 0, 2] = 1.0
    ones_q = Tensor(np.ones((1, D)))
    g_img, _ = model.apply_gates(Tensor(one_hot), Tensor(one_hot.copy()), ones_q, ones_q)
    assert np.allclose(g_img.data, one_hot, atol=1e-12)


def test_gate_gradients_match_fd():
    model = make_model()
    img = rand((1, 3, D), 4)
    sub = rand((1, 3, D), 5)
    q = rand((1, D), 6)

    def loss_fn():
        g_img, g_sub = model.apply_gates(Tensor(img), Tensor(sub), Tensor(q), Tensor(q))
        return ad.sum_(ad.pow_const(ad.add(g_img, g_sub), 2.0))

    err = fd_check_params(loss_fn, model.params, sample=3,
                          names={"gate.w_img", "gate.w_sub"})
    assert err < RTOL


def test_fuse_clips_selects_modality_under_projection():
    model = make_model()
    model.params["fuse.w"].data[:] = np.vstack([np.eye(D), np.zeros((D, D))])
    model.params["fuse.b"].data[:] = 0.0
    img = rand((1, 4, D), 7)
    fused = model.fuse_clips(Tensor(img), Tensor(rand((1, 4, D), 8)))
    assert np.allclose(fused.data, img, atol=1e-12)
    model.params["fuse.w"].data[:] = 0.0
    fused = model.fuse_clips(Tensor(img), Tensor(rand((1, 4, D), 8)))
    assert np.array_equal(fused.data, np.zeros((1, 4, D)))


def test_fuse_clips_rejects_length_mismatch():
    model = make_model()
    with pytest.raises(ad.ShapeError):
        model.fuse_clips(Tensor(rand((1, 4, D))), Tensor(rand((1, 3, D))))


def test_fuse_with_query_cross_attention_is_live():
    model = make_model()
    fused = rand((1, 1, D), 9)  # degenerate: single clip, single token
    tokens = rand((1, 1, D), 10)
    out = model.fuse_with_query(Tensor(fused), Tensor(tokens), np.ones((1, 1)), np.ones((1, 1)))
    assert np.all(np.isfinite(out.data))
    out2 = model.fuse_with_query(Tensor(fused), Tensor(np.zeros((1, 1, D))), np.ones((1, 1)), np.ones((1, 1)))
    assert not np.allclose(out.data, out2.data)


def test_fuse_with_query_grads_reach_both_inputs():
    model = make_model()
    fused = Tensor(rand((1, 2, D), 11))
    tokens = Tensor(rand((1, 3, D), 12))
    with Tape() as tape:
        out = model.fuse_with_query(fused, tokens, np.ones((1, 3)), np.ones((1, 2)))
        tape.backward(ad.sum_(ad.pow_const(out, 2.0)))
        assert np.any(tape.grad(fused) != 0.0)
        assert np.any(tape.grad(tokens) != 0.0)


# ---------------------------------------------------------------------------
# boundary heads


def test_boundary_scores_single_clip():
    model = make_model()
    l_st, l_ed = model.boundary_scores(Tensor(rand((1, 1, D), 13)), np.ones((1, 1)))
    assert l_st.shape == (1, 1) and l_ed.shape == (1, 1)


def test_boundary_scores_shift_equivariant_in_interior():
    model = make_model()
    n = 10
    x = rand((1, n, D), 14)
    shifted = np.zeros_like(x)
    shifted[0, 1:] = x[0, : n - 1]
    base_st, _ = model.boundary_scores(Tensor(x), np.ones((1, n)))
    shift_st, _ = model.boundary_scores(Tensor(shifted), np.ones((1, n)))
    # receptive field is 5 clips; positions clear of both zero-padded borders
    # must shift along with the input
    assert np.allclose(shift_st.data[0, 3:8], base_st.data[0, 2:7], atol=1e-10)


def test_boundary_head_gradients_match_fd():
    model = make_model()
    x = rand((1, 4, D), 15)

    def loss_fn():
        l_st, l_ed = model.boundary_scores(Tensor(x), np.ones((1, 4)))
        return ad.sum_(ad.pow_const(ad.add(l_st, l_ed), 2.0))

    names = {n for n in model.params.names() if n.startswith("head.")}
    assert fd_check_params(loss_fn, model.params, sample=2, names=names) < RTOL


# ---------------------------------------------------------------------------
# shared-norm loss


def test_shared_norm_single_clip_no_negatives_is_zero():
    loss = shared_norm_loss(Tensor([1.7]), Tensor([-0.3]), [], [], (0, 0))
    assert abs(loss.item()) < 1e-12


def test_shared_norm_uniform_two_clips_is_2ln2():
    loss = shared_norm_loss(Tensor([0.4, 0.4]), Tensor([0.4, 0.4]), [], [], (0, 1))
    assert abs(loss.item() - 2 * np.log(2.0)) < 1e-12


def test_shared_norm_matches_direct_formula_with_negatives():
    r = np.random.default_rng(16)
    pos_st, pos_ed = r.normal(size=4), r.normal(size=4)
    negs_st = [r.normal(size=3), r.normal(size=5)]
    negs_ed = [r.normal(size=3), r.normal(size=5)]
    gt = (1, 2)
    loss = shared_norm_loss(
        Tensor(pos_st), Tensor(pos_ed),
        [Tensor(a) for a in negs_st], [Tensor(a) for a in negs_ed], gt,
    )
    all_st = np.concatenate([pos_st] + negs_st)
    all_ed = np.concatenate([pos_ed] + negs_ed)

    def ce(scores, target):
        m = scores.max()
        return float(np.log(np.exp(scores - m).sum()) + m - scores[target])

    expected = ce(all_st, gt[0]) + ce(all_ed, gt[1])
    assert abs(loss.item() - expected) < 1e-12
    # the implied softmax over concatenated clips sums to 1
    probs = np.exp(all_st - all_st.max())
    assert abs(probs.sum() / probs.sum() - 1.0) < 1e-12


def test_shared_norm_rejects_bad_span():
    with pytest.raises(ValueError):
        shared_norm_loss(Tensor([0.0, 0.0]), Tensor([0.0, 0.0]), [], [], (0, 5))


# ---------------------------------------------------------------------------
# adversarial branch


def test_adversarial_zeroed_classifier_gives_ln2():
    model = make_model()
    model.params["adv.fc3.w"].data[:] = 0.0
    model.params["adv.fc3.b"].data[:] = 0.0
    adv_out = model.adv_layer(Tensor(rand((2, 5, D), 17)), np.ones((2, 5)))
    loss = L.adversarial_loss(model, adv_out, [(0, (0, 1))], [(1, (2, 4))])
    assert abs(loss.item() - np.log(2.0)) < 1e-9


def test_adversarial_duplicate_span_bounded_below_by_ln2():
    model = make_model()
    adv_out = model.adv_layer(Tensor(rand((1, 4, D), 18)), np.ones((1, 4)))
    loss = L.adversarial_loss(model, adv_out, [(0, (1, 2))], [(0, (1, 2))])
    assert loss.item() >= np.log(2.0) - 1e-12


def test_adversarial_requires_both_sides():
    model = make_model()
    adv_out = model.adv_layer(Tensor(rand((1, 4, D), 19)), np.ones((1, 4)))
    with pytest.raises(ValueError):
        L.adversarial_loss(model, adv_out, [], [(0, (0, 0))])


def test_adversarial_gradients_match_fd():
    model = make_model()
    fused = rand((2, 4, D), 20)

    def loss_fn():
        adv_out = model.adv_layer(Tensor(fused), np.ones((2, 4)))
        return L.adversarial_loss(model, adv_out, [(0, (0, 1)), (0, (1, 2))], [(1, (0, 3))])

    names = {n for n in model.params.names() if n.startswith("adv.")}
    assert fd_check_params(loss_fn, model.params, sample=2, names=names) < RTOL


# ---------------------------------------------------------------------------
# total loss


def test_total_loss_arithmetic():
    # L_st + L_ed = 1.0 + 2.0, gamma * L_c = 0.8 * 0.5 -> 3.4
    total = L.total_loss(Tensor(np.array(3.0)), Tensor(np.array(0.5)), gamma=0.8)
    assert abs(total.item() - 3.4) < 1e-12


def test_total_loss_gamma_zero_equals_boundary():
    boundary = Tensor(np.array(1.25))
    assert L.total_loss(boundary, Tensor(np.array(9.0)), gamma=0.0).item() == 1.25


def test_total_loss_gradient_linearity():
    b = Tensor(np.array(1.0))
    a = Tensor(np.array(2.0))
    with Tape() as tape:
        tape.backward(L.total_loss(b, a, gamma=0.8))
        assert float(tape.grad(b)) == 1.0
        assert abs(float(tape.grad(a)) - 0.8) < 1e-12


# ---------------------------------------------------------------------------
# negative-moment mining


def test_mining_two_clip_video_returns_all_three_ordered():
    spans = top_spans([0.5, 0.1], [0.2, 0.9], 1, 24, k=5)
    assert set(spans) == {(0, 0), (0, 1), (1, 1)}
    scores = [0.5 + 0.2, 0.5 + 0.9, 0.1 + 0.9]  # (0,0), (0,1), (1,1)
    order = sorted(zip(spans, [dict(zip([(0, 0), (0, 1), (1, 1)], scores))[s] for s in spans]),
                   key=lambda t: -t[1])
    assert spans == [s for s, _ in order]


def test_mining_matches_brute_force_ordering():
    r = np.random.default_rng(21)
    for _ in range(10):
        n = int(r.integers(3, 9))
        l_st, l_ed = r.normal(size=n), r.normal(size=n)
        got = top_spans(l_st, l_ed, 1, 4, k=5)
        ref = sorted(
            ((st, ed) for st in range(n) for ed in range(st, min(n, st + 4))),
            key=lambda s: (-(l_st[s[0]] + l_ed[s[1]]), s),
        )[:5]
        assert got == ref


def test_mining_short_video_never_empty():
    spans = top_spans([0.3], [0.1], min_len=3, max_len=7, k=5)
    assert spans == [(0, 0)]
