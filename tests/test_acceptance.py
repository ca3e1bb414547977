"""Acceptance criteria for the full system.

Each test prints exactly one PASS/FAIL line (written straight to the real
stdout so it shows up under pytest capture). Criteria 6 and 7 carry
non-blocking sub-trends: their lines report the observed direction, and only
the blocking part (pooling ablation) can fail the test.
"""

import dataclasses
import json
import sys
import time

import numpy as np
import pytest

from conftest import fd_check, fd_check_params, pad_pairs, reference_score, shared_norm_loss
from test_pipeline import brute_force_infer, independent_moment_recall
from vcmr import autodiff as ad
from vcmr import cli
from vcmr import corpus as C
from vcmr import localizer as L
from vcmr import pipeline as P
from vcmr import retriever as R
from vcmr.autodiff import Tensor
from vcmr.localizer import LocalizerConfig
from vcmr.retriever import RetrieverConfig
from vcmr.spans import iou, sample_positive_spans, top_spans


def report(num, name, ok, detail):
    line = f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} -- {detail}\n"
    sys.__stdout__.write(line)
    sys.__stdout__.flush()
    return ok


def tiny_corpus(seed, videos=6, clips=6, qpv=1):
    return C.generate(C.SyntheticSpec(
        video_count=videos, clips_per_video=clips, queries_per_video=qpv,
        d_img=6, d_sub=6, d_txt=6, token_count_range=(3, 5), seed=seed))


def tiny_models(seed):
    rcfg = RetrieverConfig(hidden=8, intermediate=16, heads=2)
    lcfg = LocalizerConfig(hidden=8, intermediate=16, heads=2)
    retr = R.RetrieverModel(6, 6, 6, rcfg, seed=seed)
    loc = L.LocalizerModel(6, 6, 6, lcfg, seed=seed)
    return retr, loc


def frozen_total_loss(loc, corpus, queries, negatives, gamma):
    """Total localizer objective rebuilt from its parts with the adversarial
    moment set fixed.

    Negative moments are mined once from the initial boundary scores and held
    constant, so the objective is smooth in the parameters and finite
    differences are valid.
    """
    rows, groups = P._localizer_rows(corpus, queries, negatives)
    tokens, token_mask, images, subs, clip_mask = pad_pairs(rows)
    n = clip_mask.shape[1]

    def forward():
        token_reps = loc.encode_tokens(tokens, token_mask)
        img_r, sub_r = loc.encode_video_batch(images, subs, clip_mask)
        return loc.forward_rows(token_reps, token_mask, img_r, sub_r, clip_mask)

    l_st0, l_ed0, _ = forward()
    positives, neg_items = [], []
    for query, row_ids in zip(queries, groups):
        for span in sample_positive_spans(query.span, n):
            positives.append((row_ids[0], span))
        for ri in row_ids[1:]:
            mined = top_spans(l_st0.data[ri], l_ed0.data[ri], 1, n, k=2)
            neg_items.extend((ri, span) for span in mined)

    def loss_fn():
        l_st, l_ed, fused = forward()
        terms = []
        for query, row_ids in zip(queries, groups):
            row = lambda t, ri: ad.reshape(ad.slice_axis(t, 0, ri, ri + 1), (n,))
            terms.append(shared_norm_loss(
                row(l_st, row_ids[0]), row(l_ed, row_ids[0]),
                [row(l_st, ri) for ri in row_ids[1:]],
                [row(l_ed, ri) for ri in row_ids[1:]],
                query.span))
        boundary = ad.mul(ad.sum_(ad.concat([ad.reshape(t, (1,)) for t in terms])), 1.0 / len(terms))
        adv = L.adversarial_loss(loc, loc.adv_layer(fused, clip_mask), positives, neg_items)
        return L.total_loss(boundary, adv, gamma=gamma)

    return loss_fn


# ---------------------------------------------------------------------------


def test_criterion_1_gradient_integrity():
    t0 = time.monotonic()
    worst = 0.0
    for seed in range(5):
        r = np.random.default_rng(seed)
        rng = np.random.default_rng(100 + seed)
        a = r.normal(size=(2, 3))
        b = r.normal(size=(3, 4))
        kernel = r.normal(size=(3, 3, 2))
        # representative op-level graphs (each op also unit-tested separately)
        op_cases = [
            (lambda x, y: ad.sum_(ad.mul(ad.softmax(ad.matmul(x, y)), 2.0)), [a, b]),
            (lambda x: ad.sum_(ad.logsumexp(x, axis=1)), [a]),
            (lambda x: ad.sum_(ad.pow_const(ad.l2_normalize(x), 3.0)), [a]),
            (lambda x: ad.sum_(ad.relu(ad.conv1d(x, kernel))), [r.normal(size=(1, 5, 3))]),
            (lambda x: ad.mean(ad.bce_with_logits(x, np.array([1.0, 0.0, 1.0]))), [r.normal(size=(3,))]),
        ]
        for build, arrays in op_cases:
            worst = max(worst, fd_check(build, arrays))

        corpus = tiny_corpus(seed, videos=5, qpv=1)
        retr, loc = tiny_models(seed)
        # evaluate at a generic point: zero-initialized biases put ReLU
        # pre-activations exactly on the kink, where central differences and
        # the subgradient legitimately disagree
        for model in (retr, loc):
            for _, t in model.params.items():
                t.data += r.normal(0.0, 0.01, size=t.data.shape)

        # retriever contrastive objective
        batch = R.make_batch(corpus, [0, 1, 2])
        worst = max(worst, fd_check_params(
            lambda: R.contrastive_loss(retr, batch, temperature=0.5),
            retr.params, sample=1, rng=rng))

        # shared-norm boundary loss, direct over score inputs
        pos_st, pos_ed = r.normal(size=4), r.normal(size=4)
        neg = r.normal(size=(2, 3))
        worst = max(worst, fd_check(
            lambda ps, pe, n0, n1: shared_norm_loss(ps, pe, [n0], [n1], (1, 2)),
            [pos_st, pos_ed, neg[0], neg[1]]))

        # adversarial BCE through the adversarial transformer + classifier
        fused = r.normal(size=(2, 4, 8))
        worst = max(worst, fd_check_params(
            lambda: L.adversarial_loss(loc, loc.adv_layer(Tensor(fused), np.ones((2, 4))),
                                       [(0, (0, 1))], [(1, (2, 3))]),
            loc.params, sample=1, rng=rng,
            names={n for n in loc.params if n.startswith("adv.")}))

        # total localizer objective over the full forward graph,
        # independently re-derived with the dynamic negative-moment set
        # frozen (the mining selection itself carries no gradients)
        negatives = {q.id: [v.id for v in corpus.videos if v.id != q.target_video][:1]
                     for q in corpus.queries}
        queries = corpus.queries[:2]
        worst = max(worst, fd_check_params(
            frozen_total_loss(loc, corpus, queries, negatives, gamma=0.8),
            loc.params, sample=1, rng=rng))

    elapsed = time.monotonic() - t0
    ok = worst < 1e-4 and elapsed < 60.0
    assert report(1, "gradient integrity", ok,
                  f"max rel err {worst:.2e} (<1e-4), runtime {elapsed:.1f}s (<60s), 5 seeds")


def test_criterion_2_closed_form_losses():
    # equal-logit InfoNCE with one negative, t = 0.01
    s = 0.37
    t = 0.01
    logits = Tensor(np.array([[s / t, s / t]]))
    info_nce = float(ad.logsumexp(logits, axis=1).data[0]) - s / t
    err_nce = abs(info_nce - np.log(2.0))

    # single-clip shared-norm loss, no negatives
    sn = shared_norm_loss(Tensor([2.3]), Tensor([-1.1]), [], [], (0, 0)).item()

    # zeroed classifier BCE
    _, loc = tiny_models(0)
    loc.params["adv.fc3.w"].data[:] = 0.0
    loc.params["adv.fc3.b"].data[:] = 0.0
    adv_out = loc.adv_layer(Tensor(np.random.default_rng(0).normal(size=(1, 4, 8))), np.ones((1, 4)))
    bce = L.adversarial_loss(loc, adv_out, [(0, (0, 1))], [(0, (2, 3))]).item()
    err_bce = abs(bce - np.log(2.0))

    ok = err_nce < 1e-9 and abs(sn) < 1e-12 and err_bce < 1e-9
    assert report(2, "closed-form losses", ok,
                  f"InfoNCE err {err_nce:.1e} (<1e-9), shared-norm {abs(sn):.1e} (<1e-12), "
                  f"BCE err {err_bce:.1e} (<1e-9)")


def test_criterion_3_worked_example():
    spans = set(sample_positive_spans((5, 8), 16))
    expected = {(5, 8), (4, 8), (5, 7), (6, 8), (5, 9)}
    v = iou((5, 8), (5, 7))
    ok = spans == expected and v == 0.75
    assert report(3, "worked example", ok,
                  f"positive spans {sorted(spans)}, iou([5,8],[5,7]) = {v}")


def test_criterion_4_oracle_equivalence():
    mismatches = []
    for i in range(20):
        corpus = tiny_corpus(seed=50 + i, videos=5, clips=6, qpv=1)
        retr, loc = tiny_models(50 + i)
        icfg = P.InferenceConfig(top_k_videos=3, moment_max_len=6, results_per_query=15)
        index = R.encode_corpus(retr, corpus)
        for q in corpus.queries[:2]:
            # retrieval ranking vs brute-force sort
            reps = R.encode_query(retr, q)
            ref_rank = sorted(
                ((v.id, reference_score(reps, *R.encode_video(retr, v))) for v in corpus.videos),
                key=lambda it: (-it[1], it[0]))
            if R.retrieve_topk(reps, corpus, len(corpus.videos), index=index) != ref_rank:
                mismatches.append((i, q.id, "ranking"))
            # moment enumeration + NMS + merge vs independent implementation
            got = [(m.video_id, m.span, m.score) for m in P.infer(retr, loc, corpus, q, icfg, index)]
            if got != brute_force_infer(retr, loc, corpus, q, icfg):
                mismatches.append((i, q.id, "inference"))
        # metric computation vs independent recall counter
        preds = {q.id: P.infer(retr, loc, corpus, q, icfg, index) for q in corpus.queries}
        rep = P.evaluate(preds, corpus, task="vcmr")
        for k in (1, 10, 100):
            for p in (0.5, 0.7):
                if rep.vcmr[f"R@{k},IoU={p}"] != independent_moment_recall(preds, corpus, k, p):
                    mismatches.append((i, k, p, "metrics"))
    ok = not mismatches
    assert report(4, "oracle equivalence", ok,
                  f"20 instances bit-exact" if ok else f"mismatches: {mismatches[:5]}")


@pytest.mark.slow
def test_criterion_5_end_to_end_quality():
    t0 = time.monotonic()
    vr5, svmr1, vcmr1 = [], [], []
    for seed in range(3):
        spec = C.SyntheticSpec(seed=seed)  # 100 videos x 16 clips, D=16
        corpus = C.generate(spec)
        tcfg = P.TrainConfig(seed=seed)
        icfg = P.InferenceConfig()
        retr, _ = P.train_retriever(corpus, tcfg)
        loc, _, _ = P.train_localizer(corpus, retr, tcfg, icfg)
        rep = P.evaluate_pipeline(retr, loc, corpus, icfg)
        vr5.append(rep.vr["R@5"])
        svmr1.append(rep.svmr["R@1,IoU=0.5"])
        vcmr1.append(rep.vcmr["R@1,IoU=0.5"])
    elapsed = time.monotonic() - t0
    means = (float(np.mean(vr5)), float(np.mean(svmr1)), float(np.mean(vcmr1)))
    ok = means[0] >= 90.0 and means[1] >= 70.0 and means[2] >= 40.0 and elapsed / 3 < 600.0
    assert report(5, "end-to-end quality", ok,
                  f"3-seed means: VR R@5 {means[0]:.1f} (>=90), SVMR R@1 {means[1]:.1f} (>=70), "
                  f"VCMR R@1 {means[2]:.1f} (>=40), {elapsed / 3:.0f}s/run (<600s)")


ABLATION_SPEC = C.SyntheticSpec(video_count=24, clips_per_video=8, queries_per_video=2)
ABLATION_TRAIN = P.TrainConfig(retriever_epochs=8, localizer_epochs=6, negatives_per_query=2)
ABLATION_ICFG = P.InferenceConfig(top_k_videos=5, moment_max_len=8)


def ablation_run(seed, pooling="modality_specific", use_gates=True, gamma=ABLATION_TRAIN.gamma,
                 shared_norm=True, tasks=("vr",)):
    corpus = C.generate(dataclasses.replace(ABLATION_SPEC, seed=seed))
    tcfg = dataclasses.replace(ABLATION_TRAIN, seed=seed, gamma=gamma)
    rcfg = RetrieverConfig(pooling=pooling)
    retr, _ = P.train_retriever(corpus, tcfg, model_config=rcfg)
    if tasks == ("vr",):
        return P.evaluate_retrieval(retr, corpus, R.encode_corpus(retr, corpus))
    lcfg = LocalizerConfig(use_gates=use_gates, shared_norm=shared_norm)
    loc, _, _ = P.train_localizer(corpus, retr, tcfg, ABLATION_ICFG, model_config=lcfg)
    return P.evaluate_pipeline(retr, loc, corpus, ABLATION_ICFG, tasks=tasks)


@pytest.mark.slow
def test_criterion_6_ablation_directions():
    # blocking: modality-specific pooling beats mean pooling on VR R@1
    pool_wins = 0
    for seed in range(5):
        spec_r1 = ablation_run(seed, pooling="modality_specific").vr["R@1"]
        mean_r1 = ablation_run(seed, pooling="mean").vr["R@1"]
        pool_wins += spec_r1 >= mean_r1

    # non-blocking reported trends: gates and adversarial training help
    gate_wins = adv_wins = 0
    trend_seeds = 3
    for seed in range(trend_seeds):
        on = ablation_run(seed, tasks=("svmr",)).svmr["R@1,IoU=0.5"]
        off = ablation_run(seed, use_gates=False, tasks=("svmr",)).svmr["R@1,IoU=0.5"]
        gate_wins += on >= off
        adv_on = ablation_run(seed, tasks=("vcmr",)).vcmr["R@1,IoU=0.5"]
        adv_off = ablation_run(seed, gamma=0.0, tasks=("vcmr",)).vcmr["R@1,IoU=0.5"]
        adv_wins += adv_on >= adv_off

    ok = pool_wins >= 3
    assert report(6, "ablation directions", ok,
                  f"pooling {pool_wins}/5 seeds (blocking, >=3); non-blocking trends: "
                  f"gates {gate_wins}/{trend_seeds}, adversarial {adv_wins}/{trend_seeds}")


@pytest.mark.slow
def test_criterion_7_shared_norm_necessity():
    # Shared-Norm trains cross-video comparability of the boundary scores, so
    # the probe ranks moments by boundary scores alone: at desk scale the
    # S^R/t term is orders of magnitude larger than any boundary difference
    # and would mask the effect entirely.
    probe_icfg = dataclasses.replace(ABLATION_ICFG, score_temperature=1e6)
    wins = 0
    for seed in range(5):
        corpus = C.generate(dataclasses.replace(ABLATION_SPEC, seed=seed))
        tcfg = dataclasses.replace(ABLATION_TRAIN, seed=seed, localizer_epochs=10)
        retr, _ = P.train_retriever(corpus, tcfg, model_config=RetrieverConfig())
        scores = {}
        for sn in (True, False):
            loc, _, _ = P.train_localizer(corpus, retr, tcfg, ABLATION_ICFG,
                                          model_config=LocalizerConfig(shared_norm=sn))
            rep = P.evaluate_pipeline(retr, loc, corpus, probe_icfg, tasks=("vcmr",))
            scores[sn] = rep.vcmr["R@1,IoU=0.5"]
        wins += scores[True] > scores[False]
    # non-blocking reported trend: the line records the direction either way
    report(7, "shared-norm necessity", True,
           f"shared-norm improves boundary-ranked VCMR R@1 in {wins}/5 seeds "
           f"(trend target >=3, non-blocking)")


def test_criterion_8_determinism(tmp_path, capsys):
    config = {
        "seed": 0,
        "synthetic": {"video_count": 10, "clips_per_video": 8, "queries_per_video": 1},
        "retriever": {"hidden": 16, "intermediate": 32, "heads": 2},
        "localizer": {"hidden": 16, "intermediate": 32, "heads": 2},
        "train": {"retriever_epochs": 2, "localizer_epochs": 1, "negatives_per_query": 2,
                  "learning_rate": 1e-3},
        "inference": {"top_k_videos": 4, "moment_max_len": 8},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))

    def run(tag):
        out = tmp_path / tag / "corpus"
        ckpt = tmp_path / tag / "model.ckpt"
        metrics = tmp_path / tag / "report.json"
        assert cli.main(["gen", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert cli.main(["train", "--stage", "retriever", "--config", str(cfg_path),
                         "--corpus", str(out), "--ckpt", str(ckpt)]) == 0
        assert cli.main(["train", "--stage", "localizer", "--config", str(cfg_path),
                         "--corpus", str(out), "--ckpt", str(ckpt)]) == 0
        assert cli.main(["eval", "--task", "vcmr", "--config", str(cfg_path),
                         "--corpus", str(out), "--ckpt", str(ckpt), "--split", "train",
                         "--out", str(metrics)]) == 0
        corpus = C.load(out / "train")
        cfg = cli.load_run_config(str(cfg_path))
        from vcmr.checkpoint import load_checkpoint, split_namespace
        arrays = load_checkpoint(ckpt)
        retr = R.RetrieverModel(corpus.d_txt, corpus.d_img, corpus.d_sub, cfg.retriever, seed=0)
        retr.params.load_state_dict(split_namespace(arrays, "retriever"))
        loc = L.LocalizerModel(corpus.d_txt, corpus.d_img, corpus.d_sub, cfg.localizer, seed=1)
        loc.params.load_state_dict(split_namespace(arrays, "localizer"))
        preds = P.infer(retr, loc, corpus, corpus.queries[0], cfg.inference, R.encode_corpus(retr, corpus))
        return (ckpt.read_bytes(), metrics.read_bytes(),
                [(m.video_id, m.span, m.score) for m in preds])

    ckpt1, met1, preds1 = run("a")
    ckpt2, met2, preds2 = run("b")
    ok = ckpt1 == ckpt2 and met1 == met2 and preds1 == preds2
    assert report(8, "determinism", ok,
                  f"checkpoints identical: {ckpt1 == ckpt2}, metrics identical: {met1 == met2}, "
                  f"predictions identical: {preds1 == preds2}")
