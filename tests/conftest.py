"""Shared helpers: finite-difference gradient oracles, a per-video
retrieval score oracle, the per-query and per-video statements of the
batched localizer and retriever losses (`shared_norm_loss`,
`sample_relevance`), the chains of elementary ops that the fused
`linear`, `layer_norm` and `attention` ops and the array-only
`score_video` replace (`chain_*`), `concat` with one tape pair per part
(`chain_concat`), and the training steps that
pad and encode every (query, video) row (`pad_pairs`, `per_row_*`), which
the steps that encode each distinct query and video once must match, and
the moment ranking that runs NMS on every retrieved video in full
(`full_nms_rank_moments`), which the ranking that stops at a score floor
must match, the two recall counters that `pipeline.evaluate` merged
into one (`recall_vr`, `recall_moments`), and the video ranking and mining
that encode each query on a one-row batch of its own
(`per_query_rankings`, `per_query_mined_negatives`), which the split-wide
query encoding must match.

Central differences with h=1e-5 on float64 give ~1e-10 truncation error for
smooth graphs, so a 1e-4 relative tolerance cleanly separates correct from
broken adjoints.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from vcmr import autodiff as ad
from vcmr import localizer as L
from vcmr import pipeline as P
from vcmr import retriever as R
from vcmr.autodiff import MASK_NEG, Tape, Tensor
from vcmr.nn import pad_rows
from vcmr.retriever import ModalityQueryReps, best_clips, clip_cosines, video_cosines
from vcmr.spans import _iou, nms, sample_positive_spans, span_table, suppression_table, top_spans

H = 1e-5
RTOL = 1e-4


def rel_err(a, b, floor=1e-6):
    return abs(a - b) / max(abs(a), abs(b), floor)


def fd_check(build, arrays, h=H, sample=None, rng=None):
    """Max relative error between tape gradients and central differences.

    `build` maps one Tensor per input array to a scalar Tensor. When `sample`
    is set, at most that many coordinates per input are probed (chosen by
    `rng`), otherwise every coordinate is.
    """
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    tensors = [Tensor(a.copy()) for a in arrays]
    with Tape() as tape:
        loss = build(*tensors)
        tape.backward(loss)
        grads = [tape.grad(t) for t in tensors]

    def value_at(i, idx, v):
        mod = [a.copy() for a in arrays]
        mod[i].flat[idx] = v
        return build(*[Tensor(a) for a in mod]).item()

    worst = 0.0
    for i, a in enumerate(arrays):
        coords = np.arange(a.size)
        if sample is not None and a.size > sample:
            coords = (rng or np.random.default_rng(0)).choice(a.size, size=sample, replace=False)
        for idx in coords:
            x = a.flat[idx]
            num = (value_at(i, idx, x + h) - value_at(i, idx, x - h)) / (2.0 * h)
            worst = max(worst, rel_err(num, grads[i].flat[idx]))
    return worst


def fd_check_params(loss_fn, params, h=H, sample=2, rng=None, names=None):
    """Finite-difference check of a model loss against its parameter registry.

    `loss_fn()` rebuilds the scalar loss from the current parameter values;
    gradients come from one taped evaluation, numeric probes perturb the
    parameter arrays in place. Probes `sample` coordinates per parameter.
    """
    rng = rng or np.random.default_rng(0)
    with Tape() as tape:
        loss = loss_fn()
        tape.backward(loss)
        grads = {name: tape.grad(t) for name, t in params.items()}
    worst = 0.0
    for name, t in params.items():
        if names is not None and name not in names:
            continue
        a = t.data
        coords = np.arange(a.size)
        if a.size > sample:
            coords = rng.choice(a.size, size=sample, replace=False)
        for idx in coords:
            x = a.flat[idx]
            a.flat[idx] = x + h
            up = loss_fn().item()
            a.flat[idx] = x - h
            down = loss_fn().item()
            a.flat[idx] = x
            num = (up - down) / (2.0 * h)
            worst = max(worst, rel_err(num, grads[name].flat[idx]))
    return worst


def reference_score(reps, image, subtitle, use_subtitles=True):
    """One video's retrieval score from its own (image, subtitle) encodings:
    the best clip cosine per modality, averaged over the modalities. Scores
    the video on its own, as a loop over videos would."""

    def best(q, clips):
        norms = np.linalg.norm(clips, axis=-1, keepdims=True)
        return float(np.max((clips / np.where(norms > 0.0, norms, 1.0)) @ (q / np.linalg.norm(q))))

    phi_image = best(reps.q_image, image)
    return phi_image if not use_subtitles else (phi_image + best(reps.q_subtitle, subtitle)) / 2.0


def query_cosines(q, clips_n):
    """One query's rep, made unit, against every video's unit clip rows [V, N, D] -> [V, 1, N]."""
    return video_cosines((q / np.linalg.norm(q))[None], clips_n)


def chain_score_video(reps, index, use_subtitles=True):
    """`retriever.score_video` as the autodiff ops it replaces: `best_clips` of `video_cosines` over the index."""
    return best_clips(query_cosines(reps.q_image, index.image), query_cosines(reps.q_subtitle, index.subtitle),
                      index.clip_mask[:, None, :], use_subtitles).data[:, 0]


def shared_norm_loss(pos_st, pos_ed, neg_st, neg_ed, gt_span):
    """Boundary cross-entropy normalized over the positive video's clips and
    all negative videos' clips jointly.

    pos_st/pos_ed: Tensor [N] for the ground-truth video; neg_st/neg_ed:
    lists of Tensors (one per negative video). Returns L_st + L_ed.
    """
    n = pos_st.shape[0]
    st, ed = gt_span
    if not (0 <= st <= ed < n):
        raise ValueError(f"ground-truth span {gt_span} out of range for {n} clips")
    total = 0.0
    for pos, negs, target in ((pos_st, neg_st, st), (pos_ed, neg_ed, ed)):
        flat = ad.concat([pos] + list(negs), axis=0) if negs else pos
        lse = ad.logsumexp(ad.reshape(flat, (1, flat.shape[0])), axis=1)
        picked = ad.take(pos, np.array([target]))
        total = ad.add(total, ad.sum_(ad.sub(lse, picked)))
    return total


@dataclass
class RelevanceSample:
    strong: tuple[int, int]  # (image clip, subtitle clip) inside the span
    weak: tuple[int, int] | None  # best clips outside the span, if any
    strong_score: float
    weak_score: float | None


def sample_relevance(reps: ModalityQueryReps, image, subtitle, span, use_subtitles=True) -> RelevanceSample:
    """Best clips of one video's (image, subtitle) encodings inside `span` (strong) and
    outside it (weak): the per-video statement of the rule `contrastive_loss` batches."""
    n = image.shape[0]
    st, ed = span
    if not (0 <= st <= ed < n):
        raise ValueError(f"span {span} out of range for {n} clips")
    sim_img = query_cosines(reps.q_image, ad.l2_normalize(image[None])).data[0, 0]
    sim_sub = query_cosines(reps.q_subtitle, ad.l2_normalize(subtitle[None])).data[0, 0]
    inside = np.zeros(n, dtype=bool)
    inside[st : ed + 1] = True

    def best(region):  # ((image clip, subtitle clip), score) of the best clips in `region`
        clips = np.flatnonzero(region)
        i, s = int(clips[np.argmax(sim_img[region])]), int(clips[np.argmax(sim_sub[region])])
        return (i, s), float(sim_img[i] if not use_subtitles else (sim_img[i] + sim_sub[s]) / 2.0)

    strong, strong_score = best(inside)
    if inside.all():
        return RelevanceSample(strong, None, strong_score, None)
    weak, weak_score = best(~inside)
    return RelevanceSample(strong, weak, strong_score, weak_score)


def chain_linear(x, w, b):
    """`ad.linear` as the matmul and add it fuses."""
    return ad.add(ad.matmul(x, w), b)


def chain_layer_norm(x, gamma, beta, eps=1e-5):
    """`ad.layer_norm` as the nine elementary ops it fuses."""
    mu = ad.mean(x, axis=-1, keepdims=True)
    xc = ad.sub(x, mu)
    var = ad.mean(ad.mul(xc, xc), axis=-1, keepdims=True)
    inv = ad.pow_const(ad.add(var, eps), -0.5)
    return ad.add(ad.mul(ad.mul(xc, inv), gamma), beta)


def chain_attention(q, k, v, heads, key_mask):
    """`ad.attention` as the head split, scores, mask, softmax, context and head merge it fuses."""
    b, lq, d = q.shape
    dh = d // heads

    def split_heads(x):
        return ad.swapaxes(ad.reshape(x, (b, x.shape[1], heads, dh)), 1, 2)

    qh, kh, vh = split_heads(q), split_heads(k), split_heads(v)
    scores = ad.mul(ad.matmul(qh, ad.swapaxes(kh, -1, -2)), 1.0 / math.sqrt(dh))
    scores = ad.add(scores, ((1.0 - np.asarray(key_mask, dtype=np.float64)) * MASK_NEG)[:, None, None, :])
    ctx = ad.matmul(ad.softmax(scores, axis=-1), vh)
    return ad.reshape(ad.swapaxes(ctx, 1, 2), (b, lq, d))


def chain_concat(parts, axis=0):
    """`ad.concat` with one (input, grad_fn) pair per part, each taking its own slice of the gradient."""
    vals = [ad._val(p) for p in parts]
    offsets = np.cumsum([0] + [v.shape[axis] for v in vals])

    def part_grad(lo, hi):
        return lambda g: g[(slice(None),) * (axis % g.ndim) + (slice(lo, hi),)]

    return ad._op(np.concatenate(vals, axis=axis),
                  lambda: [(p, part_grad(lo, hi)) for p, lo, hi in zip(parts, offsets[:-1], offsets[1:])])


def at_generic_point(model, seed):
    """`model` with every parameter moved by N(0, 0.01) noise: zero-initialized biases put ReLU
    inputs exactly on the kink, where central differences and the subgradient disagree."""
    r = np.random.default_rng(seed)
    for t in model.params.values():
        t.data = t.data + r.normal(0.0, 0.01, size=t.data.shape)
    return model


def loss_and_grads(loss_fn, params):
    """One taped evaluation of `loss_fn()`: (loss value, {name: gradient} of `params`)."""
    with Tape() as tape:
        loss = loss_fn()
        tape.backward(loss)
        return loss.item(), {name: tape.grad(t) for name, t in params.items()}


def assert_same_step(loss_fn, reference_fn, params):
    """`loss_fn` gives `reference_fn`'s loss bit for bit and every parameter gradient within 1e-12."""
    loss, grads = loss_and_grads(loss_fn, params)
    ref_loss, ref_grads = loss_and_grads(reference_fn, params)
    assert loss == ref_loss
    for name, g in grads.items():
        assert np.abs(g - ref_grads[name]).max() <= 1e-12, name


def pad_pairs(pairs):
    """Zero-pad (query, video) rows into dense model inputs, every row on its own.

    Returns tokens [R, L, d_txt], token_mask [R, L], images [R, N, d_img],
    subs [R, N, d_sub] and clip_mask [R, N]; absent subtitles are zeros.
    """
    tokens, token_mask = pad_rows([q.tokens for q, _ in pairs])
    images, subs, clip_mask = pad_rows([v.image_matrix() for _, v in pairs], [v.subtitle_matrix() for _, v in pairs])
    return tokens, token_mask, images, subs, clip_mask


def per_row_contrastive_loss(model, batch, temperature=0.01, lam=0.5, use_subtitles=True):
    """`retriever.contrastive_loss` as it ran when every row padded and encoded its own video:
    the per-row reference of the step that encodes each distinct video once."""
    b = batch["tokens"].shape[0]
    if b < 2:
        raise ValueError("contrastive training needs a batch of at least 2 queries")

    q_img, q_sub, _ = model.encode_query_batch(batch["tokens"], batch["token_mask"])
    videos = batch["videos"]
    images, subs, valid = pad_rows([v.image_matrix() for v in videos], [v.subtitle_matrix() for v in videos])
    img_r, sub_r = model.encode_video_batch(images, subs, valid)

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


def per_row_localizer_batch_loss(model, corpus, queries, negatives, config, icfg):
    """`pipeline.localizer_batch_loss` as it ran when every row encoded its own query and
    video: the per-row reference of the step that encodes each distinct query and video once."""
    rows, groups = P._localizer_rows(corpus, queries, negatives)
    tokens, token_mask, images, subs, clip_mask = pad_pairs(rows)
    token_reps = model.encode_tokens(tokens, token_mask)
    img_r, sub_r = model.encode_video_batch(images, subs, clip_mask)
    l_st, l_ed, fused = model.forward_rows(token_reps, token_mask, img_r, sub_r, clip_mask)

    boundary = L.boundary_loss(l_st, l_ed, clip_mask, groups, [q.span for q in queries],
                               shared_norm=model.config.shared_norm)

    if config.gamma == 0.0:
        return boundary

    positives = []
    negatives_items = []
    for query, row_ids in zip(queries, groups):
        gt_row = row_ids[0]
        video_len = int(clip_mask[gt_row].sum())
        for span in sample_positive_spans(query.span, video_len):
            positives.append((gt_row, span))
        for ri in row_ids[1:]:
            vlen = int(clip_mask[ri].sum())
            mined = top_spans(
                l_st.data[ri, :vlen], l_ed.data[ri, :vlen],
                icfg.moment_min_len, icfg.moment_max_len, k=5,
            )
            negatives_items.extend((ri, span) for span in mined)
    if not negatives_items:
        return boundary
    adv = L.adversarial_loss(model, model.adv_layer(fused, clip_mask), positives, negatives_items)
    return L.total_loss(boundary, adv, gamma=config.gamma)


def full_nms_rank_moments(localizer_model, corpus, query, scored, icfg):
    """`pipeline._rank_moments` as it ran before the score floor: NMS keeps up to
    `results_per_query` spans of every retrieved video, then one merge by (-score,
    video id, start, end) cuts them to `results_per_query`."""
    videos = [corpus.video(vid) for vid, _ in scored]
    l_st, l_ed = P.localize_scores(localizer_model, query, videos)
    spans, scores, rows = [], [], []
    for i, (vid, score) in enumerate(scored):
        key = (len(videos[i]), icfg.moment_min_len, icfg.moment_max_len)
        table = span_table(*key)
        span_scores = score / icfg.score_temperature + (l_st[i, table[:, 0]] + l_ed[i, table[:, 1]])
        kept = nms(table, span_scores, suppression_table(*key, icfg.nms_threshold), keep=icfg.results_per_query)
        spans.append(table[kept])
        scores.append(span_scores[kept])
        rows.append(np.full(len(kept), i))
    spans, scores, rows = np.concatenate(spans), np.concatenate(scores), np.concatenate(rows)
    ids = [vid for vid, _ in scored]
    id_rank = {vid: r for r, vid in enumerate(sorted(ids))}
    vid_rank = np.array([id_rank[vid] for vid in ids])[rows]
    top = np.lexsort((spans[:, 1], spans[:, 0], vid_rank, -scores))[: icfg.results_per_query]
    return [P.MomentPrediction(video_id=ids[r], span=(st, ed), score=sc)
            for r, (st, ed), sc in zip(rows[top].tolist(), spans[top].tolist(), scores[top].tolist())]


def recall_vr(rankings, corpus):
    """VR recall as `pipeline.evaluate` counted it with its own loop: R@K is the share of queries
    whose target video is among their top K ranked ids."""
    hits = {k: 0 for k in P.VR_KS}
    for q in corpus.queries:
        ranked = rankings.get(q.id)
        if not ranked:
            warnings.warn(f"query {q.id} has no ranking; counted as miss")
            continue
        for k in P.VR_KS:
            if q.target_video in ranked[:k]:
                hits[k] += 1
    total = len(corpus.queries)
    return {f"R@{k}": 100.0 * hits[k] / total for k in P.VR_KS}


def recall_moments(predictions, corpus):
    """SVMR / VCMR recall as `pipeline.evaluate` counted it with its own loop: R@K,IoU=p is the
    share of queries with a top-K span on the target video whose IoU with the ground truth is at
    least p; an on-target span whose start is past its end raises ValueError."""
    hits = {(k, p): 0 for k in P.MOMENT_KS for p in P.MOMENT_PS}
    for q in corpus.queries:
        preds = predictions.get(q.id)
        if not preds:
            warnings.warn(f"query {q.id} has no predictions; counted as miss")
            continue
        top = preds[: max(P.MOMENT_KS)]
        st, ed = np.array([m.span for m in top], dtype=np.int64).T
        on_target = np.array([m.video_id == q.target_video for m in top])
        if (st[on_target] > ed[on_target]).any():
            raise ValueError(f"query {q.id}: invalid predicted span")
        # IoU with the ground truth on the target video, -1 elsewhere
        overlap = np.where(on_target, _iou(st, ed, *q.span), -1.0)
        for k in P.MOMENT_KS:
            best = overlap[:k].max()
            for p in P.MOMENT_PS:
                if best >= p:
                    hits[(k, p)] += 1
    total = len(corpus.queries)
    return {f"R@{k},IoU={p}": 100.0 * hits[(k, p)] / total for k in P.MOMENT_KS for p in P.MOMENT_PS}


def per_query_rankings(model, corpus, index):
    """{query id: every corpus video id, ranked}, as `evaluate_retrieval` and `mine_hard_negatives`
    ranked them before they encoded a split at once: each query encoded on its own one-row batch."""
    return {q.id: [vid for vid, _ in R.retrieve_topk(R.encode_query(model, q), corpus, len(corpus.videos), index)]
            for q in corpus.queries}


def per_query_mined_negatives(model, corpus, config):
    """`mine_hard_negatives` over `per_query_rankings`: per query, `negatives_per_query` picks from
    the top `mining_pool` of its ranking without the target video, drawn from stream (2, query number)."""
    rankings = per_query_rankings(model, corpus, R.encode_corpus(model, corpus))
    out = {}
    for qi, q in enumerate(corpus.queries):
        pool = [vid for vid in rankings[q.id] if vid != q.target_video][: config.mining_pool]
        rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(2, qi)))
        out[q.id] = [pool[i] for i in sorted(rng.choice(len(pool), size=config.negatives_per_query, replace=False))]
    return out
