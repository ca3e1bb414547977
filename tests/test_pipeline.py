"""Two-stage pipeline: mining, inference against brute-force oracles,
NMS semantics, the metric suite, and end-to-end determinism."""

import warnings
from collections import Counter
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (RTOL, assert_same_step, at_generic_point, fd_check_params, full_nms_rank_moments, pad_pairs,
                      per_query_mined_negatives, per_query_rankings, per_row_localizer_batch_loss, recall_moments,
                      recall_vr, reference_score)
from vcmr import corpus as C
from vcmr import pipeline as P
from vcmr import retriever as R
from vcmr.autodiff import Tape, Tensor
from vcmr.localizer import LocalizerConfig, LocalizerModel
from vcmr.nn import EncoderTrunk
from vcmr.optim import AdamW
from vcmr.spans import enumerate_spans, iou, iou_matrix, nms

SPEC = C.SyntheticSpec(video_count=8, clips_per_video=8, queries_per_video=1, seed=2)
SMALL_TRAIN = P.TrainConfig(seed=0, retriever_epochs=2, localizer_epochs=1,
                            negatives_per_query=2, learning_rate=1e-3)
ICFG = P.InferenceConfig(top_k_videos=4, moment_max_len=8, results_per_query=20)


def small_models(corpus):
    rcfg = R.RetrieverConfig(hidden=16, intermediate=32, heads=2)
    retr, _ = P.train_retriever(corpus, SMALL_TRAIN, model_config=rcfg)
    lcfg = LocalizerConfig(hidden=16, intermediate=32, heads=2)
    loc, _, negs = P.train_localizer(corpus, retr, SMALL_TRAIN, ICFG, model_config=lcfg)
    return retr, loc, negs


# ---------------------------------------------------------------------------
# config validation


def test_config_validation():
    with pytest.raises(ValueError):
        P.TrainConfig(retriever_epochs=0)
    with pytest.raises(ValueError, match="retriever_batch must be at least 2"):
        P.TrainConfig(retriever_batch=1)
    with pytest.raises(ValueError):
        P.TrainConfig(temperature=0.0)
    with pytest.raises(ValueError):
        P.InferenceConfig(moment_min_len=3, moment_max_len=2)
    with pytest.raises(ValueError):
        P.InferenceConfig(nms_threshold=0.0)


# ---------------------------------------------------------------------------
# NMS and span enumeration


def nms_moments(moments, threshold, keep=100):
    """`nms` over a list of (span, score), its kept rows as a list of (span, score)."""
    spans = np.array([span for span, _ in moments])
    kept = nms(spans, np.array([score for _, score in moments]), iou_matrix(spans) >= threshold, keep=keep)
    return [moments[i] for i in kept]


def test_nms_suppresses_at_threshold_and_keeps_best():
    moments = [((0, 3), 1.0), ((1, 3), 0.9), ((5, 6), 0.8)]
    kept = nms_moments(moments, threshold=0.7)
    assert kept == [((0, 3), 1.0), ((5, 6), 0.8)]  # IoU((0,3),(1,3))=0.75 >= 0.7
    kept_loose = nms_moments(moments, threshold=0.8)
    assert kept_loose == [((0, 3), 1.0), ((1, 3), 0.9), ((5, 6), 0.8)]


def test_nms_keep_cap_and_tie_break():
    moments = [((i, i), 1.0) for i in range(5)]
    kept = nms_moments(moments, threshold=0.7, keep=3)
    assert kept == [((0, 0), 1.0), ((1, 1), 1.0), ((2, 2), 1.0)]


def test_enumerate_spans_respects_limits():
    spans = enumerate_spans(5, 2, 3)
    assert all(2 <= ed - st + 1 <= 3 for st, ed in spans)
    assert len(spans) == 4 + 3
    # limits clamp to the available range instead of going empty
    assert enumerate_spans(2, 5, 9) == [(0, 1)]


# ---------------------------------------------------------------------------
# hard-negative mining


def test_mined_negatives_are_valid_and_deterministic():
    corpus = C.generate(SPEC)
    model = R.RetrieverModel(corpus.d_txt, corpus.d_img, corpus.d_sub,
                             R.RetrieverConfig(hidden=16, intermediate=32, heads=2), seed=0)
    negs = P.mine_hard_negatives(model, corpus, SMALL_TRAIN)
    again = P.mine_hard_negatives(model, corpus, SMALL_TRAIN)
    assert negs == again
    index = R.encode_corpus(model, corpus)
    for q in corpus.queries:
        picked = negs[q.id]
        assert len(picked) == SMALL_TRAIN.negatives_per_query
        assert len(set(picked)) == len(picked)
        assert q.target_video not in picked
        ranked = [v for v in P.rank_videos(R.encode_query(model, q), corpus, index) if v != q.target_video]
        pool = ranked[: SMALL_TRAIN.mining_pool]
        assert all(v in pool for v in picked)


def test_split_is_encoded_once_per_token_count_and_ranked_as_one_query_at_a_time():
    corpus = C.generate(C.SyntheticSpec(video_count=8, clips_per_video=8, queries_per_video=3, seed=2))
    groups = Counter(len(q.tokens) for q in corpus.queries)
    assert len(groups) < len(corpus.queries)  # some token count is shared, so per-query encoding makes more calls
    rcfg = R.RetrieverConfig(hidden=16, intermediate=32, heads=2)
    model, _ = P.train_retriever(corpus, SMALL_TRAIN, model_config=rcfg)
    index = R.encode_corpus(model, corpus)
    want_rankings = per_query_rankings(model, corpus, index)
    want_negatives = per_query_mined_negatives(model, corpus, SMALL_TRAIN)
    batch_shapes = []
    encode_query_batch = R.RetrieverModel.encode_query_batch

    def spy(self, tokens, token_mask):
        batch_shapes.append(tokens.shape[:2])
        return encode_query_batch(self, tokens, token_mask)

    one_call_per_count = sorted((n, length) for length, n in groups.items())
    with mock.patch.object(R.RetrieverModel, "encode_query_batch", spy), \
            mock.patch.object(P, "evaluate", wraps=P.evaluate) as evaluate:
        P.evaluate_retrieval(model, corpus, index)
        assert evaluate.call_args.args[0] == want_rankings
        assert sorted(batch_shapes) == one_call_per_count
        batch_shapes.clear()
        assert P.mine_hard_negatives(model, corpus, SMALL_TRAIN) == want_negatives
        assert sorted(batch_shapes) == one_call_per_count


def test_mining_rejects_too_small_corpus():
    corpus = C.generate(C.SyntheticSpec(video_count=2, clips_per_video=8, seed=3))
    model = R.RetrieverModel(corpus.d_txt, corpus.d_img, corpus.d_sub, seed=0)
    with pytest.raises(C.CorpusError, match="corpus of 2 videos cannot supply negatives_per_query 4 "):
        P.mine_hard_negatives(model, corpus, P.TrainConfig(negatives_per_query=4))


# ---------------------------------------------------------------------------
# inference oracles


def localizer_scores(loc, query, videos):
    """Boundary scores of (query, video) rows zero-padded into one batch by `pad_pairs`, from fresh
    encoder calls: no memo, no shared query encoding."""
    tokens, token_mask, images, subs, clip_mask = pad_pairs([(query, v) for v in videos])
    img_r, sub_r = loc.encode_video_batch(images, subs, clip_mask)
    l_st, l_ed, _ = loc.forward_rows(loc.encode_tokens(tokens, token_mask), token_mask, img_r, sub_r, clip_mask)
    return l_st.data, l_ed.data


def brute_force_infer(retr, loc, corpus, query, icfg, videos=None, batched=False):
    """Independent re-derivation of two-stage inference over `videos` (default: the corpus's).

    Each retrieved video is localized on a row of its own, or with `batched`
    all of them in one padded batch."""
    reps = R.encode_query(retr, query)
    scored = sorted(
        ((v.id, reference_score(reps, *R.encode_video(retr, v))) for v in videos or corpus.videos),
        key=lambda it: (-it[1], it[0]),
    )[: icfg.top_k_videos]
    retrieved = [corpus.video(vid) for vid, _ in scored]
    if batched:
        rows = list(zip(*localizer_scores(loc, query, retrieved)))
    else:
        rows = [tuple(a[0] for a in localizer_scores(loc, query, [video])) for video in retrieved]
    out = []
    for (vid, s_r), video, (l_st, l_ed) in zip(scored, retrieved, rows):
        cands = [
            ((st, ed), s_r / icfg.score_temperature + float(l_st[st] + l_ed[ed]))
            for st, ed in enumerate_spans(len(video), icfg.moment_min_len, icfg.moment_max_len)
        ]
        # independent greedy NMS
        cands.sort(key=lambda m: (-m[1], m[0]))
        kept = []
        for span, score in cands:
            if all(iou(span, k) < icfg.nms_threshold for k, _ in kept):
                kept.append((span, score))
            if len(kept) >= icfg.results_per_query:
                break
        out.extend((vid, span, score) for span, score in kept)
    out.sort(key=lambda m: (-m[2], m[0], m[1]))
    return out[: icfg.results_per_query]


def test_infer_matches_brute_force_bit_exact():
    corpus = C.generate(SPEC)
    retr, loc, _ = small_models(corpus)
    index = R.encode_corpus(retr, corpus)
    for q in corpus.queries[:4]:
        got = P.infer(retr, loc, corpus, q, ICFG, index)
        ref = brute_force_infer(retr, loc, corpus, q, ICFG)
        assert [(m.video_id, m.span, m.score) for m in got] == ref
        assert all(type(st) is int and type(ed) is int and type(m.score) is float for m in got for st, ed in [m.span])


def test_infer_single_video_matches_brute_force_bit_exact():
    corpus = C.generate(SPEC)
    retr, loc, _ = small_models(corpus)
    index = R.encode_corpus(retr, corpus)
    for q in corpus.queries[:4]:
        got = P.infer_single_video(retr, loc, corpus, q, ICFG, index)
        ref = brute_force_infer(retr, loc, corpus, q, ICFG, [corpus.video(q.target_video)])
        assert [(m.video_id, m.span, m.score) for m in got] == ref


def test_mixed_length_corpus_ranks_like_the_padded_batch():
    # Memoized clip encodings are unpadded, and the padded batch attends over more
    # (zero-weight) keys, so scores may move by ulps: 1e-12 is far below any score gap.
    base = C.generate(SPEC)
    lengths = [8, 3, 5, 1, 8, 2, 7, 4]
    videos = [C.Video(v.id, v.images[:n], v.subtitles[:n], v.has_subtitle[:n]) for v, n in zip(base.videos, lengths)]
    queries = [C.Query(q.id, q.tokens, q.target_video, (0, 0)) for q in base.queries]  # inference reads no span
    corpus = C.Corpus(videos, queries, d_img=base.d_img, d_sub=base.d_sub, d_txt=base.d_txt)
    sizes = dict(hidden=16, intermediate=32, heads=2)
    retr = R.RetrieverModel(corpus.d_txt, corpus.d_img, corpus.d_sub, R.RetrieverConfig(**sizes))
    loc = LocalizerModel(corpus.d_txt, corpus.d_img, corpus.d_sub, LocalizerConfig(**sizes))
    index = R.encode_corpus(retr, corpus)
    for q in queries:
        got = P.infer(retr, loc, corpus, q, ICFG, index)
        for batched in (True, False):
            ref = brute_force_infer(retr, loc, corpus, q, ICFG, batched=batched)
            assert [(m.video_id, m.span) for m in got] == [(vid, span) for vid, span, _ in ref]
            assert np.allclose([m.score for m in got], [score for _, _, score in ref], rtol=0.0, atol=1e-12)


def test_infer_after_weight_updates_matches_a_fresh_model():
    corpus = C.generate(SPEC)
    retr, loc, _ = small_models(corpus)
    index = R.encode_corpus(retr, corpus)

    def predictions(model):
        return [[(m.video_id, m.span, m.score) for m in P.infer(retr, model, corpus, q, ICFG, index)]
                for q in corpus.queries[:3]]

    def fresh():
        model = LocalizerModel(corpus.d_txt, corpus.d_img, corpus.d_sub, loc.config, seed=5)
        model.params.load_state_dict(loc.params.state_dict())
        return model

    before = predictions(loc)  # fills the memo
    loc.params.load_state_dict(LocalizerModel(corpus.d_txt, corpus.d_img, corpus.d_sub, loc.config, seed=9)
                               .params.state_dict())
    loaded = predictions(loc)
    assert loaded != before and loaded == predictions(fresh())
    AdamW(loc.params, lr=1e-2).step({name: np.ones_like(t.data) for name, t in loc.params.items()})
    stepped = predictions(loc)
    assert stepped != loaded and stepped == predictions(fresh())


def test_infer_single_video_stays_on_target():
    corpus = C.generate(SPEC)
    retr, loc, _ = small_models(corpus)
    index = R.encode_corpus(retr, corpus)
    for q in corpus.queries[:4]:
        preds = P.infer_single_video(retr, loc, corpus, q, ICFG, index)
        assert preds and all(m.video_id == q.target_video for m in preds)
        st, ed = zip(*(m.span for m in preds))
        assert min(st) >= 0 and max(ed) < len(corpus.video(q.target_video))
        assert all(preds[i].score >= preds[i + 1].score for i in range(len(preds) - 1))


def rank_with_stub_scores(rank, lengths, scored, boundary, icfg):
    """`rank(None, corpus, None, scored, icfg)` over a corpus whose videos are only their
    `lengths`, with `localize_scores` returning `boundary`'s (start, end) rows for the videos
    of `scored`, zero-padded past each video's length."""
    corpus = SimpleNamespace(video=lambda vid: range(lengths[vid]))  # `_rank_moments` reads len(video)

    def localize_scores(model, query, videos):
        l_st, l_ed = np.zeros((2, len(videos), max(map(len, videos))))
        for row, (vid, _) in enumerate(scored):
            l_st[row, : lengths[vid]], l_ed[row, : lengths[vid]] = boundary[vid]
        return l_st, l_ed

    with mock.patch.object(P, "localize_scores", localize_scores):
        return [(m.video_id, m.span, m.score) for m in rank(None, corpus, None, scored, icfg)]


@st.composite
def ranking_cases(draw):
    """(lengths, scored, boundary, icfg): up to six videos of 1-40 clips, retrieval scores from
    three values (equal ones are common) and boundary scores rounded to 0 or 1 decimals, so
    span scores tie within and across videos; video ids sort apart from retrieval order."""
    n_videos = draw(st.integers(1, 6))
    names = draw(st.permutations([f"v{j}" for j in range(n_videos)]))
    lengths = {vid: draw(st.integers(1, 40)) for vid in names}
    retrieval = draw(st.lists(st.sampled_from((0.0, 0.01, 0.02)), min_size=n_videos, max_size=n_videos))
    scored = sorted(zip(names, retrieval), key=lambda it: -it[1])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    decimals = draw(st.integers(0, 1))
    boundary = {vid: np.round(rng.normal(size=(2, n)), decimals) for vid, n in lengths.items()}
    min_len = draw(st.integers(1, 3))
    icfg = P.InferenceConfig(moment_min_len=min_len, moment_max_len=draw(st.integers(min_len, 40)),
                             nms_threshold=draw(st.sampled_from((0.5, 0.7, 1.0))),
                             results_per_query=draw(st.sampled_from((1, 2, 5, 100, 5000))))
    return lengths, scored, boundary, icfg


@settings(max_examples=150, deadline=None, derandomize=True)
@given(ranking_cases())
def test_rank_moments_equals_full_nms_on_every_video(case):
    assert rank_with_stub_scores(P._rank_moments, *case) == rank_with_stub_scores(full_nms_rank_moments, *case)


def test_rank_moments_stops_after_a_dominant_video(monkeypatch):
    # The top video's spans all score about 100 above every other video's, so
    # its own NMS fills results_per_query and the walk stops there.
    lengths = {"a": 8, "b": 8, "c": 8}
    rng = np.random.default_rng(0)
    boundary = {vid: rng.normal(size=(2, n)) for vid, n in lengths.items()}
    scored = [("b", 1.0), ("a", 0.0), ("c", 0.0)]
    icfg = P.InferenceConfig(moment_max_len=8, results_per_query=10)
    calls = []

    def spy(*args, **kwargs):
        calls.append(kwargs["floor"])
        return nms(*args, **kwargs)

    monkeypatch.setattr(P, "nms", spy)
    got = rank_with_stub_scores(P._rank_moments, lengths, scored, boundary, icfg)
    assert calls == [-np.inf]
    assert len(got) == icfg.results_per_query and {vid for vid, _, _ in got} == {"b"}
    assert got == rank_with_stub_scores(full_nms_rank_moments, lengths, scored, boundary, icfg)


# ---------------------------------------------------------------------------
# metrics


def independent_moment_recall(predictions, corpus, k, p):
    hits = 0
    for q in corpus.queries:
        for m in predictions.get(q.id, [])[:k]:
            if m.video_id == q.target_video and iou(m.span, q.span) >= p:
                hits += 1
                break
    return 100.0 * hits / len(corpus.queries)


def test_metrics_match_independent_implementation():
    corpus = C.generate(SPEC)
    retr, loc, _ = small_models(corpus)
    index = R.encode_corpus(retr, corpus)
    preds = {q.id: P.infer(retr, loc, corpus, q, ICFG, index) for q in corpus.queries}
    report = P.evaluate(preds, corpus, task="vcmr")
    for k in (1, 10, 100):
        for p in (0.5, 0.7):
            assert report.vcmr[f"R@{k},IoU={p}"] == independent_moment_recall(preds, corpus, k, p)


def test_vr_metric_matches_hand_count():
    corpus = C.generate(SPEC)
    # rank the true video first for exactly half the queries
    ids = [v.id for v in corpus.videos]
    rankings = {}
    for i, q in enumerate(corpus.queries):
        others = [v for v in ids if v != q.target_video]
        rankings[q.id] = [q.target_video] + others if i % 2 == 0 else others + [q.target_video]
    report = P.evaluate(rankings, corpus, task="vr")
    expected_r1 = 100.0 * ((len(corpus.queries) + 1) // 2) / len(corpus.queries)
    assert report.vr["R@1"] == expected_r1
    assert report.vr["R@100"] == 100.0


def test_recall_nondecreasing_in_k():
    corpus = C.generate(SPEC)
    retr, loc, _ = small_models(corpus)
    report = P.evaluate_pipeline(retr, loc, corpus, ICFG)
    assert report.vr["R@1"] <= report.vr["R@5"] <= report.vr["R@10"] <= report.vr["R@100"]
    for p in (0.5, 0.7):
        seq = [report.vcmr[f"R@{k},IoU={p}"] for k in (1, 10, 100)]
        assert seq == sorted(seq)
        assert all(0.0 <= v <= 100.0 for v in seq)


RECALL_CLIPS = 10  # IoU 0.7 needs a union of 10 clips


@st.composite
def recall_cases(draw):
    """(corpus, rankings, moments): one to five queries on three videos of RECALL_CLIPS clips. One
    query in four has no predictions, the others 1 to 12, fewer than the largest K; they
    fall on any video, and one span in ten has its ends swapped (invalid on the target video).
    Spans whose IoU with the ground truth is exactly 0.5 or 0.7 are drawn often."""
    videos = ["v0", "v1", "v2"]
    spans = [(st_, ed) for st_ in range(RECALL_CLIPS) for ed in range(st_, RECALL_CLIPS)]
    queries, rankings, moments = [], {}, {}
    for i in range(draw(st.integers(1, 5))):
        gt = draw(st.sampled_from(spans) | st.sampled_from([(0, 9), (0, 6), (0, 8)]))  # each has an IoU-0.7 span
        q = C.Query(f"q{i}", np.ones((1, 1)), draw(st.sampled_from(videos)), gt)
        queries.append(q)
        if draw(st.integers(0, 3)):
            rankings[q.id] = draw(st.lists(st.sampled_from(videos), min_size=1, max_size=12))
        if not draw(st.integers(0, 3)):
            continue
        span = st.sampled_from(spans)
        for p in P.MOMENT_PS:
            span |= st.sampled_from([sp for sp in spans if iou(sp, q.span) == p] or spans)
        preds = draw(st.lists(st.tuples(st.sampled_from(videos), span, st.integers(0, 9)), min_size=1, max_size=12))
        moments[q.id] = [P.MomentPrediction(vid, sp[::-1] if swap == 0 and sp[0] != sp[1] else sp, 0.0)
                         for vid, sp, swap in preds]
    return SimpleNamespace(queries=queries), rankings, moments


def warned(fn, *args):
    """(fn(*args) or the ValueError it raised, ids of the queries it warned about)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = fn(*args)
        except ValueError:
            out = ValueError
    return out, [str(w.message).split()[1] for w in caught]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(recall_cases())
def test_evaluate_counts_recall_as_the_oracles_do(case):
    corpus, rankings, moments = case
    assert warned(lambda: P.evaluate(rankings, corpus, "vr").vr) == warned(recall_vr, rankings, corpus)
    for task in ("svmr", "vcmr"):
        got = warned(lambda: getattr(P.evaluate(moments, corpus, task), task))
        assert got == warned(recall_moments, moments, corpus)


def test_missing_predictions_count_as_miss_with_warning():
    corpus = C.generate(SPEC)
    rankings = {corpus.queries[0].id: [corpus.queries[0].target_video]}
    with pytest.warns(UserWarning):
        report = P.evaluate(rankings, corpus, task="vr")
    assert report.vr["R@1"] == 100.0 / len(corpus.queries)


def test_evaluate_rejects_unknown_task():
    corpus = C.generate(SPEC)
    with pytest.raises(ValueError):
        P.evaluate({}, corpus, task="nope")


@pytest.mark.parametrize("task", ["vr", "svmr", "vcmr"])
def test_evaluating_a_corpus_without_queries_raises(task):
    corpus = C.generate(SPEC)
    empty = C.Corpus(corpus.videos, [], d_img=SPEC.d_img, d_sub=SPEC.d_sub, d_txt=SPEC.d_txt)
    with pytest.raises(C.CorpusError, match="no queries"):
        P.evaluate({}, empty, task=task)
    retr = R.RetrieverModel(SPEC.d_txt, SPEC.d_img, SPEC.d_sub, R.RetrieverConfig(hidden=16, heads=2))
    loc = LocalizerModel(SPEC.d_txt, SPEC.d_img, SPEC.d_sub, LocalizerConfig(hidden=16, heads=2))
    with pytest.raises(C.CorpusError, match="no queries"):
        P.evaluate_pipeline(retr, loc, empty, ICFG, tasks=(task,))


# ---------------------------------------------------------------------------
# determinism and loss curves


def test_training_and_inference_deterministic():
    corpus = C.generate(SPEC)

    def run():
        retr, loc, negs = small_models(corpus)
        preds = P.infer(retr, loc, corpus, corpus.queries[0], ICFG, R.encode_corpus(retr, corpus))
        return (
            {n: t.data.copy() for n, t in retr.params.items()},
            {n: t.data.copy() for n, t in loc.params.items()},
            negs,
            [(m.video_id, m.span, m.score) for m in preds],
        )

    r1, l1, n1, p1 = run()
    r2, l2, n2, p2 = run()
    assert all(np.array_equal(r1[k], r2[k]) for k in r1)
    assert all(np.array_equal(l1[k], l2[k]) for k in l1)
    assert n1 == n2 and p1 == p2


def test_loss_curves_record_both_stages():
    corpus = C.generate(SPEC)
    retr, curve = P.train_retriever(corpus, SMALL_TRAIN,
                                    model_config=R.RetrieverConfig(hidden=16, intermediate=32, heads=2),
                                    val_corpus=corpus)
    splits = {s for _, s, _ in curve}
    assert splits == {"train", "val"}
    epochs = [e for e, s, _ in curve if s == "train"]
    assert epochs == [1, 2]


def test_training_on_fewer_queries_than_one_step_needs_raises():
    corpus = C.generate(SPEC)
    one = C.Corpus(corpus.videos, corpus.queries[:1], d_img=SPEC.d_img, d_sub=SPEC.d_sub, d_txt=SPEC.d_txt)
    with pytest.raises(C.CorpusError, match="retriever training needs at least 2 queries, got 1"):
        P.train_retriever(one, SMALL_TRAIN, model_config=R.RetrieverConfig(hidden=16, intermediate=32, heads=2))


def test_val_corpus_without_queries_raises_before_the_first_epoch():
    corpus = C.generate(SPEC)
    empty = C.Corpus(corpus.videos, [], d_img=SPEC.d_img, d_sub=SPEC.d_sub, d_txt=SPEC.d_txt)
    with mock.patch.object(R, "contrastive_loss", side_effect=AssertionError("a training step ran")), \
            pytest.raises(C.CorpusError, match="val corpus has no queries"):
        P.train_retriever(corpus, SMALL_TRAIN, model_config=R.RetrieverConfig(hidden=16, heads=2), val_corpus=empty)


@pytest.fixture
def fresh_keep_heap():
    """`P._keep_heap` with an empty cache, emptied again afterwards so no fake C library stays in it."""
    P._keep_heap.cache_clear()
    yield P._keep_heap
    P._keep_heap.cache_clear()


def test_training_sets_the_heap_thresholds_once_and_trims_after_each_fit(monkeypatch, fresh_keep_heap):
    calls = []
    libc = SimpleNamespace(mallopt=lambda *args: calls.append(("mallopt", *args)),
                           malloc_trim=lambda pad: calls.append(("malloc_trim", pad)))
    monkeypatch.setattr(P.ctypes, "CDLL", lambda name: libc)
    corpus = C.generate(SPEC)
    for _ in range(2):  # a second training, and so a second call, sets nothing again
        P.train_retriever(corpus, P.TrainConfig(retriever_epochs=1), model_config=R.RetrieverConfig(hidden=16, heads=2))
    # M_MMAP_THRESHOLD 32 MB and M_TRIM_THRESHOLD 64 MB, the tops of glibc's dynamic rule
    assert calls == [("mallopt", -3, 32 << 20), ("mallopt", -1, 64 << 20), ("malloc_trim", 0), ("malloc_trim", 0)]


@pytest.mark.parametrize("cdll", [lambda name: object(),
                                  lambda name: SimpleNamespace(mallopt=mock.Mock()),
                                  mock.Mock(side_effect=OSError("no C library"))],
                         ids=["no-mallopt", "no-malloc-trim", "no-c-library"])
def test_a_c_library_without_mallopt_leaves_the_heap_alone(monkeypatch, fresh_keep_heap, cdll):
    monkeypatch.setattr(P.ctypes, "CDLL", cdll)
    assert fresh_keep_heap() is None
    corpus = C.generate(SPEC)
    P.train_retriever(corpus, P.TrainConfig(retriever_epochs=1), model_config=R.RetrieverConfig(hidden=16, heads=2))


def test_default_training_steps_stay_within_their_tape_record_budgets():
    # default model and train configs, one full batch per stage; the unfused
    # attention, layer norm and linear chains made 199 and 391 records
    corpus = C.generate(C.SyntheticSpec(video_count=12, seed=0))
    cfg = P.TrainConfig()
    retr = R.RetrieverModel(corpus.d_txt, corpus.d_img, corpus.d_sub)
    with Tape() as tape:
        R.contrastive_loss(retr, R.make_batch(corpus, np.arange(cfg.retriever_batch)),
                           temperature=cfg.temperature, lam=cfg.lam, use_subtitles=corpus.has_subtitles)
    assert len(tape._records) <= 130
    loc = LocalizerModel(corpus.d_txt, corpus.d_img, corpus.d_sub)
    queries = corpus.queries[: cfg.localizer_batch]
    negatives = {q.id: [v.id for v in corpus.videos if v.id != q.target_video][: cfg.negatives_per_query]
                 for q in queries}
    with Tape() as tape:
        P.localizer_batch_loss(loc, corpus, queries, negatives, cfg, P.InferenceConfig())
    assert len(tape._records) <= 160


def closed_over(fn):
    """Every value `fn` closes over, and every value the functions among those close over."""
    values = [cell.cell_contents for cell in fn.__closure__ or ()]
    return values + [v for f in values if callable(f) and hasattr(f, "__closure__") for v in closed_over(f)]


def test_training_step_records_hold_no_tensor():
    # node ids and shapes key each record, and its functions keep arrays, so a dropped Tensor is freed
    corpus = C.generate(SPEC)
    retr = R.RetrieverModel(corpus.d_txt, corpus.d_img, corpus.d_sub, R.RetrieverConfig(hidden=16, heads=2))
    loc = LocalizerModel(corpus.d_txt, corpus.d_img, corpus.d_sub, LocalizerConfig(hidden=16, heads=2))
    queries = corpus.queries[:4]
    negatives = {q.id: [v.id for v in corpus.videos if v.id != q.target_video][:2] for q in queries}
    for loss in (lambda: R.contrastive_loss(retr, R.make_batch(corpus, np.arange(4))),
                 lambda: P.localizer_batch_loss(loc, corpus, queries, negatives, SMALL_TRAIN, ICFG)):
        with Tape() as tape:
            loss()
        assert len(tape._records) > 50
        for node, pairs in tape._records:
            assert type(node) is int
            for key, fn in pairs:
                for k in key if isinstance(key, list) else [key]:
                    assert k is None or type(k[0]) is int and type(k[1]) is tuple
                values = closed_over(fn)
                values += [u for v in values if isinstance(v, (tuple, list)) for u in v]
                assert not any(isinstance(v, Tensor) for v in values)


def shared_video_batch():
    """Three queries whose rows share videos: each query's target video is a mined negative of
    another query, and one further video is a negative of all three."""
    corpus = C.generate(C.SyntheticSpec(video_count=6, clips_per_video=6, queries_per_video=1, d_img=6,
                                        d_sub=6, d_txt=6, token_count_range=(3, 5), seed=3))
    queries = corpus.queries[:3]
    targets = [q.target_video for q in queries]
    shared = next(v.id for v in corpus.videos if v.id not in targets)
    negatives = {q.id: [targets[(i + 1) % 3], shared] for i, q in enumerate(queries)}
    model = at_generic_point(LocalizerModel(6, 6, 6, LocalizerConfig(hidden=8, intermediate=16, heads=2), seed=1), seed=1)
    return corpus, queries, negatives, model


def test_localizer_step_on_shared_videos_matches_the_per_row_step():
    corpus, queries, negatives, loc = shared_video_batch()
    icfg = P.InferenceConfig(moment_max_len=4)
    for gamma in (0.0, 0.8):
        cfg = P.TrainConfig(gamma=gamma)
        assert_same_step(lambda: P.localizer_batch_loss(loc, corpus, queries, negatives, cfg, icfg),
                         lambda: per_row_localizer_batch_loss(loc, corpus, queries, negatives, cfg, icfg),
                         loc.params)


def test_localizer_step_without_negatives_is_the_boundary_loss_alone():
    # no mined video gives no adversarial negative moment, so the adversarial term is left out, not weighted
    corpus, queries, _, loc = shared_video_batch()
    icfg = P.InferenceConfig(moment_max_len=4)
    boundary = P.localizer_batch_loss(loc, corpus, queries, {}, P.TrainConfig(gamma=0.0), icfg)
    with Tape() as tape:
        loss = P.localizer_batch_loss(loc, corpus, queries, {}, P.TrainConfig(gamma=0.8), icfg)
        tape.backward(loss)
    assert loss.data.tobytes() == boundary.data.tobytes()
    grads = {name: tape.grad(t) for name, t in loc.params.items()}
    assert not any(g.any() for name, g in grads.items() if name.startswith("adv."))
    assert any(g.any() for name, g in grads.items() if not name.startswith("adv."))


def test_localizer_step_on_shared_videos_gradients_match_fd():
    # boundary loss alone: the adversarial branch re-mines its moments from the scores, a step function
    corpus, queries, negatives, loc = shared_video_batch()
    cfg, icfg = P.TrainConfig(gamma=0.0), P.InferenceConfig(moment_max_len=4)
    err = fd_check_params(lambda: P.localizer_batch_loss(loc, corpus, queries, negatives, cfg, icfg),
                          loc.params, sample=1, rng=np.random.default_rng(0))
    assert err < RTOL


def test_training_steps_encode_each_distinct_query_and_video_once(monkeypatch):
    rows = []  # (encoder, batch rows it encoded)
    for name in ("encode_tokens", "encode_video_batch"):
        def spy(self, *arrays, _name=name, _encode=getattr(EncoderTrunk, name), **kwargs):
            rows.append((_name, arrays[0].shape[0]))
            return _encode(self, *arrays, **kwargs)
        monkeypatch.setattr(EncoderTrunk, name, spy)

    corpus, queries, negatives, loc = shared_video_batch()
    with Tape():
        P.localizer_batch_loss(loc, corpus, queries, negatives, P.TrainConfig(), P.InferenceConfig(moment_max_len=4))
    assert rows == [("encode_tokens", 3), ("encode_video_batch", 4)]  # of 9 rows

    rows.clear()
    corpus = C.generate(C.SyntheticSpec(video_count=4, clips_per_video=6, queries_per_video=2, seed=3))
    retr = R.RetrieverModel(corpus.d_txt, corpus.d_img, corpus.d_sub,
                            R.RetrieverConfig(hidden=8, intermediate=16, heads=2))
    with Tape():
        R.contrastive_loss(retr, R.make_batch(corpus, np.arange(8)))
    assert rows == [("encode_tokens", 8), ("encode_video_batch", 4)]


def test_localizer_loss_decreases_over_epochs():
    corpus = C.generate(SPEC)
    rcfg = R.RetrieverConfig(hidden=16, intermediate=32, heads=2)
    retr, _ = P.train_retriever(corpus, SMALL_TRAIN, model_config=rcfg)
    from vcmr.localizer import LocalizerConfig
    cfg = P.TrainConfig(seed=0, retriever_epochs=2, localizer_epochs=5,
                        negatives_per_query=2, learning_rate=1e-3)
    _, curve, _ = P.train_localizer(corpus, retr, cfg, ICFG,
                                    model_config=LocalizerConfig(hidden=16, intermediate=32, heads=2))
    values = [v for _, _, v in curve]
    assert values[4] < values[0]
