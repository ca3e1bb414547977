"""Retriever: pooling semantics, scoring oracles, relevance sampling, and the
contrastive training objective."""

import dataclasses
import gc
import weakref
from collections import Counter
from unittest import mock

import numpy as np
import pytest

from conftest import (RTOL, assert_same_step, at_generic_point, chain_score_video, fd_check_params, pad_pairs,
                      per_row_contrastive_loss, reference_score, sample_relevance)
from vcmr import corpus as C
from vcmr import nn
from vcmr import pipeline as P
from vcmr import retriever as R
from vcmr.autodiff import NonFiniteError, Tape
from vcmr.optim import AdamW

SPEC = C.SyntheticSpec(video_count=10, clips_per_video=8, queries_per_video=2, seed=1)


def make_model(pooling="modality_specific", seed=0, hidden=16):
    cfg = R.RetrieverConfig(hidden=hidden, intermediate=32, heads=2, pooling=pooling)
    return R.RetrieverModel(SPEC.d_txt, SPEC.d_img, SPEC.d_sub, cfg, seed=seed)


def unit_clip_rows(cosines, d=4):
    """Unit rows whose dot product with e0 equals the requested cosines."""
    rows = np.zeros((len(cosines), d))
    for i, c in enumerate(cosines):
        rows[i, 0] = c
        rows[i, 1] = np.sqrt(max(0.0, 1.0 - c * c))
    return rows


def one_video_index(image_cosines, subtitle_cosines):
    """Index of one video whose unit clip rows have the given cosines with e0."""
    n = len(image_cosines)
    return R.CorpusIndex(("v",), unit_clip_rows(image_cosines)[None], unit_clip_rows(subtitle_cosines)[None],
                         np.ones((1, n)))


def reps_along_e0(d=4):
    e0 = np.zeros(d)
    e0[0] = 1.0
    return R.ModalityQueryReps(q_image=e0, q_subtitle=e0.copy(),
                               alpha_image=np.ones(1), alpha_subtitle=np.ones(1))


# ---------------------------------------------------------------------------
# query encoder


def test_alpha_weights_sum_to_one():
    corpus = C.generate(SPEC)
    model = make_model()
    for q in corpus.queries[:6]:
        reps = R.encode_query(model, q)
        assert np.all(reps.alpha_image >= 0) and np.all(reps.alpha_subtitle >= 0)
        assert abs(reps.alpha_image.sum() - 1.0) < 1e-9
        assert abs(reps.alpha_subtitle.sum() - 1.0) < 1e-9


def test_single_token_query_alpha_is_one():
    model = make_model()
    q = C.Query("q", np.random.default_rng(0).normal(size=(1, SPEC.d_txt)), "v", (0, 0))
    reps = R.encode_query(model, q)
    assert np.allclose(reps.alpha_image, [1.0], atol=1e-12)
    # with a single token both modality reps equal that token's contextual rep
    assert np.allclose(reps.q_image, reps.q_subtitle, atol=1e-12)


@pytest.mark.parametrize("pooling", ["mean"])
def test_mean_and_max_pooling_collapse_modalities(pooling):
    corpus = C.generate(SPEC)
    model = make_model(pooling=pooling)
    for q in corpus.queries[:4]:
        reps = R.encode_query(model, q)
        assert np.array_equal(reps.q_image, reps.q_subtitle)


def assert_same_reps(got, want):
    for f in dataclasses.fields(R.ModalityQueryReps):
        assert np.array_equal(getattr(got, f.name), getattr(want, f.name)), f.name


@pytest.mark.parametrize("pooling", R.POOLING_MODES)
def test_encode_queries_rows_have_the_bits_of_one_query_encodes(pooling):
    corpus = C.generate(SPEC)
    model = make_model(pooling=pooling)
    lone = C.Query("lone", np.random.default_rng(0).normal(size=(3, SPEC.d_txt)), "v", (0, 0))
    queries = corpus.queries[::-1]
    queries.insert(5, lone)  # its token count is outside SPEC's token_count_range: a group of one
    counts = Counter(len(q.tokens) for q in queries).values()
    assert 1 in counts and max(counts) > 1
    got = R.encode_queries(model, queries)
    assert len(got) == len(queries)
    for reps, q in zip(got, queries):  # in input order
        assert_same_reps(reps, R.encode_query(model, q))
    for reps, want in zip(R.encode_queries(model, queries[::-1]), got[::-1]):
        assert_same_reps(reps, want)
    assert R.encode_queries(model, []) == []


def test_modality_specific_pooling_separates_modalities():
    corpus = C.generate(SPEC)
    model = make_model()
    reps = R.encode_query(model, corpus.queries[0])
    assert not np.array_equal(reps.q_image, reps.q_subtitle)


# ---------------------------------------------------------------------------
# video encoder


def test_single_clip_zero_subtitle_encodes_finite():
    model = make_model()
    video = C.Video("v", np.ones((1, SPEC.d_img)), np.zeros((1, SPEC.d_sub)), np.zeros(1, bool))
    image, subtitle = R.encode_video(model, video)
    assert image.shape == (1, model.config.hidden)
    assert np.all(np.isfinite(subtitle))


def test_clip_permutation_changes_encoding():
    model = make_model()
    r = np.random.default_rng(4)
    clips = r.normal(size=(4, SPEC.d_img + SPEC.d_sub))  # per clip: image, then subtitle
    has = np.ones(4, bool)
    image, _ = R.encode_video(model, C.Video("v", clips[:, :SPEC.d_img], clips[:, SPEC.d_img:], has))
    swapped = clips[[1, 0, 2, 3]]
    swapped, _ = R.encode_video(model, C.Video("v", swapped[:, :SPEC.d_img], swapped[:, SPEC.d_img:], has))
    assert not np.allclose(image[0], swapped[0])


def padded_video_batch(seed, lengths=(6, 4)):
    """Random videos of `lengths` clips, zero-padded into one batch by `pad_pairs`."""
    r = np.random.default_rng(seed)
    videos = [C.Video(f"v{i}", r.normal(size=(n, SPEC.d_img)), r.normal(size=(n, SPEC.d_sub)), np.ones(n, bool))
              for i, n in enumerate(lengths)]
    query = C.Query("q", np.ones((1, SPEC.d_txt)), "v0", (0, 0))
    _, _, images, subs, clip_mask = pad_pairs([(query, v) for v in videos])
    return videos, images, subs, clip_mask


def test_padded_clips_do_not_reach_valid_clips():
    model = make_model()
    _, images, subs, clip_mask = padded_video_batch(seed=0)
    img_r, sub_r = model.encode_video_batch(images, subs, clip_mask)
    r = np.random.default_rng(1)
    pad = clip_mask == 0.0
    images[pad] = r.normal(size=images[pad].shape) * 100.0
    subs[pad] = r.normal(size=subs[pad].shape) * 100.0
    img_r2, sub_r2 = model.encode_video_batch(images, subs, clip_mask)
    valid = clip_mask == 1.0
    assert np.array_equal(img_r.data[valid], img_r2.data[valid])
    assert np.array_equal(sub_r.data[valid], sub_r2.data[valid])
    assert not np.allclose(img_r.data[pad], img_r2.data[pad])


def test_pad_rows_zero_pads_rows_of_mixed_lengths():
    r = np.random.default_rng(5)
    lengths = [2, 5, 1, 3]
    images, subs = [r.normal(size=(n, 4)) for n in lengths], [r.normal(size=(n, 2)) for n in lengths]
    got = nn.pad_rows(images, subs)
    want = [np.stack([np.concatenate([row, np.zeros((5 - len(row), row.shape[1]))]) for row in rows])
            for rows in (images, subs)]
    want.append(np.array([[1.0] * n + [0.0] * (5 - n) for n in lengths]))
    assert len(got) == 3
    assert all(g.dtype == np.float64 and np.array_equal(g, w) for g, w in zip(got, want))


def test_padded_row_matches_unpadded_encoding():
    model = make_model()
    videos, images, subs, clip_mask = padded_video_batch(seed=2)
    img_r, sub_r = model.encode_video_batch(images, subs, clip_mask)
    for i, v in enumerate(videos):
        image, subtitle = R.encode_video(model, v)
        assert np.allclose(img_r.data[i, :len(v)], image, rtol=0.0, atol=1e-12)
        assert np.allclose(sub_r.data[i, :len(v)], subtitle, rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# scoring and relevance sampling


def test_score_constant_video_tie_breaks_to_zero():
    reps = reps_along_e0()
    index = one_video_index([0.5, 0.5, 0.5], [0.2, 0.2, 0.2])
    assert abs(R.score_video(reps, index)[0] - (0.5 + 0.2) / 2) < 1e-12
    assert sample_relevance(reps, index.image[0], index.subtitle[0], (0, 2)).strong == (0, 0)


def test_score_orthogonal_image_full_subtitle():
    reps = reps_along_e0()
    assert abs(R.score_video(reps, one_video_index([0.0, 0.0], [1.0, 0.3]))[0] - 0.5) < 1e-12


def test_score_matches_brute_force_double_loop():
    corpus = C.generate(SPEC)
    model = make_model()
    index = R.encode_corpus(model, corpus)
    r = np.random.default_rng(7)
    for _ in range(50):
        q = corpus.queries[r.integers(len(corpus.queries))]
        v = corpus.videos[r.integers(len(corpus.videos))]
        reps = R.encode_query(model, q)
        image, subtitle = R.encode_video(model, v)

        def cos(a, b):
            na, nb = np.linalg.norm(a), np.linalg.norm(b)
            return a @ b / (na * nb) if na > 0 and nb > 0 else 0.0

        phi_i = max(cos(reps.q_image, image[j]) for j in range(len(v)))
        phi_s = max(cos(reps.q_subtitle, subtitle[j]) for j in range(len(v)))
        got = R.score_video(reps, index)[index.ids.index(v.id)]
        assert abs(got - (phi_i + phi_s) / 2) < 1e-12
        assert -1.0 <= got <= 1.0


def test_sample_relevance_hand_case():
    # span [0,0] of a 3-clip video; image sims [0.9, 0.1, 0.2],
    # subtitle sims [0.3, 0.8, 0.1]
    reps = reps_along_e0()
    sample = sample_relevance(reps, unit_clip_rows([0.9, 0.1, 0.2]), unit_clip_rows([0.3, 0.8, 0.1]), (0, 0))
    assert sample.strong == (0, 0)
    assert sample.weak == (2, 1)
    assert abs(sample.strong_score - 0.6) < 1e-12
    assert abs(sample.weak_score - (0.2 + 0.8) / 2) < 1e-12


def test_sample_relevance_full_span_has_no_weak():
    reps = reps_along_e0()
    sample = sample_relevance(reps, unit_clip_rows([0.9, 0.1]), unit_clip_rows([0.3, 0.8]), (0, 1))
    assert sample.weak is None and sample.weak_score is None


def test_strong_indices_always_inside_span():
    model = make_model()
    for seed in range(5):
        corpus = C.generate(C.SyntheticSpec(video_count=4, clips_per_video=8,
                                            queries_per_video=2, seed=seed))
        for q in corpus.queries:
            image, subtitle = R.encode_video(model, corpus.video(q.target_video))
            sample = sample_relevance(R.encode_query(model, q), image, subtitle, q.span)
            st, ed = q.span
            assert st <= sample.strong[0] <= ed and st <= sample.strong[1] <= ed
            if sample.weak is not None:
                assert not (st <= sample.weak[0] <= ed)
                assert not (st <= sample.weak[1] <= ed)


# ---------------------------------------------------------------------------
# retrieval


def test_topk_matches_brute_force_and_late_fusion():
    corpus = C.generate(SPEC)
    model = make_model()
    index = R.encode_corpus(model, corpus)
    encodings = {v.id: R.encode_video(model, v) for v in corpus.videos}
    for q in corpus.queries[:8]:
        reps = R.encode_query(model, q)
        ref = sorted(
            ((vid, reference_score(reps, *enc)) for vid, enc in encodings.items()),
            key=lambda item: (-item[1], item[0]),
        )
        got = R.retrieve_topk(reps, corpus, k=len(corpus.videos), index=index)
        fresh = R.retrieve_topk(reps, corpus, k=len(corpus.videos), index=R.encode_corpus(model, corpus))
        assert got == ref  # brute-force oracle, bit-exact
        assert got == fresh  # precomputed encodings change nothing


def test_subtitle_free_corpus_ranks_by_image_score_alone(tmp_path):
    # the DiDeMo setting: the corpus has no subtitle stream
    C.save(dataclasses.replace(C.generate(SPEC), has_subtitles=False), str(tmp_path))
    corpus = C.load(str(tmp_path))
    assert corpus.has_subtitles is False
    model = make_model()
    index = R.encode_corpus(model, corpus)
    encodings = {v.id: R.encode_video(model, v) for v in corpus.videos}
    for q in corpus.queries[:4]:
        reps = R.encode_query(model, q)
        ranked = R.retrieve_topk(reps, corpus, k=len(corpus.videos), index=index)
        assert dict(ranked) == {vid: reference_score(reps, *enc, use_subtitles=False)
                                for vid, enc in encodings.items()}
        assert not np.array_equal(R.score_video(reps, index), R.score_video(reps, index, use_subtitles=False))


def test_topk_on_singleton_corpus():
    corpus = C.generate(C.SyntheticSpec(video_count=1, clips_per_video=8, seed=2))
    model = make_model()
    reps = R.encode_query(model, corpus.queries[0])
    ranked = R.retrieve_topk(reps, corpus, k=5, index=R.encode_corpus(model, corpus))
    assert len(ranked) == 1 and ranked[0][0] == corpus.videos[0].id


def test_retrieve_topk_rejects_bad_args():
    corpus = C.generate(SPEC)
    model = make_model()
    reps = R.encode_query(model, corpus.queries[0])
    with pytest.raises(ValueError):
        R.retrieve_topk(reps, corpus, k=0, index=R.encode_corpus(model, corpus))


def test_retrieve_topk_rejects_a_stale_index():
    corpus = C.generate(SPEC)
    model = make_model()
    dropped = corpus.videos[0].id
    fewer = dataclasses.replace(corpus, videos=corpus.videos[1:],
                                queries=[q for q in corpus.queries if q.target_video != dropped])
    reps = R.encode_query(model, fewer.queries[0])
    with pytest.raises(ValueError, match="index"):  # would rank a video the corpus does not hold
        R.retrieve_topk(reps, fewer, k=3, index=R.encode_corpus(model, corpus))
    with pytest.raises(ValueError, match="index"):  # misses one of the corpus's videos
        R.retrieve_topk(reps, corpus, k=3, index=R.encode_corpus(model, fewer))
    for split, other in ((fewer, corpus), (corpus, fewer)):
        with pytest.raises(ValueError, match="index"):
            P.evaluate_retrieval(model, split, R.encode_corpus(model, other))
    with mock.patch.object(R, "check_index", wraps=R.check_index) as check:
        P.evaluate_retrieval(model, corpus, R.encode_corpus(model, corpus))
    assert check.call_count == 1  # once per pass, not once per query
    for split, other in ((fewer, corpus), (corpus, fewer)):  # a direct call still refuses an index of other size
        with pytest.raises(ValueError, match="index"):
            P.rank_videos(R.encode_query(model, split.queries[0]), split, R.encode_corpus(model, other))
    with pytest.raises(ValueError, match="empty corpus"):
        R.encode_corpus(model, dataclasses.replace(corpus, videos=[], queries=[]))


def test_padded_clips_never_win():
    # the short video's clips all point away from the query; its padded third
    # row has cosine 0 and must not raise its score
    image, subtitle = np.zeros((2, 3, 4)), np.zeros((2, 3, 4))
    image[0], subtitle[0] = unit_clip_rows([0.1, 0.2, 0.3]), unit_clip_rows([0.4, 0.5, 0.6])
    image[1, :2], subtitle[1, :2] = unit_clip_rows([-0.5, -0.3]), unit_clip_rows([-0.9, -0.2])
    index = R.CorpusIndex(("long", "short"), image, subtitle, np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 0.0]]))
    scores = R.score_video(reps_along_e0(), index)
    assert abs(scores[0] - (0.3 + 0.6) / 2) < 1e-12
    assert abs(scores[1] - (-0.3 - 0.2) / 2) < 1e-12
    assert abs(R.score_video(reps_along_e0(), index, use_subtitles=False)[1] - -0.3) < 1e-12


def test_mixed_length_index_ranks_like_per_video_scores():
    base = C.generate(SPEC)
    lengths = [8, 3, 5, 1, 8, 2, 7, 4, 6, 8]
    videos = [C.Video(v.id, v.images[:n], v.subtitles[:n], v.has_subtitle[:n])
              for v, n in zip(reversed(base.videos), lengths)]
    corpus = C.Corpus(videos, [], d_img=base.d_img, d_sub=base.d_sub, d_txt=base.d_txt)
    model = make_model()
    index = R.encode_corpus(model, corpus)
    assert index.ids == tuple(sorted(v.id for v in videos))
    assert index.clip_mask.sum(axis=1).tolist() == [len(corpus.video(vid)) for vid in index.ids]
    with pytest.raises(ValueError):
        index.image[0, 0, 0] = 1.0  # read-only
    encodings = {v.id: R.encode_video(model, v) for v in videos}
    for q in base.queries[:8]:
        reps = R.encode_query(model, q)
        ref = sorted(((vid, reference_score(reps, *enc)) for vid, enc in encodings.items()),
                     key=lambda item: (-item[1], item[0]))
        got = R.retrieve_topk(reps, corpus, k=len(videos), index=index)
        assert [vid for vid, _ in got] == [vid for vid, _ in ref]
        assert np.allclose([s for _, s in got], [s for _, s in ref], rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("pooling", R.POOLING_MODES)
@pytest.mark.parametrize("use_subtitles", [True, False], ids=["subtitles", "image-only"])
@pytest.mark.parametrize("lengths", [[8] * 10, [8, 3, 5, 1, 8, 2, 7, 4, 6, 8]], ids=["equal-length", "padded"])
def test_score_video_has_the_bits_of_the_autodiff_chain(lengths, use_subtitles, pooling):
    base = C.generate(SPEC)
    videos = [C.Video(v.id, v.images[:n], v.subtitles[:n], v.has_subtitle[:n]) for v, n in zip(base.videos, lengths)]
    model = make_model(pooling=pooling)
    index = R.encode_corpus(model, C.Corpus(videos, [], d_img=base.d_img, d_sub=base.d_sub, d_txt=base.d_txt))
    assert index.clip_mask.all() == (len(set(lengths)) == 1)  # no padded clip, or some
    for reps in R.encode_queries(model, base.queries[:8]):
        got = R.score_video(reps, index, use_subtitles=use_subtitles)
        assert np.array_equal(got, chain_score_video(reps, index, use_subtitles=use_subtitles))


@pytest.mark.parametrize("bad", ["nan", "-inf cosine"])
@pytest.mark.parametrize("stream", ["image", "subtitle"])
def test_score_video_raises_on_a_nan_index_row(stream, bad):
    corpus = C.generate(SPEC)
    model = make_model()
    index = R.encode_corpus(model, corpus)
    reps = R.encode_query(model, corpus.queries[0])
    rows = getattr(index, stream).copy()
    if bad == "nan":
        rows[3, 2, 0] = np.nan
    else:  # one real clip of cosine -inf, which the max over the video's other clips would hide
        q = reps.q_image if stream == "image" else reps.q_subtitle
        j = np.argmax(np.abs(q))
        rows[3, 2] = 0.0
        rows[3, 2, j] = -np.inf * np.sign(q[j])
    with pytest.raises(NonFiniteError):
        R.score_video(reps, dataclasses.replace(index, **{stream: rows}))


# ---------------------------------------------------------------------------
# contrastive objective


def test_contrastive_loss_rejects_singleton_batch():
    corpus = C.generate(SPEC)
    model = make_model()
    batch = R.make_batch(corpus, [0])
    with pytest.raises(ValueError):
        R.contrastive_loss(model, batch)


def test_contrastive_loss_gradients_match_fd():
    corpus = C.generate(C.SyntheticSpec(video_count=6, clips_per_video=4,
                                        queries_per_video=1, d_img=6, d_sub=6, d_txt=6,
                                        token_count_range=(3, 5), seed=11))
    cfg = R.RetrieverConfig(hidden=8, intermediate=16, heads=2)
    model = R.RetrieverModel(6, 6, 6, cfg, seed=0)
    batch = R.make_batch(corpus, [0, 1, 2, 3])
    err = fd_check_params(
        lambda: R.contrastive_loss(model, batch, temperature=0.5),
        model.params, sample=2, rng=np.random.default_rng(0),
    )
    assert err < RTOL


def repeated_video_batch():
    """A batch of four queries on two videos, each video shared by two of its queries, interleaved."""
    corpus = C.generate(dataclasses.replace(SPEC, d_img=6, d_sub=6, d_txt=6, token_count_range=(3, 5)))
    by_video = {}
    for i, q in enumerate(corpus.queries):
        by_video.setdefault(q.target_video, []).append(i)
    idx = [i for pair in zip(*list(by_video.values())[:2]) for i in pair]
    batch = R.make_batch(corpus, idx)
    assert len(idx) == 4 and len(set(batch["video_ids"])) == 2
    return batch


def perturbed_model():
    return at_generic_point(R.RetrieverModel(6, 6, 6, R.RetrieverConfig(hidden=8, intermediate=16, heads=2)), seed=0)


def test_contrastive_loss_on_repeated_videos_matches_the_per_row_step():
    batch = repeated_video_batch()
    model = perturbed_model()
    assert_same_step(lambda: R.contrastive_loss(model, batch), lambda: per_row_contrastive_loss(model, batch),
                     model.params)


def test_contrastive_loss_on_repeated_videos_gradients_match_fd():
    batch = repeated_video_batch()
    model = perturbed_model()
    err = fd_check_params(lambda: R.contrastive_loss(model, batch, temperature=0.5),
                          model.params, sample=2, rng=np.random.default_rng(0))
    assert err < RTOL


def test_finished_tape_is_freed_without_the_cycle_collector():
    corpus = C.generate(SPEC)
    model = make_model()
    batch = R.make_batch(corpus, [0, 1, 2, 3])
    gc.disable()
    try:
        with Tape() as tape:
            tape.backward(R.contrastive_loss(model, batch))
        ref = weakref.ref(tape)
        del tape
        assert ref() is None
    finally:
        gc.enable()


def test_loss_decreases_over_first_50_steps():
    for seed in range(5):
        corpus = C.generate(C.SyntheticSpec(seed=seed))
        model = R.RetrieverModel(corpus.d_txt, corpus.d_img, corpus.d_sub, seed=seed)
        opt = AdamW(model.params, lr=1e-3)
        rng = np.random.default_rng(seed)
        first = last = None
        for step in range(50):
            idx = rng.choice(len(corpus.queries), size=8, replace=False)
            batch = R.make_batch(corpus, idx)
            with Tape() as tape:
                loss = R.contrastive_loss(model, batch)
                tape.backward(loss)
                grads = {n: tape.grad(t) for n, t in model.params.items()}
            opt.step(grads)
            if step == 0:
                first = loss.item()
            last = loss.item()
        assert last < first, f"seed {seed}: loss {first} -> {last}"
