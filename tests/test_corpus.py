"""Synthetic corpus: determinism, planted-relevance structure, persistence,
and validation errors."""

import dataclasses
import hashlib
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcmr import corpus as C


SMALL = C.SyntheticSpec(video_count=12, clips_per_video=16, queries_per_video=2, seed=3)


def concept_of(query):
    """Recover the latent concept direction from the noisy tokens."""
    c = query.tokens.mean(axis=0)
    return c / np.linalg.norm(c)


def in_span_similarities(corpus):
    """Per query: (best in-span cosine, best out-of-span cosine) per channel."""
    rows = []
    for q in corpus.queries:
        v = corpus.video(q.target_video)
        c = concept_of(q)
        img = v.image_matrix()
        sub = v.subtitle_matrix()
        sims = {}
        for name, mat in (("img", img), ("sub", sub)):
            norms = np.linalg.norm(mat, axis=1)
            cos = (mat @ c) / np.where(norms > 0, norms, 1.0)
            inside = np.zeros(len(v), dtype=bool)
            inside[q.span[0] : q.span[1] + 1] = True
            sims[name] = (cos[inside].max(), cos[~inside].max() if (~inside).any() else -1.0)
        rows.append(sims)
    return rows


def test_generation_is_deterministic():
    a = C.generate(SMALL)
    b = C.generate(SMALL)
    assert a == b
    c = C.generate(dataclasses.replace(SMALL, seed=SMALL.seed + 1))
    assert a != c


def test_noiseless_visual_spec_has_exact_signal():
    spec = dataclasses.replace(SMALL, noise_sigma=0.0, visual_ratio=1.0)
    corpus = C.generate(spec)
    for q in corpus.queries:
        v = corpus.video(q.target_video)
        c = concept_of(q)
        for j in range(q.span[0], q.span[1] + 1):
            clip = v.images[j]
            cos = clip @ c / (np.linalg.norm(clip) * np.linalg.norm(c))
            assert cos > 1.0 - 1e-9  # identity projection, zero noise


def test_default_spec_separation_ratio():
    # brute-force scan: mean in-span vs mean out-of-span query-clip cosine
    # on the planted channel
    corpus = C.generate(C.SyntheticSpec())
    in_mean, out_mean = [], []
    for q in corpus.queries:
        v = corpus.video(q.target_video)
        c = concept_of(q)
        inside = np.zeros(len(v), dtype=bool)
        inside[q.span[0] : q.span[1] + 1] = True
        channel = None
        for mat in (v.image_matrix(), v.subtitle_matrix()):
            norms = np.linalg.norm(mat, axis=1)
            cos = (mat @ c) / np.where(norms > 0, norms, 1.0)
            if channel is None or cos[inside].mean() > channel[inside].mean():
                channel = cos
        in_mean.append(channel[inside].mean())
        out_mean.append(channel[~inside].mean())
    ratio = np.mean(in_mean) / abs(np.mean(out_mean))
    assert ratio > 5.0


def test_modality_split_signal_stays_in_one_channel():
    corpus = C.generate(C.SyntheticSpec(seed=5))
    margin = 3 * corpus.spec.noise_sigma
    split_seen = {"img": 0, "sub": 0}
    for sims in in_span_similarities(corpus):
        img_in, sub_in = sims["img"][0], sims["sub"][0]
        planted = "img" if img_in > sub_in else "sub"
        other = sub_in if planted == "img" else img_in
        split_seen[planted] += 1
        assert max(img_in, sub_in) - other >= margin
    assert split_seen["img"] > 0 and split_seen["sub"] > 0  # visual_ratio=0.5


def test_span_ratio_configurable_and_near_target():
    corpus = C.generate(C.SyntheticSpec())
    target = corpus.spec.target_span_ratio
    assert abs(C.span_ratio(corpus) - target) <= 0.2 * target
    wide = C.generate(C.SyntheticSpec(moment_len_range=(4, 6), queries_per_video=1))
    assert C.span_ratio(wide) > C.span_ratio(corpus)


def test_spans_within_video_and_disjoint_per_video():
    corpus = C.generate(C.SyntheticSpec(video_count=30, queries_per_video=3, seed=9))
    per_video = {}
    for q in corpus.queries:
        st, ed = q.span
        assert 0 <= st <= ed < len(corpus.video(q.target_video))
        per_video.setdefault(q.target_video, []).append((st, ed))
    for spans in per_video.values():
        covered = set()
        for st, ed in spans:
            cells = set(range(st, ed + 1))
            assert not cells & covered
            covered |= cells


def test_absent_subtitles_materialize_as_zeros():
    spec = dataclasses.replace(SMALL, subtitle_absent_prob=0.6, seed=21)
    corpus = C.generate(spec)
    absent = [(v, j) for v in corpus.videos for j in np.flatnonzero(~v.has_subtitle)]
    assert absent, "expected some absent subtitles at prob 0.6"
    v, j = absent[0]
    assert np.array_equal(v.subtitle_matrix()[j], np.zeros(spec.d_sub))


def test_round_trip_identity(tmp_path):
    corpus = C.generate(SMALL)
    C.save(corpus, tmp_path / "c")
    assert C.load(tmp_path / "c") == corpus


def test_save_is_deterministic(tmp_path):
    corpus = C.generate(SMALL)
    C.save(corpus, tmp_path / "a")
    C.save(corpus, tmp_path / "b")
    for name in ("videos.jsonl", "queries.jsonl", "corpus.meta.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


# sha256 of the files that `save` writes for PINNED, recorded when videos still
# stored one object per clip; a mismatch means the file format changed
PINNED = C.SyntheticSpec(video_count=4, clips_per_video=8, queries_per_video=2,
                         subtitle_absent_prob=0.6, seed=21)
PINNED_SHA256 = {
    "videos.jsonl": "5603ad892a943e4b21b9ff6e8048334e9cca3585e97e79db02c322704b9af991",
    "queries.jsonl": "9c3f00754082619981ef61f4afab1124bf12bfeb3bab73d5b9f328dcf6ad093a",
    "corpus.meta.json": "fd3fcd1d733b6360ad91f27980a89db5bb543eb761b98e8905cda19bf8b7b155",
}


def test_saved_bytes_match_the_pinned_format(tmp_path):
    C.save(C.generate(PINNED), tmp_path / "c")
    assert b'"subtitle": null' in (tmp_path / "c" / "videos.jsonl").read_bytes()
    digests = {name: hashlib.sha256((tmp_path / "c" / name).read_bytes()).hexdigest() for name in PINNED_SHA256}
    assert digests == PINNED_SHA256


def test_video_arrays_are_read_only():
    video = C.generate(SMALL).videos[0]
    for array in (video.image_matrix(), video.subtitle_matrix(), video.has_subtitle):
        with pytest.raises(ValueError):
            array[0] = 1


def test_video_does_not_change_when_the_callers_arrays_are_written():
    r = np.random.default_rng(4)
    images, subtitles = r.normal(size=(4, 3)), r.normal(size=(4, 3))
    has_subtitle = np.array([True, False, True, True])
    video = C.Video(id="v", images=images, subtitles=subtitles, has_subtitle=has_subtitle)
    want = [images.copy(), np.where(has_subtitle[:, None], subtitles, 0.0), has_subtitle.copy()]
    images[:], subtitles[:], has_subtitle[:] = 7.0, 7.0, False
    assert all(np.array_equal(got, w) for got, w in zip((video.images, video.subtitles, video.has_subtitle), want))


def test_video_zeroes_absent_subtitles_of_read_only_arrays_in_a_copy():
    subtitles = np.array([[1.0, 2.0], [-0.0, 3.0]])
    subtitles.flags.writeable = False
    video = C.Video(id="v", images=np.ones((2, 2)), subtitles=subtitles, has_subtitle=[True, False])
    assert np.array_equal(subtitles, [[1.0, 2.0], [-0.0, 3.0]])
    assert np.array_equal(video.subtitles, [[1.0, 2.0], [0.0, 0.0]])
    assert not np.signbit(video.subtitles[1]).any()  # +0.0, as on a writable input


@st.composite
def held_arrays(draw, shape, dtypes):
    """An array a caller holds: of a drawn dtype, owning its memory or a view of a larger array, writable or not."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = rng.integers(-3, 4, size=(2, *shape)).astype(draw(st.sampled_from(dtypes)))
    out = base[1] if draw(st.booleans()) else base[1].copy()
    out.flags.writeable = draw(st.booleans())
    return out


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_records_copy_each_array_once_into_a_read_only_array_of_their_own(data):
    n, d = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3))
    numbers = [np.float64, np.float32, np.int64]
    images, subtitles, tokens = (data.draw(held_arrays((n, d), numbers)) for _ in range(3))
    has_subtitle = data.draw(held_arrays((n,), [bool]))
    want = [images.astype(np.float64), np.where(has_subtitle[:, None], subtitles, 0.0), has_subtitle.copy(),
            tokens.astype(np.float64)]
    video = C.Video("v", images, subtitles, has_subtitle)
    query = C.Query("q", tokens, "v", (0, 0))
    kept = [video.images, video.subtitles, video.has_subtitle, query.tokens]
    held = [images, subtitles, has_subtitle, tokens]
    for array, given_array, dtype in zip(kept, held, [np.float64, np.float64, bool, np.float64]):
        assert array.dtype == dtype and not array.flags.writeable and not np.shares_memory(array, given_array)
    for given_array in held:  # the caller makes its arrays writable again and writes them
        given_array.flags.writeable = True
        given_array[...] = ~given_array if given_array.dtype == bool else 7
    assert all(np.array_equal(array, w) for array, w in zip(kept, want))


@pytest.mark.parametrize("images, subtitles, has_subtitle", [
    (np.ones((2, 3)), np.ones((3, 3)), [True, True]),
    (np.ones((2, 3)), np.ones((2, 3)), [True]),
    (np.ones(3), np.ones((3, 3)), [True, True, True]),
    (1.0, np.ones((1, 3)), [True]),
], ids=["subtitle-rows", "mask-length", "1-d-images", "0-d-images"])
def test_video_arrays_that_are_not_one_clip_sequence_raise_naming_the_video(images, subtitles, has_subtitle):
    with pytest.raises(C.CorpusError, match="video 'v7': images"):
        C.Video("v7", images, subtitles, has_subtitle)


RAGGED, STRINGS = [[1.0, 2.0], [3.0]], [["a", "b"], ["c", "d"]]  # arrays NumPy cannot convert to float64


@pytest.mark.parametrize("tokens", [np.ones(3), np.zeros((0, 3)), [], 1.0, RAGGED, STRINGS, "ab"],
                         ids=["1-d", "no-rows", "empty", "0-d", "ragged", "strings", "string"])
def test_query_tokens_that_are_not_rows_raise_naming_the_query(tokens):
    with pytest.raises(C.CorpusError, match="query 'q7': tokens"):
        C.Query("q7", tokens, "v", (0, 0))


@pytest.mark.parametrize("value", [RAGGED, STRINGS, "ab"], ids=["ragged", "strings", "string"])
@pytest.mark.parametrize("field", ["images", "subtitles"])
def test_video_arrays_numpy_cannot_convert_raise_naming_the_video_and_field(field, value):
    arrays = {"images": np.ones((2, 2)), "subtitles": np.ones((2, 2)), "has_subtitle": [True, True], field: value}
    with pytest.raises(C.CorpusError, match=f"video 'v7': {field} cannot be read as a float64 array"):
        C.Video("v7", **arrays)


@pytest.mark.parametrize("span", [("a", 0), (0, None), (0.0, 1), (True, 1), (0,), (0, 1, 2), 0, None])
def test_query_span_that_is_not_two_integers_raises_naming_the_query(span):
    with pytest.raises(C.CorpusError, match="query 'q7': span .* is not two integers"):
        C.Query("q7", np.ones((1, 2)), "v", span)


def test_loaded_corpus_arrays_are_read_only(tmp_path):
    C.save(C.generate(SMALL), tmp_path / "c")
    for video in C.load(tmp_path / "c").videos:
        for array in (video.image_matrix(), video.subtitle_matrix(), video.has_subtitle):
            with pytest.raises(ValueError):
                array[0] = 1


def test_load_reports_line_number_on_malformed_json(tmp_path):
    corpus = C.generate(SMALL)
    C.save(corpus, tmp_path / "c")
    qpath = tmp_path / "c" / "queries.jsonl"
    lines = qpath.read_text().splitlines()
    lines[2] = lines[2][:-10]
    qpath.write_text("\n".join(lines) + "\n")
    with pytest.raises(C.CorpusError, match=":3:"):
        C.load(tmp_path / "c")


def test_load_reports_line_number_on_non_utf8_bytes(tmp_path):
    C.save(C.generate(SMALL), tmp_path / "c")
    vpath = tmp_path / "c" / "videos.jsonl"
    lines = vpath.read_bytes().splitlines()
    lines[1] = lines[1][:20] + b"\xff\xfe" + lines[1][22:]
    vpath.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(C.CorpusError, match=":2: not UTF-8"):
        C.load(tmp_path / "c")


def test_load_rejects_missing_video_reference(tmp_path):
    corpus = C.generate(SMALL)
    C.save(corpus, tmp_path / "c")
    qpath = tmp_path / "c" / "queries.jsonl"
    lines = qpath.read_text().splitlines()
    rec = json.loads(lines[0])
    rec["video"] = "v99999"
    lines[0] = json.dumps(rec)
    qpath.write_text("\n".join(lines) + "\n")
    with pytest.raises(C.CorpusError, match="v99999"):
        C.load(tmp_path / "c")


def test_load_rejects_dimension_mismatch(tmp_path):
    corpus = C.generate(SMALL)
    C.save(corpus, tmp_path / "c")
    vpath = tmp_path / "c" / "videos.jsonl"
    lines = vpath.read_text().splitlines()
    rec = json.loads(lines[0])
    rec["clips"][0]["image"] = rec["clips"][0]["image"][:-1]
    lines[0] = json.dumps(rec)
    vpath.write_text("\n".join(lines) + "\n")
    with pytest.raises(C.CorpusError, match="dim"):
        C.load(tmp_path / "c")


@pytest.mark.parametrize("name, what", [(C.VIDEOS_FILE, "video"), (C.QUERIES_FILE, "query")])
def test_load_rejects_duplicate_id(tmp_path, name, what):
    C.save(C.generate(SMALL), tmp_path / "c")
    path = tmp_path / "c" / name
    lines = path.read_text().splitlines()
    first, second = json.loads(lines[0]), json.loads(lines[1])
    second["id"] = first["id"]
    lines[1] = json.dumps(second)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(C.CorpusError, match=f"{name}:2: {what} id '{first['id']}' is already used at .*{name}:1"):
        C.load(tmp_path / "c")


def edit_second_record(path, edit):
    lines = path.read_text().splitlines()
    rec = json.loads(lines[1])
    edit(rec)
    lines[1] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("name, edit, message", [
    (C.VIDEOS_FILE, lambda rec: rec["clips"][0]["image"].__setitem__(0, True), "clip 0 image must be a list"),
    (C.VIDEOS_FILE, lambda rec: rec["clips"][1]["subtitle"].__setitem__(3, False), "clip 1 subtitle must be a list"),
    (C.QUERIES_FILE, lambda rec: rec["tokens"][1].__setitem__(2, False), "tokens must be a list"),
], ids=["image-true", "subtitle-false", "token-false"])
def test_load_rejects_true_or_false_in_a_list_of_numbers(tmp_path, name, edit, message):
    # NumPy reads [true, 0.5] as [1.0, 0.5], so the type is checked before the numbers are
    C.save(C.generate(SMALL), tmp_path / "c")
    edit_second_record(tmp_path / "c" / name, edit)
    with pytest.raises(C.CorpusError, match=f"{name}:2: {message}"):
        C.load(tmp_path / "c")


def test_load_ignores_true_or_false_under_keys_it_does_not_read(tmp_path):
    corpus = C.generate(SMALL)
    C.save(corpus, tmp_path / "c")
    edit_second_record(tmp_path / "c" / C.VIDEOS_FILE, lambda rec: (rec.__setitem__("reviewed", [True, 0.5]),
                                                                    rec["clips"][0].__setitem__("verified", True)))
    edit_second_record(tmp_path / "c" / C.QUERIES_FILE, lambda rec: rec.__setitem__("checked", False))
    assert C.load(tmp_path / "c") == corpus


def test_load_reads_zeros_and_ones(tmp_path):
    # a list holding 0 or 1 is searched for true and false, and holds none
    C.save(C.generate(SMALL), tmp_path / "c")
    edit_second_record(tmp_path / "c" / C.VIDEOS_FILE,
                       lambda rec: rec["clips"][0]["image"].__setitem__(slice(0, 2), [1.0, 0]))
    edit_second_record(tmp_path / "c" / C.QUERIES_FILE, lambda rec: rec["tokens"][0].__setitem__(slice(0, 2), [1, 0.0]))
    loaded = C.load(tmp_path / "c")
    assert loaded.videos[1].images[0, :2].tolist() == [1.0, 0.0]
    assert loaded.queries[1].tokens[0, :2].tolist() == [1.0, 0.0]


@pytest.mark.parametrize("value", ["no", 1, None])
def test_load_rejects_has_subtitles_that_is_not_a_bool(tmp_path, value):
    C.save(C.generate(SMALL), tmp_path / "c")
    meta_path = tmp_path / "c" / C.META_FILE
    meta = json.loads(meta_path.read_text())
    meta["has_subtitles"] = value
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(C.CorpusError, match="has_subtitles"):
        C.load(tmp_path / "c")


@pytest.mark.parametrize("edit", [
    lambda meta: meta.pop("spec"),
    lambda meta: meta.__setitem__("spec", dict(meta["spec"], moment_len_range=3)),
    lambda meta: meta.__setitem__("spec", "not a spec"),
], ids=["missing", "malformed-field", "not-an-object"])
def test_load_does_not_read_the_meta_spec(tmp_path, edit):
    corpus = C.generate(SMALL)
    C.save(corpus, tmp_path / "c")
    meta_path = tmp_path / "c" / C.META_FILE
    meta = json.loads(meta_path.read_text())
    edit(meta)
    meta_path.write_text(json.dumps(meta))
    loaded = C.load(tmp_path / "c")
    assert loaded == corpus and loaded.spec is None


def test_corpus_validation_errors():
    v = C.Video(id="v0", images=np.zeros((4, 4)), subtitles=np.zeros((4, 4)), has_subtitle=np.zeros(4, bool))
    with pytest.raises(C.CorpusError, match="missing video"):
        C.Corpus(videos=[v], queries=[C.Query("q", np.zeros((2, 4)), "nope", (0, 1))])
    with pytest.raises(C.CorpusError, match="out of range"):
        C.Corpus(videos=[v], queries=[C.Query("q", np.zeros((2, 4)), "v0", (2, 7))])
    with pytest.raises(C.CorpusError, match="duplicate"):
        C.Corpus(videos=[v, dataclasses.replace(v)], queries=[])
    q = C.Query("q", np.zeros((2, 4)), "v0", (0, 1))
    with pytest.raises(C.CorpusError, match="duplicate query id 'q'"):
        C.Corpus(videos=[v], queries=[q, dataclasses.replace(q, span=(1, 2))])


def test_spec_validation_errors():
    with pytest.raises(C.CorpusError, match="infeasible"):
        C.SyntheticSpec(moment_len_range=(5, 40))
    with pytest.raises(C.CorpusError, match="positive"):
        C.SyntheticSpec(video_count=0)
    with pytest.raises(C.CorpusError, match="visual_ratio"):
        C.SyntheticSpec(visual_ratio=1.5)
