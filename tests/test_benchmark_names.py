"""The benchmark harness wraps vcmr functions and methods by name.

`benchmarks/tracer.py` and `benchmarks/worker.py` patch names such as
`pipeline.infer` or `LocalizerModel.forward_rows` with `getattr`, so a
change that deletes or renames one of them would only fail the benchmark
run. These tests install both patchers on the package, check that
evaluation still calls the wrapped names once per query, and restore every
patched attribute afterwards. Nothing under `benchmarks/` is modified.
"""

import os
import sys

import pytest

import vcmr
from vcmr import corpus as C
from vcmr import optim, pipeline, retriever
from vcmr.localizer import LocalizerConfig, LocalizerModel
from vcmr.retriever import RetrieverConfig, RetrieverModel

BENCH_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "benchmarks")

# (owner, attribute) pairs that worker.Clock.install replaces
CLOCK_PATCHED = [(pipeline, "rank_videos"), (pipeline, "infer"), (pipeline, "infer_single_video"),
                 (pipeline, "evaluate_retrieval"), (retriever, "encode_corpus"), (optim.AdamW, "step")]


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(BENCH_DIR)
    import tracer
    import worker

    yield tracer, worker
    for name in ("tracer", "worker"):
        sys.modules.pop(name, None)


def test_tracer_wraps_every_name_and_sees_one_infer_per_query(bench):
    tracer_mod, _ = bench
    corpus = C.generate(C.SyntheticSpec(video_count=4, clips_per_video=4, queries_per_video=1,
                                        moment_len_range=(1, 2), seed=0))
    retr = RetrieverModel(corpus.d_txt, corpus.d_img, corpus.d_sub,
                          RetrieverConfig(hidden=8, intermediate=16, heads=2))
    loc = LocalizerModel(corpus.d_txt, corpus.d_img, corpus.d_sub,
                         LocalizerConfig(hidden=8, intermediate=16, heads=2))
    icfg = pipeline.InferenceConfig(top_k_videos=2, moment_max_len=4)
    before = dict(pipeline.__dict__)
    tracer = tracer_mod.Tracer()
    tracer.install(vcmr)
    try:
        assert pipeline.infer is not before["infer"]
        pipeline.evaluate_pipeline(retr, loc, corpus, icfg)
        totals = tracer.totals()
    finally:
        tracer.uninstall()
    assert {k: pipeline.__dict__[k] for k in before} == before
    n = len(corpus.queries)
    assert totals["pipeline.infer.calls"] == n
    assert totals["pipeline.infer_single_video.calls"] == n
    assert totals["localizer.LocalizerModel.forward_rows.calls"] == 2 * n
    assert totals["retriever.score_video.calls"] == 3 * n  # one per VR, SVMR and VCMR retrieval
    assert totals["retriever.encode_query.calls"] == 2 * n  # SVMR and VCMR; VR encodes the split by token count
    assert totals["retriever.encode_video.calls"] == len(corpus.videos)  # one index, one call per video
    assert totals["autodiff.Tape.record.calls"] == 0  # inference builds no graph
    # the per-layer nn.* metrics count these names only when callers go through nn
    for name in ("multi_head_attention", "layer_norm", "linear"):
        assert totals[f"nn.{name}.calls"] > 0


def test_clock_install_resolves_its_names(bench):
    _, worker = bench
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr in CLOCK_PATCHED]
    try:
        worker.Clock().install()
        for owner, attr, original in originals:
            assert owner.__dict__[attr] is not original
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)
