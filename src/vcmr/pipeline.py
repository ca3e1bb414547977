"""Two-stage orchestration: train retriever, mine hard negatives, train
localizer, then retrieve-and-localize inference with combined scoring, NMS,
and the VR / SVMR / VCMR recall metrics."""

from __future__ import annotations

import ctypes
import functools
import itertools
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import localizer as loc_mod
from . import retriever as ret_mod
from .autodiff import Tape
from .localizer import LocalizerConfig, LocalizerModel
from .nn import encode_once
from .optim import AdamW
from .retriever import RetrieverConfig, RetrieverModel
from .spans import _iou, nms, sample_positive_spans, span_table, suppression_table, top_spans


@dataclass(frozen=True)
class TrainConfig:
    retriever_epochs: int = 30
    retriever_batch: int = 32
    localizer_epochs: int = 15
    localizer_batch: int = 32
    negatives_per_query: int = 4
    mining_pool: int = 100
    lam: float = 0.5
    gamma: float = 0.8
    temperature: float = 0.01
    learning_rate: float = 3e-3  # desk-scale default; 1e-4 at full scale
    weight_decay: float = 0.01
    seed: int = 0

    def __post_init__(self):
        for name in ("retriever_epochs", "retriever_batch", "localizer_epochs", "localizer_batch",
                     "negatives_per_query", "mining_pool"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.retriever_batch < 2:  # a retriever step needs two queries, so batch 1 would train nothing
            raise ValueError(f"retriever_batch must be at least 2 for in-batch contrastive learning, "
                             f"got {self.retriever_batch}")
        if self.mining_pool < self.negatives_per_query:
            raise ValueError(f"mining_pool {self.mining_pool} is below negatives_per_query {self.negatives_per_query}")
        for name in ("temperature", "learning_rate"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("weight_decay", "lam", "gamma"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")


@dataclass(frozen=True)
class InferenceConfig:
    top_k_videos: int = 10
    moment_min_len: int = 1
    moment_max_len: int = 24
    nms_threshold: float = 0.7
    results_per_query: int = 100
    score_temperature: float = 0.01  # divisor applied to the retrieval score

    def __post_init__(self):
        if not (1 <= self.moment_min_len <= self.moment_max_len):
            raise ValueError("moment length limits must satisfy 1 <= min <= max")
        if not (0 < self.nms_threshold <= 1):
            raise ValueError("nms_threshold must lie in (0, 1]")
        if self.top_k_videos < 1 or self.results_per_query < 1:
            raise ValueError("top_k_videos and results_per_query must be positive")
        if self.score_temperature <= 0:
            raise ValueError("score_temperature must be positive")


@dataclass
class MomentPrediction:
    video_id: str
    span: tuple[int, int]
    score: float


@dataclass
class MetricsReport:
    vr: dict[str, float] = field(default_factory=dict)
    svmr: dict[str, float] = field(default_factory=dict)
    vcmr: dict[str, float] = field(default_factory=dict)

    def to_dict(self):
        return {"vr": dict(self.vr), "svmr": dict(self.svmr), "vcmr": dict(self.vcmr)}


VR_KS = (1, 5, 10, 100)
MOMENT_KS = (1, 10, 100)
MOMENT_PS = (0.5, 0.7)


class DivergenceError(ArithmeticError):
    """Training produced a non-finite loss."""


# ---------------------------------------------------------------------------
# training loop shared by both stages


@functools.cache
def _keep_heap():
    """Let glibc keep freed memory between training steps. A step frees each
    array once backward has read it, and at glibc's default thresholds the
    heap's top went back to the kernel after a step and faulted in again on
    the next. The values are the largest that glibc's own dynamic rule sets
    on a 64-bit host. Once per process; returns `malloc_trim`, which `_fit`
    calls when training ends to hand the kept heap back. Where the C library
    cannot be opened (Windows takes no None) or has no `mallopt` or
    `malloc_trim`, sets nothing and returns None."""
    try:
        libc = ctypes.CDLL(None)
        mallopt, trim = libc.mallopt, libc.malloc_trim
    except (OSError, TypeError, AttributeError):
        return None
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    trim.argtypes, trim.restype = (ctypes.c_size_t,), ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: arrays under 32 MB come from the heap
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD: its top is trimmed only past 64 MB free
    return trim


def _fit(stage, model, config: TrainConfig, n_queries, epochs, batch, batch_loss, spawn_key, min_batch=1):
    """AdamW over shuffled batches of query indices from the stage's stream of
    `config.seed`, skipping batches under `min_batch`; yields (epoch, mean loss). Fewer than `min_batch`
    queries would leave every epoch without a step, so they raise ValueError before the first epoch."""
    if n_queries < min_batch:
        raise ValueError(f"{stage} training needs at least {min_batch} queries, got {n_queries}")
    trim = _keep_heap()
    opt = AdamW(model.params, lr=config.learning_rate, weight_decay=config.weight_decay)
    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=spawn_key))
    for epoch in range(1, epochs + 1):
        order = rng.permutation(n_queries)
        losses = []
        for start in range(0, len(order), batch):
            idx = order[start : start + batch]
            if len(idx) < min_batch:
                continue
            try:
                with Tape() as tape:
                    loss = batch_loss(idx)
                    tape.backward(loss)
                    grads = {name: tape.grad(t) for name, t in model.params.items()}
            except ad.NonFiniteError as exc:
                raise DivergenceError(
                    f"{stage} loss became non-finite at epoch {epoch}, step {start // batch}") from exc
            losses.append(loss.item())
            opt.step(grads)
        yield epoch, float(np.mean(losses))
    if trim is not None:  # hand the heap kept between steps back
        trim(0)


# ---------------------------------------------------------------------------
# stage 1: retriever


def train_retriever(corpus, config: TrainConfig, model_config: RetrieverConfig | None = None, val_corpus=None):
    """Train the retriever with in-batch contrastive learning.

    Returns (model, loss_curve) where loss_curve is a list of
    (epoch, split, value) rows; validation rows hold VR R@10. The model is
    left at the epoch with the best validation R@10 (or the final epoch when
    no validation corpus is given). Deterministic given config.seed.
    """
    model = RetrieverModel(corpus.d_txt, corpus.d_img, corpus.d_sub, model_config, seed=config.seed)

    def batch_loss(idx):
        return ret_mod.contrastive_loss(model, ret_mod.make_batch(corpus, idx), temperature=config.temperature,
                                        lam=config.lam, use_subtitles=corpus.has_subtitles)

    curve = []
    best = None  # (r10, state)
    for epoch, loss in _fit("retriever", model, config, len(corpus.queries), config.retriever_epochs,
                            config.retriever_batch, batch_loss, spawn_key=(1,), min_batch=2):
        curve.append((epoch, "train", loss))
        if val_corpus is not None:
            r10 = evaluate_retrieval(model, val_corpus, ret_mod.encode_corpus(model, val_corpus)).vr["R@10"]
            curve.append((epoch, "val", r10))
            if best is None or r10 > best[0]:
                best = (r10, model.params.state_dict())
    if best is not None:
        model.params.load_state_dict(best[1])
    return model, curve


def rank_videos(reps, corpus, index):
    return ret_mod.retrieve_topk(reps, corpus, k=len(corpus.videos), index=index)


def evaluate_retrieval(model: RetrieverModel, corpus, index):
    reps = ret_mod.encode_queries(model, corpus.queries)
    rankings = {q.id: [vid for vid, _ in rank_videos(r, corpus, index=index)] for q, r in zip(corpus.queries, reps)}
    return evaluate(rankings, corpus, task="vr")


# ---------------------------------------------------------------------------
# hard-negative mining


def mine_hard_negatives(model: RetrieverModel, corpus, config: TrainConfig):
    """Per query: rank the corpus, drop the ground-truth video, then sample
    `negatives_per_query` uniformly without replacement from the top of the
    ranking (pool capped at `mining_pool`). Seed-deterministic."""
    n = config.negatives_per_query
    if len(corpus.videos) < n + 1:
        raise ValueError(f"corpus of {len(corpus.videos)} videos cannot supply {n} negatives per query")
    index = ret_mod.encode_corpus(model, corpus)
    out = {}
    for qi, (query, reps) in enumerate(zip(corpus.queries, ret_mod.encode_queries(model, corpus.queries))):
        ranked = [vid for vid, _ in rank_videos(reps, corpus, index=index) if vid != query.target_video]
        pool = ranked[: min(config.mining_pool, len(ranked))]
        rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(2, qi)))
        picks = rng.choice(len(pool), size=n, replace=False)
        out[query.id] = [pool[i] for i in sorted(picks)]
    return out


# ---------------------------------------------------------------------------
# stage 2: localizer


def _localizer_rows(corpus, queries, negatives):
    """Stack (query, video) rows: for each query its ground-truth video first,
    then its mined negative videos. Returns (rows, groups)."""
    rows = []  # (query, video)
    groups = []  # per query: list of row indices, gt first
    for q in queries:
        vids = [q.target_video] + list(negatives.get(q.id, ()))
        start = len(rows)
        rows.extend((q, corpus.video(v)) for v in vids)
        groups.append(list(range(start, len(rows))))
    return rows, groups


def localizer_batch_loss(model: LocalizerModel, corpus, queries, negatives, config: TrainConfig,
                         icfg: InferenceConfig):
    """Boundary loss (shared-norm across the positive and negative videos)
    plus the adversarial moment-classification loss for one batch."""
    rows, groups = _localizer_rows(corpus, queries, negatives)
    token_reps, token_mask = encode_once(model.encode_tokens, [q.id for q, _ in rows], [q.tokens for q, _ in rows])
    (img_r, sub_r), clip_mask = encode_once(model.encode_video_batch, [v.id for _, v in rows],
                                            [v.image_matrix() for _, v in rows], [v.subtitle_matrix() for _, v in rows])
    l_st, l_ed, fused = model.forward_rows(token_reps, token_mask, img_r, sub_r, clip_mask)

    boundary = loc_mod.boundary_loss(l_st, l_ed, clip_mask, groups, [q.span for q in queries],
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
    adv = loc_mod.adversarial_loss(model, model.adv_layer(fused, clip_mask), positives, negatives_items)
    return loc_mod.total_loss(boundary, adv, gamma=config.gamma)


def train_localizer(corpus, retriever_model: RetrieverModel, config: TrainConfig, icfg: InferenceConfig,
                    model_config: LocalizerConfig | None = None, negatives=None):
    """Second training stage. Hard negatives are mined once from the trained
    retriever and stay fixed across epochs; the adversarial negative moments
    inside each step are re-mined from the current boundary scores."""
    if negatives is None:
        negatives = mine_hard_negatives(retriever_model, corpus, config)
    model = LocalizerModel(corpus.d_txt, corpus.d_img, corpus.d_sub, model_config, seed=config.seed + 1)

    def batch_loss(idx):
        return localizer_batch_loss(model, corpus, [corpus.queries[i] for i in idx], negatives, config, icfg)

    curve = [(epoch, "train", loss) for epoch, loss in _fit(
        "localizer", model, config, len(corpus.queries), config.localizer_epochs, config.localizer_batch,
        batch_loss, spawn_key=(3,))]
    return model, curve, negatives


# ---------------------------------------------------------------------------
# inference


def localize_scores(model: LocalizerModel, query, videos):
    """Boundary scores [len(videos), N] for one query over several videos; no gradients.

    The query is encoded once and shared by every row; each video's clip
    encodings come from the model's memo (`LocalizerModel.video_clips`)."""
    tokens = query.tokens[None]
    token_mask = np.ones(tokens.shape[:2])
    token_reps = model.encode_tokens(tokens, token_mask).data
    r = len(videos)
    l_st, l_ed, _ = model.forward_rows(np.repeat(token_reps, r, axis=0), np.repeat(token_mask, r, axis=0),
                                       *model.video_clips(videos))
    return l_st.data, l_ed.data


def _rank_moments(localizer_model: LocalizerModel, corpus, query, scored, icfg: InferenceConfig):
    """Localize `query` in each (video id, retrieval score) of `scored`, score
    every admissible span as retrieval/temperature + start + end, NMS per
    video, then keep the best `results_per_query` of all videos by (-score,
    video id, start, end).

    NMS visits the videos best span first, above a floor: the
    `results_per_query`-th best score kept so far. A span below the floor
    cannot reach the final cut, so the walk stops at the first video whose
    best span is below it; the result is that of NMS on every video in full."""
    videos = [corpus.video(vid) for vid, _ in scored]
    l_st, l_ed = localize_scores(localizer_model, query, videos)
    n = icfg.results_per_query
    keys = [(len(video), icfg.moment_min_len, icfg.moment_max_len) for video in videos]
    tables = [span_table(*key) for key in keys]
    span_scores = [score / icfg.score_temperature + (l_st[i, table[:, 0]] + l_ed[i, table[:, 1]])
                   for i, ((_, score), table) in enumerate(zip(scored, tables))]
    best = [s.max() for s in span_scores]
    floor = -np.inf
    spans, scores, rows = [], np.empty(0), []
    for i in sorted(range(len(scored)), key=best.__getitem__, reverse=True):
        if best[i] < floor:
            break
        kept = nms(tables[i], span_scores[i], suppression_table(*keys[i], icfg.nms_threshold), keep=n, floor=floor)
        spans.append(tables[i][kept])
        scores = np.concatenate([scores, span_scores[i][kept]])
        rows.append(np.full(len(kept), i))
        if len(scores) >= n:
            floor = np.partition(scores, -n)[-n]
    spans, rows = np.concatenate(spans), np.concatenate(rows)
    ids = [vid for vid, _ in scored]
    id_rank = {vid: r for r, vid in enumerate(sorted(ids))}
    vid_rank = np.array([id_rank[vid] for vid in ids])[rows]
    top = np.lexsort((spans[:, 1], spans[:, 0], vid_rank, -scores))[: icfg.results_per_query]
    return [MomentPrediction(video_id=ids[r], span=(st, ed), score=sc)
            for r, (st, ed), sc in zip(rows[top].tolist(), spans[top].tolist(), scores[top].tolist())]


def infer(retriever_model: RetrieverModel, localizer_model: LocalizerModel, corpus, query,
          icfg: InferenceConfig, index):
    """Two-stage inference: retrieve top-K videos by the `encode_corpus` index, then rank their moments."""
    ranked = ret_mod.retrieve_topk(ret_mod.encode_query(retriever_model, query), corpus, k=icfg.top_k_videos,
                                   index=index)
    return _rank_moments(localizer_model, corpus, query, ranked, icfg)


def infer_single_video(retriever_model: RetrieverModel, localizer_model: LocalizerModel, corpus, query,
                       icfg: InferenceConfig, index):
    """Moment predictions restricted to the query's ground-truth video, scored on its index rows alone."""
    i = index.ids.index(query.target_video)
    own = ret_mod.CorpusIndex(*(a[i : i + 1] for a in (index.ids, index.image, index.subtitle, index.clip_mask)))
    scores = ret_mod.score_video(ret_mod.encode_query(retriever_model, query), own,
                                 use_subtitles=corpus.has_subtitles)
    return _rank_moments(localizer_model, corpus, query, [(own.ids[0], float(scores[0]))], icfg)


# ---------------------------------------------------------------------------
# metrics


def _recall(predictions, corpus, hits_of, ks, ps):
    """{(k, p): percent of queries whose best hit among their top k predictions reaches p}, for
    each k in `ks` and p in `ps`; `hits_of(query, top)` is the hit of each of its top max(ks)."""
    counts = dict.fromkeys(itertools.product(ks, ps), 0)
    for q in corpus.queries:
        preds = predictions.get(q.id)
        if not preds:
            warnings.warn(f"query {q.id} has no predictions; counted as miss")
            continue
        hits = hits_of(q, preds[: max(ks)])
        for k, p in counts:
            counts[k, p] += max(hits[:k]) >= p
    return {kp: 100.0 * n / len(corpus.queries) for kp, n in counts.items()}


def _moment_hits(q, top):
    """IoU with the ground truth on the target video, -1 elsewhere."""
    st, ed = np.array([m.span for m in top], dtype=np.int64).T
    on_target = np.array([m.video_id == q.target_video for m in top])
    if (st[on_target] > ed[on_target]).any():
        raise ValueError(f"query {q.id}: invalid predicted span")
    return np.where(on_target, _iou(st, ed, *q.span), -1.0).tolist()


def evaluate(predictions, corpus, task) -> MetricsReport:
    """task 'vr' expects per-query ranked video-id lists; 'svmr'/'vcmr'
    expect per-query ranked MomentPrediction lists (svmr predictions must
    already be restricted to the ground-truth video)."""
    report = MetricsReport()
    if task == "vr":  # a hit is 1 (True) on the target video, so R@K is R@K,IoU=1
        recall = _recall(predictions, corpus, lambda q, top: [vid == q.target_video for vid in top], VR_KS, (1,))
        report.vr = {f"R@{k}": r for (k, _), r in recall.items()}
    elif task in ("svmr", "vcmr"):
        recall = _recall(predictions, corpus, _moment_hits, MOMENT_KS, MOMENT_PS)
        setattr(report, task, {f"R@{k},IoU={p}": r for (k, p), r in recall.items()})
    else:
        raise ValueError(f"unknown task {task!r}")
    return report


def evaluate_pipeline(retriever_model, localizer_model, corpus, icfg: InferenceConfig,
                      tasks=("vr", "svmr", "vcmr")) -> MetricsReport:
    """Run full inference for every query and compute all requested metrics."""
    index = ret_mod.encode_corpus(retriever_model, corpus)
    report = MetricsReport()
    if "vr" in tasks:
        report.vr = evaluate_retrieval(retriever_model, corpus, index=index).vr
    if "svmr" in tasks:
        preds = {q.id: infer_single_video(retriever_model, localizer_model, corpus, q, icfg, index=index)
                 for q in corpus.queries}
        report.svmr = evaluate(preds, corpus, "svmr").svmr
    if "vcmr" in tasks:
        preds = {q.id: infer(retriever_model, localizer_model, corpus, q, icfg, index=index)
                 for q in corpus.queries}
        report.vcmr = evaluate(preds, corpus, "vcmr").vcmr
    return report
