"""Untrimmed multi-modal video corpus: data model, persistence, synthesis.

A video is an ordered list of clips, each with an image vector and an
optional subtitle vector; absent subtitles are stored as absent and only
materialized as zero vectors at model input. The synthetic generator plants
per-query concept signal into exactly one modality channel inside the
annotated span (with attenuated leakage into adjacent clips), so retrieval
and localization behaviour is verifiable without real video features.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field

import numpy as np


class CorpusError(ValueError):
    pass


@dataclass
class ClipFeature:
    image: np.ndarray
    subtitle: np.ndarray | None = None

    def __eq__(self, other):
        if not isinstance(other, ClipFeature):
            return NotImplemented
        if (self.subtitle is None) != (other.subtitle is None):
            return False
        if self.subtitle is not None and not np.array_equal(self.subtitle, other.subtitle):
            return False
        return np.array_equal(self.image, other.image)


@dataclass
class Video:
    id: str
    clips: list[ClipFeature]

    def __len__(self):
        return len(self.clips)

    def image_matrix(self):
        return np.stack([c.image for c in self.clips])

    def subtitle_matrix(self, d_sub):
        """[clips, d_sub]; absent subtitles materialize as zero vectors."""
        rows = [np.zeros(d_sub) if c.subtitle is None else c.subtitle for c in self.clips]
        return np.stack(rows)

    def __eq__(self, other):
        if not isinstance(other, Video):
            return NotImplemented
        return self.id == other.id and self.clips == other.clips


@dataclass
class Query:
    id: str
    tokens: np.ndarray  # [n_tokens, d_txt]
    target_video: str
    span: tuple[int, int]  # inclusive clip indices

    def __eq__(self, other):
        if not isinstance(other, Query):
            return NotImplemented
        return (
            self.id == other.id
            and self.target_video == other.target_video
            and tuple(self.span) == tuple(other.span)
            and np.array_equal(self.tokens, other.tokens)
        )


@dataclass
class Corpus:
    videos: list[Video]
    queries: list[Query]
    split: str = "train"
    d_img: int = 0
    d_sub: int = 0
    d_txt: int = 0
    has_subtitles: bool = True
    spec: "SyntheticSpec | None" = None

    def __post_init__(self):
        self._by_id = {v.id: v for v in self.videos}
        if len(self._by_id) != len(self.videos):
            raise CorpusError("duplicate video ids")
        for q in self.queries:
            v = self._by_id.get(q.target_video)
            if v is None:
                raise CorpusError(f"query {q.id} references missing video id {q.target_video!r}")
            st, ed = q.span
            if not (0 <= st <= ed < len(v)):
                raise CorpusError(f"query {q.id}: span {q.span} out of range for video of {len(v)} clips")
            if len(q.tokens) < 1:
                raise CorpusError(f"query {q.id}: needs at least one token")

    def video(self, video_id):
        return self._by_id[video_id]

    def __eq__(self, other):
        if not isinstance(other, Corpus):
            return NotImplemented
        return (
            self.split == other.split
            and self.d_img == other.d_img
            and self.d_sub == other.d_sub
            and self.d_txt == other.d_txt
            and self.has_subtitles == other.has_subtitles
            and self.videos == other.videos
            and self.queries == other.queries
        )


@dataclass
class SyntheticSpec:
    video_count: int = 100
    clips_per_video: int = 16
    d_img: int = 16
    d_sub: int = 16
    d_txt: int = 16
    queries_per_video: int = 3
    moment_len_range: tuple[int, int] = (1, 3)
    visual_ratio: float = 0.5
    noise_sigma: float = 0.05
    seed: int = 0
    subtitle_absent_prob: float = 0.1
    token_count_range: tuple[int, int] = (6, 14)

    def validate(self):
        for name in ("video_count", "clips_per_video", "d_img", "d_sub", "d_txt", "queries_per_video"):
            if getattr(self, name) < 1:
                raise CorpusError(f"{name} must be positive")
        lo, hi = self.moment_len_range
        if not (1 <= lo <= hi <= self.clips_per_video):
            raise CorpusError(f"infeasible span lengths: moment_len_range {self.moment_len_range} for {self.clips_per_video} clips")
        if not 0.0 <= self.visual_ratio <= 1.0:
            raise CorpusError("visual_ratio must lie in [0, 1]")
        if self.noise_sigma < 0:
            raise CorpusError("noise_sigma must be nonnegative")

    @property
    def target_span_ratio(self):
        lo, hi = self.moment_len_range
        return (lo + hi) / 2.0 / self.clips_per_video


def _projection(rng, d_out, d_in):
    """Concept-space to channel-space map; identity when dims agree."""
    if d_out == d_in:
        return np.eye(d_out)
    a = rng.normal(size=(max(d_out, d_in), min(d_out, d_in)))
    q, _ = np.linalg.qr(a)
    return q if d_out >= d_in else q.T[:d_out]


def _unit(v):
    n = np.linalg.norm(v)
    return v / n if n > 0 else v


def _place_span(rng, length, min_length, n_clips, span_used, reserved):
    """Pick (start, length) so the new span avoids existing spans.

    Prefers placements whose adjacent buffer cells are also untouched (keeps
    weak-relevance leakage from corrupting other queries' moments), then
    placements merely avoiding existing spans, shrinking the span toward
    `min_length` before giving up.
    """

    def candidates(ln, mask, pad):
        return [
            s
            for s in range(n_clips - ln + 1)
            if not mask[max(0, s - pad) : min(n_clips, s + ln + pad)].any()
        ]

    for mask, pad in ((reserved, 1), (span_used, 0)):
        for ln in range(length, min_length - 1, -1):
            starts = candidates(ln, mask, pad)
            if starts:
                return int(rng.choice(starts)), ln
    raise CorpusError(
        f"infeasible span lengths: cannot place a span of {min_length}..{length} clips "
        "without overlapping existing moments"
    )


def generate(spec: SyntheticSpec, split="train") -> Corpus:
    """Deterministic synthetic corpus with modality-split planted relevance."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    proj_img = _projection(rng, spec.d_img, spec.d_txt)
    proj_sub = _projection(rng, spec.d_sub, spec.d_txt)
    len_lo, len_hi = spec.moment_len_range
    tok_lo, tok_hi = spec.token_count_range

    videos = []
    queries = []
    for vi in range(spec.video_count):
        n = spec.clips_per_video
        vid = f"v{vi:05d}"
        images = rng.normal(size=(n, spec.d_img))
        images /= np.linalg.norm(images, axis=1, keepdims=True)
        subs = rng.normal(size=(n, spec.d_sub))
        subs /= np.linalg.norm(subs, axis=1, keepdims=True)
        span_used = np.zeros(n, dtype=bool)
        reserved = np.zeros(n, dtype=bool)
        sub_planted = np.zeros(n, dtype=bool)

        for qi in range(spec.queries_per_video):
            concept = _unit(rng.normal(size=spec.d_txt))
            visual = bool(rng.random() < spec.visual_ratio)
            length = int(rng.integers(len_lo, len_hi + 1))
            start, length = _place_span(rng, length, len_lo, n, span_used, reserved)
            end = start + length - 1
            span_used[start : end + 1] = True
            reserved[max(0, start - 1) : min(n, end + 2)] = True

            n_tokens = int(rng.integers(tok_lo, tok_hi + 1))
            tokens = concept[None, :] + rng.normal(0.0, spec.noise_sigma, size=(n_tokens, spec.d_txt))

            channel = images if visual else subs
            proj = proj_img if visual else proj_sub
            signal = proj @ concept
            for j in range(start, end + 1):
                channel[j] = signal + rng.normal(0.0, spec.noise_sigma, size=channel.shape[1])
                if not visual:
                    sub_planted[j] = True
            for j in (start - 1, end + 1):
                if 0 <= j < n and not span_used[j]:
                    channel[j] = 0.5 * signal + 0.5 * channel[j] + rng.normal(
                        0.0, spec.noise_sigma, size=channel.shape[1]
                    )
                    if not visual:
                        sub_planted[j] = True

            queries.append(
                Query(id=f"q{vi:05d}_{qi}", tokens=tokens, target_video=vid, span=(start, end))
            )

        absent = rng.random(n) < spec.subtitle_absent_prob
        clips = []
        for j in range(n):
            subtitle = None if (absent[j] and not sub_planted[j]) else subs[j].copy()
            clips.append(ClipFeature(image=images[j].copy(), subtitle=subtitle))
        videos.append(Video(id=vid, clips=clips))

    return Corpus(
        videos=videos,
        queries=queries,
        split=split,
        d_img=spec.d_img,
        d_sub=spec.d_sub,
        d_txt=spec.d_txt,
        spec=dataclasses.replace(spec),
    )


# ---------------------------------------------------------------------------
# persistence: line-delimited JSON + meta file

VIDEOS_FILE = "videos.jsonl"
QUERIES_FILE = "queries.jsonl"
META_FILE = "corpus.meta.json"


def save(corpus: Corpus, path):
    os.makedirs(path, exist_ok=True)
    with open(os.path.join(path, VIDEOS_FILE), "w") as fh:
        for v in corpus.videos:
            rec = {
                "id": v.id,
                "clips": [
                    {
                        "image": c.image.tolist(),
                        "subtitle": None if c.subtitle is None else c.subtitle.tolist(),
                    }
                    for c in v.clips
                ],
            }
            fh.write(json.dumps(rec) + "\n")
    with open(os.path.join(path, QUERIES_FILE), "w") as fh:
        for q in corpus.queries:
            rec = {
                "id": q.id,
                "tokens": q.tokens.tolist(),
                "video": q.target_video,
                "span": [int(q.span[0]), int(q.span[1])],
            }
            fh.write(json.dumps(rec) + "\n")
    meta = {
        "split": corpus.split,
        "d_img": corpus.d_img,
        "d_sub": corpus.d_sub,
        "d_txt": corpus.d_txt,
        "has_subtitles": corpus.has_subtitles,
        "spec": None if corpus.spec is None else dataclasses.asdict(corpus.spec),
    }
    with open(os.path.join(path, META_FILE), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _parse_jsonl(path, parse):
    """[parse(record, where) for each non-blank line], where = "path:lineno"."""
    out = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"{where}: malformed JSON ({exc.msg})") from exc
            try:
                out.append(parse(rec, where))
            except KeyError as exc:
                raise CorpusError(f"{where}: record has no key {exc}") from exc
    return out


def load(path) -> Corpus:
    meta_path = os.path.join(path, META_FILE)
    try:
        with open(meta_path) as fh:
            meta = json.load(fh)
        d_img, d_sub, d_txt, split = meta["d_img"], meta["d_sub"], meta["d_txt"], meta["split"]
    except FileNotFoundError:
        raise CorpusError(f"{meta_path}: missing corpus meta file")
    except json.JSONDecodeError as exc:
        raise CorpusError(f"{meta_path}: malformed JSON ({exc.msg})") from exc
    except KeyError as exc:
        raise CorpusError(f"{meta_path}: meta has no key {exc}") from exc

    def parse_video(rec, where):
        clips = []
        for ci, c in enumerate(rec["clips"]):
            image = np.asarray(c["image"], dtype=np.float64)
            if image.shape != (d_img,):
                raise CorpusError(f"{where}: clip {ci} image dim {image.shape} != ({d_img},)")
            subtitle = c.get("subtitle")
            if subtitle is not None:
                subtitle = np.asarray(subtitle, dtype=np.float64)
                if subtitle.shape != (d_sub,):
                    raise CorpusError(f"{where}: clip {ci} subtitle dim {subtitle.shape} != ({d_sub},)")
            clips.append(ClipFeature(image=image, subtitle=subtitle))
        if not clips:
            raise CorpusError(f"{where}: video {rec['id']!r} has no clips")
        return Video(id=rec["id"], clips=clips)

    videos = _parse_jsonl(os.path.join(path, VIDEOS_FILE), parse_video)
    by_id = {v.id: v for v in videos}

    def parse_query(rec, where):
        tokens = np.asarray(rec["tokens"], dtype=np.float64)
        if tokens.ndim != 2 or tokens.shape[1] != d_txt:
            raise CorpusError(f"{where}: token dim {tokens.shape} != (*, {d_txt})")
        vid = rec["video"]
        if vid not in by_id:
            raise CorpusError(f"{where}: query {rec['id']!r} references missing video id {vid!r}")
        st, ed = rec["span"]
        if not (0 <= st <= ed < len(by_id[vid])):
            raise CorpusError(f"{where}: span [{st}, {ed}] out of range for video {vid!r}")
        return Query(id=rec["id"], tokens=tokens, target_video=vid, span=(int(st), int(ed)))

    queries = _parse_jsonl(os.path.join(path, QUERIES_FILE), parse_query)

    spec = None
    if meta.get("spec"):
        raw = dict(meta["spec"])
        for key in ("moment_len_range", "token_count_range"):
            if key in raw:
                raw[key] = tuple(raw[key])
        spec = SyntheticSpec(**raw)
    return Corpus(
        videos=videos,
        queries=queries,
        split=split,
        d_img=d_img,
        d_sub=d_sub,
        d_txt=d_txt,
        has_subtitles=meta.get("has_subtitles", True),
        spec=spec,
    )


def span_ratio(corpus: Corpus) -> float:
    """Mean annotated span length over mean video length."""
    mean_span = float(np.mean([q.span[1] - q.span[0] + 1 for q in corpus.queries]))
    mean_len = float(np.mean([len(v) for v in corpus.videos]))
    return mean_span / mean_len
