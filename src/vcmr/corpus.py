"""Untrimmed multi-modal video corpus: data model, persistence, synthesis.

A video holds one array per modality over its ordered clips: image
vectors, and subtitle vectors with a presence mask (an absent subtitle is a
zero row in memory and `null` on disk). The synthetic generator plants
per-query concept signal into exactly one modality channel inside the
annotated span (with attenuated leakage into adjacent clips), so retrieval
and localization behaviour is verifiable without real video features.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
from dataclasses import dataclass, field

import numpy as np


class CorpusError(ValueError):
    pass


def _same_fields(a, b):
    """Record equality: same type and every compared field equal, arrays by value."""
    if type(a) is not type(b):
        return NotImplemented
    return all(np.array_equal(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a) if f.compare)


def _frozen(array, dtype):
    """A read-only `dtype` copy of `array`. No caller holds the copy, so no caller can make it writable again."""
    out = np.array(array, dtype=dtype)
    out.flags.writeable = False
    return out


@dataclass(eq=False)
class Video:
    """One video as one read-only array per modality.

    images [N, d_img]; subtitles [N, d_sub], a zero row wherever
    has_subtitle [N] is False. Each array is copied once into a read-only
    array that only the video holds, so writing the caller's arrays
    afterwards, or making them writable again, does not change the video.
    """

    id: str
    images: np.ndarray
    subtitles: np.ndarray
    has_subtitle: np.ndarray

    def __post_init__(self):
        self.images = _frozen(self.images, np.float64)
        self.has_subtitle = _frozen(self.has_subtitle, bool)
        subtitles = np.array(self.subtitles, dtype=np.float64)
        n = self.images.shape[:1]
        if self.images.ndim != 2 or subtitles.ndim != 2 or subtitles.shape[:1] != n or self.has_subtitle.shape != n:
            raise CorpusError(f"video {self.id!r}: images {self.images.shape}, subtitles {subtitles.shape} "
                              f"and has_subtitle {self.has_subtitle.shape} do not describe one clip sequence")
        subtitles[~self.has_subtitle] = 0.0
        subtitles.flags.writeable = False
        self.subtitles = subtitles

    def __len__(self):
        return len(self.images)

    def image_matrix(self):
        return self.images

    def subtitle_matrix(self):
        """[clips, d_sub]; absent subtitles are zero rows."""
        return self.subtitles

    __eq__ = _same_fields


@dataclass
class Query:
    """One query: tokens [n_tokens, d_txt], copied once into a read-only
    float64 array that only the query holds, with at least one token; any
    other shape raises CorpusError naming the query."""

    id: str
    tokens: np.ndarray
    target_video: str
    span: tuple[int, int]  # inclusive clip indices

    def __post_init__(self):
        self.tokens = _frozen(self.tokens, np.float64)
        if self.tokens.ndim != 2 or len(self.tokens) < 1:
            raise CorpusError(f"query {self.id!r}: tokens {self.tokens.shape} are not [n_tokens >= 1, d]")

    __eq__ = _same_fields


@dataclass
class Corpus:
    videos: list[Video]
    queries: list[Query]
    split: str = "train"
    d_img: int = 0
    d_sub: int = 0
    d_txt: int = 0
    has_subtitles: bool = True
    spec: "SyntheticSpec | None" = field(default=None, compare=False)

    def __post_init__(self):
        self._by_id = {v.id: v for v in self.videos}
        if len(self._by_id) != len(self.videos):
            raise CorpusError("duplicate video ids")
        query_ids = set()
        for q in self.queries:
            if q.id in query_ids:
                raise CorpusError(f"duplicate query id {q.id!r}")
            query_ids.add(q.id)
            v = self._by_id.get(q.target_video)
            if v is None:
                raise CorpusError(f"query {q.id} references missing video id {q.target_video!r}")
            st, ed = q.span
            if not (0 <= st <= ed < len(v)):
                raise CorpusError(f"query {q.id}: span {q.span} out of range for video of {len(v)} clips")

    def video(self, video_id):
        return self._by_id[video_id]

    __eq__ = _same_fields


@dataclass(frozen=True)
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

    def __post_init__(self):
        for name in ("moment_len_range", "token_count_range"):  # JSON gives lists
            object.__setattr__(self, name, tuple(getattr(self, name)))
        for name in ("video_count", "clips_per_video", "d_img", "d_sub", "d_txt", "queries_per_video"):
            if getattr(self, name) < 1:
                raise CorpusError(f"{name} must be positive")
        lo, hi = self.token_count_range
        if not 1 <= lo <= hi:
            raise CorpusError(f"token_count_range {self.token_count_range} must satisfy 1 <= lo <= hi")
        lo, hi = self.moment_len_range
        if not (1 <= lo <= hi <= self.clips_per_video):
            raise CorpusError(f"infeasible span lengths: moment_len_range {self.moment_len_range} for {self.clips_per_video} clips")
        if self.queries_per_video * lo > self.clips_per_video:
            raise CorpusError(f"infeasible span lengths: queries_per_video {self.queries_per_video} spans of at least "
                              f"{lo} clips do not fit in clips_per_video {self.clips_per_video}")
        for name in ("visual_ratio", "subtitle_absent_prob"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise CorpusError(f"{name} must lie in [0, 1]")
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


def _place_span(rng, length, min_length, n_clips, span_used, reserved):
    """Pick (start, length) so the new span avoids existing spans.

    Prefers placements whose adjacent buffer cells are also untouched (keeps
    weak-relevance leakage from corrupting other queries' moments), then
    placements merely avoiding existing spans, shrinking the span toward
    `min_length` before giving up.
    """
    for mask, pad in ((reserved, 1), (span_used, 0)):
        for ln in range(length, min_length - 1, -1):
            starts = [s for s in range(n_clips - ln + 1)
                      if not mask[max(0, s - pad) : s + ln + pad].any()]
            if starts:
                return int(rng.choice(starts)), ln
    raise CorpusError(
        f"infeasible span lengths: cannot place a span of {min_length}..{length} clips "
        "without overlapping existing moments"
    )


def generate(spec: SyntheticSpec, split="train") -> Corpus:
    """Deterministic synthetic corpus with modality-split planted relevance."""
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
            concept = rng.normal(size=spec.d_txt)
            concept /= np.linalg.norm(concept)
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
            leak = [j for j in (start - 1, end + 1) if 0 <= j < n and not span_used[j]]
            # one draw for the span's rows and then its leaked neighbours' gives the values of one draw per row
            noise = rng.normal(0.0, spec.noise_sigma, size=(length + len(leak), channel.shape[1]))
            channel[start : end + 1] = signal + noise[:length]
            channel[leak] = 0.5 * signal + 0.5 * channel[leak] + noise[length:]
            if not visual:
                sub_planted[start : end + 1] = True
                sub_planted[leak] = True

            queries.append(
                Query(id=f"q{vi:05d}_{qi}", tokens=tokens, target_video=vid, span=(start, end))
            )

        has_subtitle = sub_planted | (rng.random(n) >= spec.subtitle_absent_prob)
        videos.append(Video(id=vid, images=images, subtitles=subs, has_subtitle=has_subtitle))

    # the unit rows and concepts are finite, so only a noise draw or a sum with one can overflow
    values = [a for v in videos for a in (v.images, v.subtitles)] + [q.tokens for q in queries]
    if not np.isfinite(np.concatenate(values, axis=None)).all():
        raise CorpusError(f"noise_sigma {spec.noise_sigma} is too large: the corpus would hold non-finite values")
    return Corpus(
        videos=videos,
        queries=queries,
        split=split,
        d_img=spec.d_img,
        d_sub=spec.d_sub,
        d_txt=spec.d_txt,
        spec=spec,
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
            clips = zip(v.images.tolist(), v.subtitles.tolist(), v.has_subtitle.tolist())
            rec = {"id": v.id, "clips": [{"image": im, "subtitle": sub if has else None} for im, sub, has in clips]}
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


def _open(path):
    """`open(path, "rb")`; a file that cannot be opened raises CorpusError naming it."""
    try:
        return open(path, "rb")
    except OSError as exc:
        raise CorpusError(f"{path}: cannot read corpus file ({exc.strerror})") from exc


@contextlib.contextmanager
def _decoded(raw, where):
    """The JSON object in bytes `raw`, for a `with` body; bad JSON or a missing key raises CorpusError at `where`."""
    try:
        rec = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise CorpusError(f"{where}: malformed JSON ({exc.msg})") from exc
    except UnicodeDecodeError as exc:
        raise CorpusError(f"{where}: not UTF-8 text ({exc.reason})") from exc
    if not isinstance(rec, dict):
        raise CorpusError(f"{where}: record is not a JSON object")
    try:
        yield rec
    except KeyError as exc:
        raise CorpusError(f"{where}: record has no key {exc}") from exc


def _parse_jsonl(path, parse):
    """[parse(record, where, bools) for each non-blank line], where = "path:lineno" and bools whether the line
    holds an "r" or an "f", as a JSON true or false does: no key or number of the format holds either, and a
    one-byte search takes about a tenth of the time of a search for "true" and "false"."""
    out = []
    with _open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if line:
                where = f"{path}:{lineno}"
                with _decoded(line, where) as rec:
                    out.append(parse(rec, where, b"r" in line or b"f" in line))
    return out


def _field(rec, key, kind, where):
    value = rec[key]
    if not isinstance(value, kind):
        raise CorpusError(f"{where}: {key!r} must be a JSON {'string' if kind is str else 'list'}")
    return value


def _holds_bool(value):
    """Whether a decoded JSON value is true or false or a (nested) list holding one."""
    return isinstance(value, bool) or isinstance(value, list) and any(map(_holds_bool, value))


def _numbers(value, bools):
    """float64 array of a (nested) JSON list of finite numbers, else None."""
    if not isinstance(value, list):
        return None
    try:
        arr = np.array(value)
    except ValueError:  # ragged nesting
        return None
    if arr.dtype.kind not in "iuf" or not np.isfinite(arr).all():
        return None
    # NumPy reads [true, 0.5] as [1.0, 0.5], so a list is searched for them when its line (`bools`) holds one
    if bools and _holds_bool(value):
        return None
    return arr.astype(np.float64, copy=False)


def _clip_rows(rows, width, what, where, bools):
    """[len(rows), width] array of per-clip vectors; a bad row raises CorpusError naming its clip."""
    arr = _numbers(rows, bools)
    if arr is None or arr.shape != (len(rows), width):  # find the first bad row
        for ci, row in enumerate(rows):
            vec = _numbers(row, bools)
            if vec is None:
                raise CorpusError(f"{where}: clip {ci} {what} must be a list of finite numbers")
            if vec.shape != (width,):
                raise CorpusError(f"{where}: clip {ci} {what} dim {vec.shape} != ({width},)")
    return arr


def _claim(seen, what, key, where):
    """Record that id `key` was read at `where`; a second read of it raises
    CorpusError naming both places."""
    if key in seen:
        raise CorpusError(f"{where}: {what} id {key!r} is already used at {seen[key]}")
    seen[key] = where


def load(path) -> Corpus:
    meta_path = os.path.join(path, META_FILE)
    with _open(meta_path) as fh, _decoded(fh.read(), meta_path) as meta:
        d_img, d_sub, d_txt, split = meta["d_img"], meta["d_sub"], meta["d_txt"], meta["split"]
    if not all(type(d) is int and d >= 1 for d in (d_img, d_sub, d_txt)) or not isinstance(split, str):
        raise CorpusError(f"{meta_path}: d_img, d_sub and d_txt must be positive integers and split a string")
    has_subtitles = meta.get("has_subtitles", True)
    if type(has_subtitles) is not bool:
        raise CorpusError(f"{meta_path}: has_subtitles must be true or false, got {has_subtitles!r}")

    video_ids, query_ids = {}, {}  # id -> where it was first read

    def parse_video(rec, where, bools):
        vid = _field(rec, "id", str, where)
        _claim(video_ids, "video", vid, where)
        clips = _field(rec, "clips", list, where)
        if not clips:
            raise CorpusError(f"{where}: video {vid!r} has no clips")
        for ci, clip in enumerate(clips):
            if not isinstance(clip, dict):
                raise CorpusError(f"{where}: clip {ci} is not a JSON object")
        images = _clip_rows([c["image"] for c in clips], d_img, "image", where, bools)
        has_subtitle = [c.get("subtitle") is not None for c in clips]
        rows = [c["subtitle"] if has else [0.0] * d_sub for c, has in zip(clips, has_subtitle)]
        subtitles = _clip_rows(rows, d_sub, "subtitle", where, bools)
        return Video(id=vid, images=images, subtitles=subtitles, has_subtitle=has_subtitle)

    videos = _parse_jsonl(os.path.join(path, VIDEOS_FILE), parse_video)
    by_id = {v.id: v for v in videos}

    def parse_query(rec, where, bools):
        qid = _field(rec, "id", str, where)
        _claim(query_ids, "query", qid, where)
        tokens = _numbers(rec["tokens"], bools)
        if tokens is None:
            raise CorpusError(f"{where}: tokens must be a list of lists of finite numbers")
        if tokens.shape[1:] != (d_txt,):
            raise CorpusError(f"{where}: token dim {tokens.shape} != (*, {d_txt})")
        vid = _field(rec, "video", str, where)
        if vid not in by_id:
            raise CorpusError(f"{where}: query {qid!r} references missing video id {vid!r}")
        span = _field(rec, "span", list, where)
        if len(span) != 2 or not all(type(x) is int for x in span):
            raise CorpusError(f"{where}: span must be a list of two integers")
        st, ed = span
        if not (0 <= st <= ed < len(by_id[vid])):
            raise CorpusError(f"{where}: span [{st}, {ed}] out of range for video {vid!r}")
        return Query(id=qid, tokens=tokens, target_video=vid, span=(st, ed))

    queries = _parse_jsonl(os.path.join(path, QUERIES_FILE), parse_query)
    return Corpus(
        videos=videos,
        queries=queries,
        split=split,
        d_img=d_img,
        d_sub=d_sub,
        d_txt=d_txt,
        has_subtitles=has_subtitles,
    )


def span_ratio(corpus: Corpus) -> float:
    """Mean annotated span length over mean video length."""
    mean_span = float(np.mean([q.span[1] - q.span[0] + 1 for q in corpus.queries]))
    mean_len = float(np.mean([len(v) for v in corpus.videos]))
    return mean_span / mean_len
