"""Command-line entry point: corpus generation, stage-wise training, and
evaluation, driven by a JSON config whose defaults expose every
hyperparameter.

Exit codes: 0 success, 2 config error, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys

from . import checkpoint as ckpt_mod
from . import corpus as corpus_mod
from . import pipeline
from .autodiff import NonFiniteError
from .corpus import CorpusError, SyntheticSpec
from .localizer import LocalizerConfig, LocalizerModel
from .pipeline import DivergenceError, InferenceConfig, TrainConfig
from .retriever import RetrieverConfig, RetrieverModel

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4

SPLITS = ("train", "val", "test")


class ConfigError(ValueError):
    pass


@dataclasses.dataclass
class RunConfig:
    """One section per component plus the run's only seed, which sets
    `synthetic.seed` and `train.seed`; the JSON view leaves those two out."""

    seed: int = 0
    synthetic: SyntheticSpec = dataclasses.field(default_factory=SyntheticSpec)
    retriever: RetrieverConfig = dataclasses.field(default_factory=RetrieverConfig)
    localizer: LocalizerConfig = dataclasses.field(default_factory=LocalizerConfig)
    train: TrainConfig = dataclasses.field(default_factory=TrainConfig)
    inference: InferenceConfig = dataclasses.field(default_factory=InferenceConfig)

    def to_dict(self):
        out = dataclasses.asdict(self)
        for f in _SECTIONS:
            out[f.name].pop("seed", None)
        return out


_SECTIONS = [f for f in dataclasses.fields(RunConfig) if f.name != "seed"]


# Largest value of an integer config field, far past any desk-scale size, count or schedule
MAX_CONFIG_INT = 10 ** 6

# Largest single array, in bytes, that a config may imply; a run holds several such arrays at once
MAX_ARRAY_BYTES = 2 ** 32

# JSON type each field's default asks for: a bool is not an int, an int is a float, a float is
# finite (json.load reads NaN and Infinity), and a tuple default takes a list of two ints
_JSON_TYPES = {bool: "true or false", int: f"an integer of at most {MAX_CONFIG_INT}", float: "a finite number",
               str: "a string", tuple: f"a list of two integers of at most {MAX_CONFIG_INT}"}


def _fits(default, value):
    if isinstance(default, tuple):
        return isinstance(value, list) and len(value) == len(default) and all(map(_fits, default, value))
    if isinstance(default, float):
        # NaN fails the comparison, and so does an int beyond the float range
        return type(value) in (int, float) and abs(value) <= sys.float_info.max
    if type(default) is int:
        return type(value) is int and value <= MAX_CONFIG_INT
    return type(value) is type(default)


def _build_section(cls, raw, section, seed):
    """Section `cls` from its JSON object, checked when built; a `seed` field takes the run seed."""
    if not isinstance(raw, dict):
        raise ConfigError(f"config section {section!r} must be a JSON object")
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    kwargs = {"seed": seed} if "seed" in defaults else {}
    for key, value in raw.items():
        if key not in defaults or key == "seed":
            raise ConfigError(f"unknown key {key!r} in config section {section!r}")
        if not _fits(defaults[key], value):
            raise ConfigError(f"{section}.{key} must be {_JSON_TYPES[type(defaults[key])]}, got {value!r}")
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except ValueError as exc:  # CorpusError included
        raise ConfigError(str(exc))


def load_run_config(path=None, seed=None):
    """The config file at `path`, named by each error (defaults without one); `seed` overrides its seed."""
    if path is None:
        return _run_config({}, seed)
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        return _run_config(raw, seed)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: malformed JSON ({exc.msg})")
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _run_config(raw, seed):
    """The run config of a decoded config file `raw`, checked when built."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - {f.name for f in dataclasses.fields(RunConfig)}
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    if type(raw.get("seed", 0)) is not int:
        raise ConfigError(f"seed must be an integer, got {raw['seed']!r}")
    seed = raw.get("seed", 0) if seed is None else seed
    if seed < 0:  # NumPy seeds only from non-negative integers
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")
    cfg = RunConfig(seed=seed, **{f.name: _build_section(f.default_factory, raw.get(f.name, {}), f.name, seed)
                                  for f in _SECTIONS})
    longest = {"clips_per_video": cfg.synthetic.clips_per_video,
               "token_count_range": cfg.synthetic.token_count_range[1]}
    for section in ("retriever", "localizer"):
        limit = getattr(cfg, section).max_positions
        for key, length in longest.items():
            if length > limit:
                raise ConfigError(f"synthetic.{key} allows length {length}, more than "
                                  f"{section}.max_positions {limit}")
    nbytes, what = _largest_array(cfg)
    if nbytes > MAX_ARRAY_BYTES:
        raise ConfigError(f"sizes too large: {what} would take {nbytes:.3g} bytes, "
                          f"more than the {MAX_ARRAY_BYTES} bytes one array may take")
    return cfg


def _largest_array(cfg):
    """(bytes, what) of the largest float64 array a run of `cfg` makes, estimated from its sizes alone."""
    syn, n = cfg.synthetic, cfg.synthetic.clips_per_video
    clips = syn.video_count * n
    lo = max(1, min(cfg.inference.moment_min_len, n))  # the span limits of `spans.enumerate_spans`
    count = max(lo, min(cfg.inference.moment_max_len, n)) - lo + 1
    spans = count * (n + 1) - count * (2 * lo + count - 1) // 2
    queries = syn.video_count * syn.queries_per_video
    terms = [(clips * syn.d_img, "a split's image clips"), (clips * syn.d_sub, "a split's subtitle clips"),
             (spans * spans, f"the suppression table's IoU matrix over the {spans} spans of a {n}-clip video")]
    rows = {"retriever": min(cfg.train.retriever_batch, queries),
            "localizer": min(cfg.train.localizer_batch, queries) * (1 + cfg.train.negatives_per_query)}
    for section, step_rows in rows.items():
        model = getattr(cfg, section)
        h, length = model.hidden, max(2 * n, syn.token_count_range[1])  # a video encodes both streams at once
        # the widest of an input projection, the position table, a feed-forward weight and a (3, h, h) kernel
        terms += [(h * max(syn.d_txt, syn.d_img, syn.d_sub, model.max_positions, model.intermediate, 3 * h),
                   f"the largest {section} parameter"),
                  (step_rows * model.heads * length * length, f"one {section} training step's attention probabilities")]
    count, what = max(terms)
    return 8 * count, what


def _load_model(cls, namespace, arrays, corpus, model_cfg, ckpt_path):
    """`cls` for `corpus`, every parameter loaded from the `namespace` weights of the checkpoint `arrays`."""
    state = ckpt_mod.split_namespace(arrays, namespace)
    if not state:
        raise CorpusError(f"{ckpt_path} holds no {namespace} weights; run train --stage {namespace} first")
    model = cls(corpus.d_txt, corpus.d_img, corpus.d_sub, model_cfg)
    try:
        model.params.load_state_dict(state)
    except (KeyError, ValueError) as exc:
        raise ckpt_mod.CheckpointError(f"{ckpt_path}: weights do not fit the configured model ({exc})") from exc
    return model


def _write_loss_csv(path, curve):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "split", "loss"])
        for epoch, split, value in curve:
            writer.writerow([epoch, split, repr(float(value))])


# ---------------------------------------------------------------------------
# commands


def cmd_gen(args, cfg):
    split_dirs = [os.path.join(args.out, split) for split in SPLITS]
    # every output path is checked before any work, and all three splits are generated before the first
    # directory is made, so a refusal leaves nothing behind
    for path in split_dirs:
        existing = path
        while not os.path.lexists(existing):
            existing = os.path.dirname(existing) or "."
        if not os.path.isdir(existing):
            raise CorpusError(f"cannot write a corpus to {args.out}: {existing} is not a directory")
    _check_outputs(*(os.path.join(path, name) for path in split_dirs if os.path.isdir(path)
                     for name in (corpus_mod.VIDEOS_FILE, corpus_mod.QUERIES_FILE, corpus_mod.META_FILE)))
    spec = cfg.synthetic
    # val/test reuse the generating process with offset seeds and fewer
    # queries per video; dimensions and corpus size stay identical
    variants = {
        "train": spec,
        "val": dataclasses.replace(spec, seed=spec.seed + 1001, queries_per_video=min(2, spec.queries_per_video)),
        "test": dataclasses.replace(spec, seed=spec.seed + 2002, queries_per_video=min(2, spec.queries_per_video)),
    }
    try:
        corpora = [corpus_mod.generate(variants[split], split=split) for split in SPLITS]
    except CorpusError as exc:  # the spec passed its checks, but its spans cannot all be placed
        raise ConfigError(f"{args.config}: {exc}" if args.config else str(exc)) from None
    for path in split_dirs:
        try:
            os.makedirs(path, exist_ok=True)
        except OSError as exc:
            raise CorpusError(f"cannot write a corpus to {args.out}: {path}: {exc.strerror}") from exc
    for corpus, path in zip(corpora, split_dirs):
        corpus_mod.save(corpus, path)
    train = corpora[0]
    print(f"generated {len(train.videos)} videos x {spec.clips_per_video} clips, "
          f"{len(train.queries)} queries, mean span ratio {corpus_mod.span_ratio(train):.3f} "
          f"(target {spec.target_span_ratio:.3f}), seed {spec.seed}")
    return 0


def _check_outputs(*paths):
    """Output paths, checked before any work: each names a file in an existing directory."""
    for path in filter(None, paths):
        if os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
            raise CorpusError(f"cannot write {path}: it is a directory or its directory does not exist")


def _load_split(corpus_dir, split, cfg):
    """The split's corpus, or None without its directory. It must hold a
    query, and every video and query must fit both models' max_positions."""
    path = os.path.join(corpus_dir, split)
    if not os.path.isdir(path):
        return None
    corpus = corpus_mod.load(path)
    if not corpus.queries:
        raise CorpusError(f"{path}: split has no queries")
    limit = min(cfg.retriever.max_positions, cfg.localizer.max_positions)
    lengths = [(f"video {v.id!r}", len(v)) for v in corpus.videos]
    lengths += [(f"query {q.id!r}", len(q.tokens)) for q in corpus.queries]
    for what, length in lengths:
        if length > limit:
            raise CorpusError(f"{path}: {what} has length {length}, more than max_positions {limit}")
    return corpus


def _require_split(corpus_dir, split, cfg):
    corpus = _load_split(corpus_dir, split, cfg)
    if corpus is None:
        raise CorpusError(f"missing corpus split directory: {os.path.join(corpus_dir, split)}")
    return corpus


def cmd_train(args, cfg):
    _check_outputs(args.ckpt, args.loss_csv)
    train_corpus = _require_split(args.corpus, "train", cfg)

    if args.stage == "retriever":
        model, curve = pipeline.train_retriever(train_corpus, cfg.train, model_config=cfg.retriever,
                                                val_corpus=_load_split(args.corpus, "val", cfg))
        arrays = ckpt_mod.merge_namespaces(retriever={n: t.data for n, t in model.params.items()})
        ckpt_mod.save_checkpoint(args.ckpt, arrays)
        print(f"retriever checkpoint written to {args.ckpt}")
    else:
        n = cfg.train.negatives_per_query
        if len(train_corpus.videos) < n + 1:
            raise CorpusError(f"{os.path.join(args.corpus, 'train')}: {len(train_corpus.videos)} videos cannot "
                              f"supply train.negatives_per_query {n} negatives per query besides its target")
        if not os.path.exists(args.ckpt):
            raise CorpusError(
                f"localizer stage needs a retriever checkpoint at {args.ckpt} for hard-negative mining; "
                "run --stage retriever first")
        arrays = ckpt_mod.load_checkpoint(args.ckpt)
        retr = _load_model(RetrieverModel, "retriever", arrays, train_corpus, cfg.retriever, args.ckpt)
        model, curve, _ = pipeline.train_localizer(
            train_corpus, retr, cfg.train, cfg.inference, model_config=cfg.localizer)
        merged = dict(arrays)
        merged.update(ckpt_mod.merge_namespaces(localizer={n: t.data for n, t in model.params.items()}))
        ckpt_mod.save_checkpoint(args.ckpt, merged)
        print(f"localizer checkpoint appended to {args.ckpt}")

    if args.loss_csv:
        _write_loss_csv(args.loss_csv, curve)
    return 0


def cmd_eval(args, cfg):
    _check_outputs(args.out)
    corpus = _require_split(args.corpus, args.split, cfg)
    arrays = ckpt_mod.load_checkpoint(args.ckpt)
    retr = _load_model(RetrieverModel, "retriever", arrays, corpus, cfg.retriever, args.ckpt)
    loc = None
    if args.task in ("svmr", "vcmr"):
        loc = _load_model(LocalizerModel, "localizer", arrays, corpus, cfg.localizer, args.ckpt)

    report = pipeline.evaluate_pipeline(retr, loc, corpus, cfg.inference, tasks=(args.task,))
    values = getattr(report, args.task)
    print(f"{args.task.upper()} metrics on split {args.split!r}:")
    for key in sorted(values):
        print(f"  {key:>16}: {values[key]:6.2f}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="vcmr", description="Synthetic video-corpus moment retrieval: generate, train, evaluate.")
    parser.add_argument("--dump-defaults", action="store_true",
                        help="print the full default run config as JSON and exit")
    sub = parser.add_subparsers(dest="command")
    run = argparse.ArgumentParser(add_help=False)  # the flags every command takes
    run.add_argument("--config", default=None)
    run.add_argument("--seed", type=int, default=None)

    p_gen = sub.add_parser("gen", parents=[run], help="generate a synthetic corpus (train/val/test splits)")
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_gen)

    p_train = sub.add_parser("train", parents=[run], help="train one pipeline stage")
    p_train.add_argument("--stage", choices=("retriever", "localizer"), required=True)
    p_train.add_argument("--corpus", required=True)
    p_train.add_argument("--ckpt", required=True)
    p_train.add_argument("--loss-csv", default=None)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", parents=[run], help="run inference and report metrics")
    p_eval.add_argument("--task", choices=("vr", "svmr", "vcmr"), required=True)
    p_eval.add_argument("--corpus", required=True)
    p_eval.add_argument("--ckpt", required=True)
    p_eval.add_argument("--out", default=None)
    p_eval.add_argument("--split", default="test", choices=SPLITS)
    p_eval.set_defaults(func=cmd_eval)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.dump_defaults:
        print(json.dumps(RunConfig().to_dict(), indent=2, sort_keys=True))
        return 0
    if not getattr(args, "command", None):
        parser.print_help()
        return EXIT_CONFIG
    try:
        return args.func(args, load_run_config(args.config, seed=args.seed))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (CorpusError, ckpt_mod.CheckpointError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (DivergenceError, NonFiniteError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
