"""CLI: config handling, exit codes, and the gen/train/eval workflow."""

import contextlib
import copy
import dataclasses
import errno
import io
import json
import math
import os
import shutil
import struct
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vcmr
from vcmr import checkpoint as ckpt_mod
from vcmr import cli
from vcmr import corpus as corpus_mod
from vcmr import pipeline
from vcmr.checkpoint import MAGIC, load_checkpoint, split_namespace
from vcmr.localizer import LocalizerConfig
from vcmr.nn import EncoderConfig
from vcmr.retriever import RetrieverConfig


TINY = {
    "seed": 0,
    "synthetic": {"video_count": 8, "clips_per_video": 8, "queries_per_video": 1},
    "retriever": {"hidden": 16, "intermediate": 32, "heads": 2},
    "localizer": {"hidden": 16, "intermediate": 32, "heads": 2},
    "train": {"retriever_epochs": 2, "localizer_epochs": 1, "negatives_per_query": 2,
              "learning_rate": 1e-3},
    "inference": {"top_k_videos": 4, "moment_max_len": 8},
}


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY))
    return str(path)


def test_dump_defaults_is_valid_json(capsys):
    assert cli.main(["--dump-defaults"]) == 0
    cfg = json.loads(capsys.readouterr().out)
    # fixed hyperparameter values must be visible in the emitted defaults
    assert cfg["train"]["gamma"] == 0.8
    assert cfg["train"]["lam"] == 0.5
    assert cfg["train"]["temperature"] == 0.01
    assert cfg["train"]["localizer_epochs"] == 15
    assert cfg["train"]["localizer_batch"] == 32
    assert cfg["train"]["negatives_per_query"] == 4
    assert cfg["train"]["mining_pool"] == 100
    assert cfg["inference"]["nms_threshold"] == 0.7
    assert cfg["inference"]["top_k_videos"] == 10
    assert cfg["inference"]["moment_min_len"] == 1
    assert cfg["inference"]["moment_max_len"] == 24
    # defaults round-trip through the loader unchanged (JSON-normalized:
    # tuples serialize as lists)
    assert json.loads(json.dumps(cli.load_run_config().to_dict())) == cfg


def test_no_command_prints_help_and_fails(capsys):
    assert cli.main([]) == cli.EXIT_CONFIG


def test_unknown_config_key_is_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"train": {"learning_rte": 1e-3}}))
    assert cli.main(["gen", "--config", str(bad), "--out", str(tmp_path / "c")]) == cli.EXIT_CONFIG
    assert "learning_rte" in capsys.readouterr().err


def test_malformed_and_missing_config_are_config_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["gen", "--config", str(bad), "--out", str(tmp_path / "c")]) == cli.EXIT_CONFIG
    assert cli.main(["gen", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "c")]) == cli.EXIT_CONFIG


def test_gen_writes_three_splits_with_meta(tmp_path, tiny_config, capsys):
    out = tmp_path / "corpus"
    assert cli.main(["gen", "--config", tiny_config, "--out", str(out), "--seed", "7"]) == 0
    for split in ("train", "val", "test"):
        assert (out / split / "videos.jsonl").exists()
        assert (out / split / "queries.jsonl").exists()
        meta = json.loads((out / split / "corpus.meta.json").read_text())
        assert meta["split"] == split
    assert corpus_mod.load(out / "train") == corpus_mod.generate(cli.load_run_config(tiny_config, seed=7).synthetic)


def test_gen_is_deterministic(tmp_path, tiny_config, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["gen", "--config", tiny_config, "--out", str(a)]) == 0
    assert cli.main(["gen", "--config", tiny_config, "--out", str(b)]) == 0
    for split in ("train", "val", "test"):
        for name in ("videos.jsonl", "queries.jsonl", "corpus.meta.json"):
            assert (a / split / name).read_bytes() == (b / split / name).read_bytes()


INFEASIBLE = {"video_count": 2, "clips_per_video": 4, "moment_len_range": [1, 2]}


@pytest.mark.parametrize("queries, message", [
    (5, "queries_per_video 5 spans of at least 1 clips do not fit in clips_per_video 4"),  # refused by the spec
    (4, "cannot place a span of 1..2 clips"),  # fits by count, but the drawn lengths leave no room
])
def test_spec_that_cannot_be_generated_is_config_error_and_leaves_nothing(tmp_path, capsys, queries, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"synthetic": dict(INFEASIBLE, queries_per_video=queries)}))
    out = tmp_path / "out"
    assert cli.main(["gen", "--config", str(bad), "--out", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {bad}: infeasible span lengths: ") and err.count("\n") == 1
    assert message in err
    assert not out.exists()


def test_noise_that_overflows_is_config_error_and_leaves_nothing(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"synthetic": {"video_count": 4, "noise_sigma": 1e308}}))
    out = tmp_path / "out"
    assert cli.main(["gen", "--config", str(bad), "--out", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {bad}: noise_sigma 1e+308 is too large") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("section, key, value", [
    ("train", "learning_rate", -1.0),
    ("train", "learning_rate", 0),
    ("train", "weight_decay", -5.0),
    ("train", "lam", -3),
    ("train", "gamma", -2),
    ("train", "retriever_batch", 1),
    ("synthetic", "subtitle_absent_prob", 7.0),
    ("synthetic", "subtitle_absent_prob", -0.5),
])
def test_out_of_range_value_is_config_error_naming_the_field(tmp_path, capsys, section, key, value):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({section: {key: value}}))
    assert cli.main(["gen", "--config", str(bad), "--out", str(tmp_path / "c")]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {bad}: {key} must ") and err.count("\n") == 1
    assert not (tmp_path / "c").exists()


def test_range_edges_are_accepted(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"train": {"weight_decay": 0, "lam": 0, "gamma": 0},
                                "synthetic": {"subtitle_absent_prob": 1}}))
    cfg = cli.load_run_config(str(good))
    assert (cfg.train.weight_decay, cfg.train.lam, cfg.train.gamma, cfg.synthetic.subtitle_absent_prob) == (0, 0, 0, 1)


# A gen config whose corpus is a few kilobytes; the fuzz below changes one field of it
FUZZ_BASE = {"synthetic": {"video_count": 3, "clips_per_video": 6, "d_img": 4, "d_sub": 4, "d_txt": 4,
                           "queries_per_video": 1, "token_count_range": [2, 4]}}
# synthetic sizes whose edge values stay small: their product is the corpus's size and generation time
FUZZ_SIZES = {"video_count": 4, "clips_per_video": 8, "d_img": 8, "d_sub": 8, "d_txt": 8, "queries_per_video": 8}
FUZZ_FIELDS = [(None, "seed", 0)] + [
    (section, key, default) for section, values in dataclasses.asdict(cli.RunConfig()).items()
    if isinstance(values, dict) for key, default in values.items() if key != "seed"]


def fuzz_value(key, default):
    """A value of the wrong JSON type, out of range, or at an edge for a field whose default is `default`."""
    wrong = st.sampled_from([None, "3", [], {}, [1, "2"], True, 2.5, 3])
    if isinstance(default, bool):
        return wrong | st.booleans()
    if isinstance(default, int):
        return wrong | st.sampled_from([-1, 0, 1, 2, FUZZ_SIZES.get(key, cli.MAX_CONFIG_INT), cli.MAX_CONFIG_INT + 1])
    if isinstance(default, float):
        return wrong | st.sampled_from([-1.0, -0.0, 0.0, 1e-300, 0.5, 0.7, 1.0, 2.0, 1e308, -1e308])
    if isinstance(default, str):
        return wrong | st.sampled_from(["", "mean", "max"])
    return wrong | st.lists(st.integers(-1, 9), min_size=1, max_size=3)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_gen_with_one_fuzzed_field_exits_0_2_or_3_and_a_refusal_leaves_nothing(data):
    section, key, default = data.draw(st.sampled_from(FUZZ_FIELDS))
    raw = copy.deepcopy(FUZZ_BASE)
    (raw if section is None else raw.setdefault(section, {}))[key] = data.draw(fuzz_value(key, default))
    with tempfile.TemporaryDirectory() as tmp:
        config, out, err = os.path.join(tmp, "config.json"), os.path.join(tmp, "out"), io.StringIO()
        with open(config, "w") as fh:
            json.dump(raw, fh)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["gen", "--config", config, "--out", out])
        assert code in (0, cli.EXIT_CONFIG, cli.EXIT_DATA)
        if code:
            assert err.getvalue().count("\n") == 1 and not os.path.exists(out)


# `train` on a corpus of FUZZ_BASE's sizes (3 videos of 6 clips, 3 train queries); the fuzz below changes one
# field of one record of it
JSONL_FUZZ_CONFIG = {"synthetic": dict(FUZZ_BASE["synthetic"], subtitle_absent_prob=0.0),
                     "retriever": {"hidden": 8, "intermediate": 16, "heads": 2},
                     "train": {"retriever_epochs": 1, "retriever_batch": 2}}
MISSING, DUPLICATE = object(), object()  # delete the key; the id of the split's next record
NOT_A_LIST = [None, "x", 3, 1.5, True, {}]
NOT_A_NUMBER = [None, "x", True, False, [], {}, [0.5], math.nan, math.inf, -math.inf, 10 ** 400]
# (file, path to the field, values that each make the record invalid)
JSONL_FIELDS = [
    ("videos.jsonl", ("id",), [MISSING, DUPLICATE, None, 3, 1.5, True, [], {}]),
    ("videos.jsonl", ("clips",), [MISSING, [], [1, "2"]] + NOT_A_LIST),
    ("videos.jsonl", ("clips", 1), [None, "x", 3, True, [], [1, "2"]]),
    ("videos.jsonl", ("clips", 1, "image"), [MISSING, None, [], [0.5] * 5, [[0.5] * 4]] + NOT_A_LIST[1:]),
    ("videos.jsonl", ("clips", 2, "subtitle"), [[], [0.5] * 5, [[0.5] * 4]] + NOT_A_LIST[1:]),
    ("videos.jsonl", ("clips", 0, "image", 3), NOT_A_NUMBER),
    ("videos.jsonl", ("clips", 5, "subtitle", 0), NOT_A_NUMBER),
    ("queries.jsonl", ("id",), [MISSING, DUPLICATE, None, 3, 1.5, True, [], {}]),
    ("queries.jsonl", ("tokens",), [MISSING, [], [[0.5] * 5], [1, "2"]] + NOT_A_LIST),
    ("queries.jsonl", ("tokens", 1), [[], [0.5] * 5, [[0.5] * 4]] + NOT_A_LIST),
    ("queries.jsonl", ("tokens", 0, 2), NOT_A_NUMBER),
    ("queries.jsonl", ("video",), [MISSING, "no-such-video", None, 3, 1.5, True, [], {}]),
    ("queries.jsonl", ("span",), [MISSING, [], [0], [0, 1, 2], [1, 0], [0, 6], [-1, 0]] + NOT_A_LIST),
    ("queries.jsonl", ("span", 0), [None, "x", 1.5, True, [], {}, -1, 6, 10 ** 400]),
    ("queries.jsonl", ("span", 1), [None, "x", 1.5, True, [], {}, -1, 6, 10 ** 400]),
]


@pytest.fixture(scope="module")
def jsonl_fuzz_run(tmp_path_factory):
    """(config path, corpus directory) of the fuzz's tiny run; the retriever trains on it."""
    root = tmp_path_factory.mktemp("jsonl-fuzz")
    config, out = root / "config.json", root / "corpus"
    config.write_text(json.dumps(JSONL_FUZZ_CONFIG))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["gen", "--config", str(config), "--out", str(out)]) == 0
        assert cli.main(["train", "--stage", "retriever", "--config", str(config), "--corpus", str(out),
                         "--ckpt", str(root / "model.ckpt")]) == 0
    return str(config), str(out)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_train_on_a_corpus_with_one_fuzzed_field_exits_2_or_3_with_one_line(jsonl_fuzz_run, data):
    config, corpus = jsonl_fuzz_run
    name, keys, values = data.draw(st.sampled_from(JSONL_FIELDS))
    split, line = data.draw(st.sampled_from(["train", "val"])), data.draw(st.integers(0, 2))
    value = data.draw(st.sampled_from(values))
    with tempfile.TemporaryDirectory() as tmp:
        copy_dir, ckpt, err = os.path.join(tmp, "corpus"), os.path.join(tmp, "model.ckpt"), io.StringIO()
        shutil.copytree(corpus, copy_dir)
        path = os.path.join(copy_dir, split, name)
        with open(path) as fh:
            records = [json.loads(text) for text in fh]
        target = records[line]
        for key in keys[:-1]:
            target = target[key]
        if value is MISSING:
            del target[keys[-1]]
        else:
            target[keys[-1]] = records[(line + 1) % len(records)]["id"] if value is DUPLICATE else value
        with open(path, "w") as fh:
            fh.writelines(json.dumps(rec) + "\n" for rec in records)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["train", "--stage", "retriever", "--config", config, "--corpus", copy_dir,
                             "--ckpt", ckpt])
        assert code in (cli.EXIT_CONFIG, cli.EXIT_DATA), (name, keys, value)
        assert err.getvalue().count("\n") == 1 and not os.path.exists(ckpt)
        if code == cli.EXIT_DATA:  # the refusal names the edited line: as its place, or as a duplicate's first
            edited = f"{path}:{line + 1}"
            assert f"{edited}: " in err.getvalue() or err.getvalue().endswith(f"already used at {edited}\n"), (
                name, keys, value, err.getvalue())


def test_localizer_stage_requires_retriever_checkpoint(tmp_path, tiny_config, capsys):
    out = tmp_path / "corpus"
    cli.main(["gen", "--config", tiny_config, "--out", str(out)])
    code = cli.main(["train", "--stage", "localizer", "--config", tiny_config,
                     "--corpus", str(out), "--ckpt", str(tmp_path / "model.ckpt")])
    assert code == cli.EXIT_DATA
    assert "mining" in capsys.readouterr().err


def test_train_on_missing_corpus_is_data_error(tmp_path, tiny_config, capsys):
    code = cli.main(["train", "--stage", "retriever", "--config", tiny_config,
                     "--corpus", str(tmp_path / "nowhere"), "--ckpt", str(tmp_path / "m.ckpt")])
    assert code == cli.EXIT_DATA


def test_eval_with_missing_checkpoint_is_data_error(tmp_path, tiny_config, capsys):
    out = tmp_path / "corpus"
    cli.main(["gen", "--config", tiny_config, "--out", str(out)])
    code = cli.main(["eval", "--task", "vr", "--config", tiny_config,
                     "--corpus", str(out), "--ckpt", str(tmp_path / "none.ckpt")])
    assert code == cli.EXIT_DATA


@pytest.mark.parametrize("widths", [{}, {"d_img": 12, "d_sub": 10, "d_txt": 8}],
                         ids=["equal-widths", "unequal-widths"])
def test_full_workflow_and_namespace_audit(tmp_path, widths, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(TINY, synthetic=dict(TINY["synthetic"], **widths))))
    tiny_config = str(config)
    out = tmp_path / "corpus"
    ckpt = tmp_path / "model.ckpt"
    loss_csv = tmp_path / "loss.csv"
    assert cli.main(["gen", "--config", tiny_config, "--out", str(out)]) == 0
    meta = json.loads((out / "train" / "corpus.meta.json").read_text())
    assert {key: meta[key] for key in widths} == widths
    assert cli.main(["train", "--stage", "retriever", "--config", tiny_config,
                     "--corpus", str(out), "--ckpt", str(ckpt),
                     "--loss-csv", str(loss_csv)]) == 0
    assert loss_csv.read_text().startswith("epoch,split,loss")
    assert cli.main(["train", "--stage", "localizer", "--config", tiny_config,
                     "--corpus", str(out), "--ckpt", str(ckpt)]) == 0

    arrays = load_checkpoint(ckpt)
    retr = split_namespace(arrays, "retriever")
    loc = split_namespace(arrays, "localizer")
    assert retr and loc
    assert set(arrays) == {f"retriever.{n}" for n in retr} | {f"localizer.{n}" for n in loc}

    report_path = tmp_path / "report.json"
    assert cli.main(["eval", "--task", "vcmr", "--config", tiny_config,
                     "--corpus", str(out), "--ckpt", str(ckpt), "--split", "train",
                     "--out", str(report_path)]) == 0
    text = capsys.readouterr().out
    assert "VCMR metrics" in text
    report = json.loads(report_path.read_text())
    assert "R@1,IoU=0.5" in report["vcmr"]

    # eval of a moment task needs the localizer weights
    from vcmr.checkpoint import save_checkpoint
    save_checkpoint(ckpt, {f"retriever.{n}": a for n, a in retr.items()})
    assert cli.main(["eval", "--task", "svmr", "--config", tiny_config,
                     "--corpus", str(out), "--ckpt", str(ckpt), "--split", "train"]) == cli.EXIT_DATA


def test_seed_flag_overrides_config(tmp_path, tiny_config):
    cfg = cli.load_run_config(tiny_config, seed=42)
    assert cfg.seed == 42
    assert cfg.synthetic.seed == 42
    assert cfg.train.seed == 42


@pytest.mark.parametrize("section", ["retriever", "localizer"])
def test_hidden_not_divisible_by_heads_is_config_error(tmp_path, section, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({section: {"hidden": 10, "heads": 4}}))
    code = cli.main(["train", "--stage", section, "--config", str(bad),
                     "--corpus", str(tmp_path / "nowhere"), "--ckpt", str(tmp_path / "m.ckpt")])
    assert code == cli.EXIT_CONFIG
    assert "divisible" in capsys.readouterr().err


def test_corpus_record_missing_key_is_data_error(tmp_path, tiny_config, capsys):
    out = tmp_path / "corpus"
    cli.main(["gen", "--config", tiny_config, "--out", str(out)])
    videos = out / "train" / "videos.jsonl"
    lines = videos.read_text().splitlines()
    rec = json.loads(lines[1])
    del rec["clips"]
    lines[1] = json.dumps(rec)
    videos.write_text("\n".join(lines) + "\n")
    code = cli.main(["train", "--stage", "retriever", "--config", tiny_config,
                     "--corpus", str(out), "--ckpt", str(tmp_path / "m.ckpt")])
    assert code == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert "videos.jsonl:2" in err and "clips" in err


@pytest.mark.parametrize("name", ["corpus.meta.json", "videos.jsonl", "queries.jsonl"])
def test_corpus_file_that_is_a_directory_is_data_error(tmp_path, tiny_config, capsys, name):
    out = tmp_path / "corpus"
    cli.main(["gen", "--config", tiny_config, "--out", str(out)])
    (out / "train" / name).unlink()
    (out / "train" / name).mkdir()
    code = cli.main(["train", "--stage", "retriever", "--config", tiny_config,
                     "--corpus", str(out), "--ckpt", str(tmp_path / "m.ckpt")])
    assert code == cli.EXIT_DATA
    assert capsys.readouterr().err.startswith(f"data error: {out / 'train' / name}: cannot read corpus file")


@pytest.mark.parametrize("rewrite", [
    lambda meta: b"{not json",
    lambda meta: json.dumps(meta).encode().replace(b'"train"', b'"\xff"'),
    lambda meta: json.dumps({key: value for key, value in meta.items() if key != "d_img"}).encode(),
    lambda meta: json.dumps([meta]).encode(),
    lambda meta: json.dumps(dict(meta, d_img=16.0)).encode(),
], ids=["malformed-json", "not-utf8", "missing-d_img", "not-an-object", "non-integer-d_img"])
def test_malformed_corpus_meta_is_data_error(tmp_path, tiny_config, capsys, rewrite):
    out = tmp_path / "corpus"
    cli.main(["gen", "--config", tiny_config, "--out", str(out)])
    meta = out / "train" / "corpus.meta.json"
    meta.write_bytes(rewrite(json.loads(meta.read_text())))
    code = cli.main(["train", "--stage", "retriever", "--config", tiny_config,
                     "--corpus", str(out), "--ckpt", str(tmp_path / "m.ckpt")])
    assert code == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"data error: {meta}: ")


def untrained_retriever_checkpoint(corpus_dir, path, scale=1.0):
    """Save an untrained retriever built from TINY, img_proj.w scaled by `scale`."""
    from vcmr.checkpoint import save_checkpoint
    from vcmr.corpus import load
    from vcmr.retriever import RetrieverConfig, RetrieverModel

    corpus = load(str(corpus_dir / "test"))
    model = RetrieverModel(corpus.d_txt, corpus.d_img, corpus.d_sub, RetrieverConfig(**TINY["retriever"]))
    arrays = {f"retriever.{n}": t.data for n, t in model.params.items()}
    arrays["retriever.img_proj.w"] = arrays["retriever.img_proj.w"] * scale
    save_checkpoint(path, arrays)


def test_eval_with_config_not_matching_checkpoint_is_data_error(tmp_path, tiny_config, capsys):
    out = tmp_path / "corpus"
    ckpt = tmp_path / "model.ckpt"
    cli.main(["gen", "--config", tiny_config, "--out", str(out)])
    untrained_retriever_checkpoint(out, ckpt)
    other = tmp_path / "other.json"
    other.write_text(json.dumps(dict(TINY, retriever={"hidden": 8, "intermediate": 32, "heads": 2})))
    code = cli.main(["eval", "--task", "vr", "--config", str(other),
                     "--corpus", str(out), "--ckpt", str(ckpt)])
    assert code == cli.EXIT_DATA
    assert "do not fit" in capsys.readouterr().err


def test_eval_non_finite_forward_is_numerical_failure(tmp_path, tiny_config, capsys):
    out = tmp_path / "corpus"
    ckpt = tmp_path / "model.ckpt"
    cli.main(["gen", "--config", tiny_config, "--out", str(out)])
    untrained_retriever_checkpoint(out, ckpt, scale=1e307)
    with np.errstate(over="ignore", invalid="ignore"):
        code = cli.main(["eval", "--task", "vr", "--config", tiny_config,
                         "--corpus", str(out), "--ckpt", str(ckpt)])
    assert code == cli.EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("argv, record, value", [
    (["eval", "--task", "vr"], "retriever.img_proj.b", math.nan),
    (["eval", "--task", "vcmr"], "localizer.head.st.w", math.inf),
    (["train", "--stage", "localizer"], "retriever.q_proj.w", -math.inf),
], ids=["eval-vr", "eval-vcmr", "train-localizer"])
def test_checkpoint_with_a_non_finite_value_is_data_error_naming_the_record(tmp_path, tiny_config, capsys, argv,
                                                                            record, value):
    from vcmr.checkpoint import save_checkpoint
    from vcmr.localizer import LocalizerModel

    out, ckpt = tmp_path / "corpus", tmp_path / "model.ckpt"
    cli.main(["gen", "--config", tiny_config, "--out", str(out)])
    untrained_retriever_checkpoint(out, ckpt)
    localizer = LocalizerModel(16, 16, 16, LocalizerConfig(**TINY["localizer"]))
    arrays = dict(load_checkpoint(ckpt), **{f"localizer.{n}": t.data for n, t in localizer.params.items()})
    arrays[record] = arrays[record].copy()
    arrays[record].flat[1] = value
    save_checkpoint(ckpt, arrays)
    written = ckpt.read_bytes()
    code = cli.main([*argv, "--config", tiny_config, "--corpus", str(out), "--ckpt", str(ckpt)])
    assert code == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err == f"data error: {ckpt}: record {record} holds a non-finite value\n"
    assert ckpt.read_bytes() == written


def test_val_split_of_other_widths_is_data_error_before_training(tmp_path, tiny_config, monkeypatch, capsys):
    out, ckpt = tmp_path / "corpus", tmp_path / "model.ckpt"
    cli.main(["gen", "--config", tiny_config, "--out", str(out)])
    spec = corpus_mod.SyntheticSpec(**dict(TINY["synthetic"], d_img=17))
    corpus_mod.save(corpus_mod.generate(spec, split="val"), out / "val")
    monkeypatch.setattr(pipeline, "AdamW", no_training_step)
    code = cli.main(["train", "--stage", "retriever", "--config", tiny_config,
                     "--corpus", str(out), "--ckpt", str(ckpt)])
    assert code == cli.EXIT_DATA
    assert capsys.readouterr().err == ("data error: val corpus widths (d_img, d_sub, d_txt) (17, 16, 16) differ "
                                       "from the train corpus's (16, 16, 16)\n")
    assert not ckpt.exists()


def rewrite_record(path, lineno, keys, value):
    """Set rec[k0][k1]... = value in line `lineno` (1-based) of a JSONL file."""
    lines = path.read_text().splitlines()
    rec = json.loads(lines[lineno - 1])
    target = rec
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    lines[lineno - 1] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("name, keys, value", [
    ("videos.jsonl", ("clips",), "abc"),
    ("videos.jsonl", ("clips",), [1, 2]),
    ("videos.jsonl", ("clips", 0, "image"), "x"),
    ("queries.jsonl", ("span",), [1]),
    ("queries.jsonl", ("span",), ["a", "b"]),
    ("queries.jsonl", ("tokens",), "abc"),
    ("queries.jsonl", ("video",), ["v"]),
    ("videos.jsonl", ("id",), "v00000"),  # the id of line 1
    ("queries.jsonl", ("id",), "q00000_0"),  # the id of line 1
    pytest.param("videos.jsonl", ("clips",), [], id="videos.jsonl-no-clips"),
    pytest.param("queries.jsonl", ("tokens",), [[0.5] * 3], id="queries.jsonl-token-width"),
    pytest.param("queries.jsonl", ("span",), [0, 8], id="queries.jsonl-span-out-of-range"),
    pytest.param("videos.jsonl", ("clips",), [{"image": [0.5] * 3, "subtitle": None}], id="videos.jsonl-image-width"),
])
def test_mistyped_corpus_field_is_data_error_with_line(tmp_path, tiny_config, capsys, name, keys, value):
    out = tmp_path / "corpus"
    cli.main(["gen", "--config", tiny_config, "--out", str(out)])
    rewrite_record(out / "train" / name, 2, keys, value)
    code = cli.main(["train", "--stage", "retriever", "--config", tiny_config,
                     "--corpus", str(out), "--ckpt", str(tmp_path / "m.ckpt")])
    assert code == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"{name}:2:" in err


@pytest.mark.parametrize("section, key, value", [
    ("retriever", "hidden", "16"),
    ("train", "learning_rate", "fast"),
    ("train", None, [1]),
    ("synthetic", "moment_len_range", 3),
    ("inference", "nms_threshold", None),
    ("inference", "score_temperature", 0),
    (None, "seed", "x"),
    ("train", "retriever_epochs", True),
    ("synthetic", "token_count_range", [5, 2]),
    ("retriever", "pooling", "max"),
    ("localizer", "fusion_layers", 2),
    ("train", "mining_pool", 2),  # below the default negatives_per_query 4
    ("synthetic", "noise_sigma", float("nan")),  # json.dumps writes NaN, which json.load reads
    ("train", "learning_rate", float("nan")),
    ("inference", "score_temperature", float("nan")),
    pytest.param("synthetic", "noise_sigma", 10 ** 400, id="synthetic-noise_sigma-int_beyond_float"),
    pytest.param(None, None, [TINY], id="config-is-a-list"),
    pytest.param("bogus", None, {}, id="unknown-section"),
    (None, "seed", -3),
    ("train", "learning_rte", 1e-3),
    ("train", "localizer_epochs", cli.MAX_CONFIG_INT + 1),
    pytest.param("retriever", None, {"hidden": 10, "heads": 4}, id="retriever-hidden_not_divisible_by_heads"),
    pytest.param("synthetic", "clips_per_video", 80, id="synthetic-clips_per_video-beyond_max_positions"),
])
def test_mistyped_config_value_is_config_error(tmp_path, capsys, section, key, value):
    raw = value if key is None else {key: value}
    if section is not None:
        raw = {section: raw}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    assert cli.main(["gen", "--config", str(bad), "--out", str(tmp_path / "c")]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {bad}: ") and err.count("\n") == 1  # names the file
    assert not (tmp_path / "c").exists()


def test_config_error_without_a_config_file_names_none(tmp_path, capsys):
    assert cli.main(["gen", "--seed", "-1", "--out", str(tmp_path / "c")]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == "config error: seed must be a non-negative integer, got -1\n"


@pytest.mark.parametrize("section, key, value", [
    ("synthetic", "d_img", 2 ** 70),
    ("synthetic", "token_count_range", [6, 2 ** 70]),
    ("train", "localizer_epochs", cli.MAX_CONFIG_INT + 1),
])
def test_integer_beyond_bound_is_config_error_naming_the_field(tmp_path, capsys, section, key, value):
    raw = {"synthetic": {"video_count": 8}}
    raw.setdefault(section, {})[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    assert cli.main(["gen", "--config", str(bad), "--out", str(tmp_path / "c")]) == cli.EXIT_CONFIG
    assert f"{section}.{key} must be" in capsys.readouterr().err
    assert not (tmp_path / "c").exists()


def long_inputs(n):
    """Config sections that let synthetic videos have `n` clips."""
    return {"synthetic": {"clips_per_video": n}, "retriever": {"max_positions": n}, "localizer": {"max_positions": n}}


@pytest.mark.parametrize("raw, what", [
    pytest.param({"synthetic": {"video_count": 10 ** 6, "d_img": 10 ** 6}}, "a split's image clips", id="image"),
    pytest.param({"synthetic": {"video_count": 10 ** 4, "d_sub": 10 ** 5}}, "a split's subtitle clips", id="subtitle"),
    pytest.param({"localizer": {"hidden": 24000}}, "the largest localizer parameter", id="parameter"),
    pytest.param(dict(long_inputs(2000), inference={"moment_max_len": 1}),
                 "one localizer training step's attention probabilities", id="attention"),
    pytest.param(dict(long_inputs(512), inference={"moment_max_len": 512}),
                 "the suppression table's IoU matrix over the 131328 spans of a 512-clip video", id="suppression"),
])
def test_sizes_whose_arrays_are_past_memory_are_config_error(tmp_path, capsys, raw, what):
    # each field is within MAX_CONFIG_INT; the product of some is not
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    assert cli.main(["gen", "--config", str(bad), "--out", str(tmp_path / "c")]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {bad}: sizes too large: {what} would take ") and err.count("\n") == 1
    assert not (tmp_path / "c").exists()


def test_defaults_and_benchmark_sizes_fit_one_array(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "benchmarks"))
    import worker

    try:
        configs = [cli.RunConfig()] + [cli._run_config({"synthetic": w["spec"], "train": w["train"]}, 0)
                                       for w in worker.WORKLOADS.values()]
    finally:
        sys.modules.pop("worker", None)
    assert len(configs) == 4
    assert all(cli._largest_array(cfg)[0] <= cli.MAX_ARRAY_BYTES for cfg in configs)


def test_integer_at_bound_is_accepted(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"train": {"localizer_epochs": cli.MAX_CONFIG_INT}}))
    assert cli.load_run_config(str(good)).train.localizer_epochs == cli.MAX_CONFIG_INT


def test_config_accepts_an_int_for_a_float(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"train": {"learning_rate": 1}, "synthetic": {"moment_len_range": [2, 4]}}))
    cfg = cli.load_run_config(str(good))
    assert cfg.train.learning_rate == 1 and cfg.synthetic.moment_len_range == (2, 4)


@pytest.mark.parametrize("section", ["retriever", "localizer"])
@pytest.mark.parametrize("key, synthetic", [
    ("clips_per_video", {"clips_per_video": 10, "token_count_range": [2, 4]}),
    ("token_count_range", {"token_count_range": [6, 10]}),
])
def test_inputs_longer_than_max_positions_are_config_error(tmp_path, section, key, synthetic, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(TINY, synthetic=dict(TINY["synthetic"], **synthetic),
                                   **{section: dict(TINY[section], max_positions=9)})))
    assert cli.main(["gen", "--config", str(bad), "--out", str(tmp_path / "c")]) == cli.EXIT_CONFIG
    assert f"synthetic.{key}" in capsys.readouterr().err


def test_stored_video_longer_than_max_positions_is_data_error(tmp_path, tiny_config, capsys):
    long_cfg = tmp_path / "long.json"
    long_cfg.write_text(json.dumps(dict(TINY, synthetic=dict(TINY["synthetic"], clips_per_video=72),
                                        retriever=dict(TINY["retriever"], max_positions=72),
                                        localizer=dict(TINY["localizer"], max_positions=72))))
    out = tmp_path / "corpus"
    assert cli.main(["gen", "--config", str(long_cfg), "--out", str(out)]) == 0
    ckpt = tmp_path / "model.ckpt"
    assert cli.main(["train", "--stage", "retriever", "--config", tiny_config,
                     "--corpus", str(out), "--ckpt", str(ckpt)]) == cli.EXIT_DATA
    assert "max_positions 64" in capsys.readouterr().err
    assert not ckpt.exists()
    untrained_retriever_checkpoint(out, ckpt)
    assert cli.main(["eval", "--task", "vr", "--config", tiny_config,
                     "--corpus", str(out), "--ckpt", str(ckpt)]) == cli.EXIT_DATA
    assert "max_positions 64" in capsys.readouterr().err


def test_train_has_no_pooling_override(capsys):
    with pytest.raises(SystemExit):
        cli.main(["train", "--help"])
    assert "--pooling" not in capsys.readouterr().out


# every value a run config can set; a new knob has to be added here
SETTABLE_VALUES = [
    "inference.moment_max_len", "inference.moment_min_len", "inference.nms_threshold",
    "inference.results_per_query", "inference.score_temperature", "inference.top_k_videos",
    "localizer.heads", "localizer.hidden", "localizer.intermediate", "localizer.max_positions",
    "localizer.shared_norm", "localizer.use_gates",
    "retriever.heads", "retriever.hidden", "retriever.intermediate", "retriever.max_positions",
    "retriever.pooling",
    "synthetic.clips_per_video", "synthetic.d_img", "synthetic.d_sub", "synthetic.d_txt",
    "synthetic.moment_len_range", "synthetic.noise_sigma", "synthetic.queries_per_video",
    "synthetic.subtitle_absent_prob", "synthetic.token_count_range", "synthetic.video_count",
    "synthetic.visual_ratio",
    "train.gamma", "train.lam", "train.learning_rate", "train.localizer_batch", "train.localizer_epochs",
    "train.mining_pool", "train.negatives_per_query", "train.retriever_batch", "train.retriever_epochs",
    "train.temperature", "train.weight_decay",
    "seed",
]


def test_dump_defaults_has_one_seed_and_loads_back(tmp_path, capsys):
    assert cli.main(["--dump-defaults"]) == 0
    text = capsys.readouterr().out
    cfg = json.loads(text)
    assert cfg["seed"] == 0
    assert "seed" not in cfg["synthetic"] and "seed" not in cfg["train"]
    assert "use_adversarial" not in cfg["train"]
    settable = sorted(f"{name}.{key}" for name, section in cfg.items() if isinstance(section, dict)
                      for key in section) + ["seed"]
    assert settable == SETTABLE_VALUES
    path = tmp_path / "run.json"
    path.write_text(text)
    assert cli.load_run_config(str(path)).to_dict() == cli.load_run_config().to_dict()


def test_top_level_seed_sets_corpus_and_training_seed(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(TINY, seed=5)))
    out = tmp_path / "corpus"
    assert cli.main(["gen", "--config", str(path), "--out", str(out)]) == 0
    cfg = cli.load_run_config(str(path))
    assert cfg.synthetic.seed == cfg.train.seed == 5
    assert corpus_mod.load(out / "train") == corpus_mod.generate(cfg.synthetic)


@pytest.mark.parametrize("section", ["synthetic", "train"])
def test_section_seed_is_config_error(tmp_path, section, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({section: {"seed": 5}}))
    assert cli.main(["gen", "--config", str(bad), "--out", str(tmp_path / "c")]) == cli.EXIT_CONFIG
    assert "'seed'" in capsys.readouterr().err


@pytest.mark.parametrize("config, args", [({"seed": -3}, []), ({}, ["--seed", "-1"])])
def test_negative_seed_is_config_error(tmp_path, capsys, config, args):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert cli.main(["gen", "--config", str(cfg), "--out", str(tmp_path / "c")] + args) == cli.EXIT_CONFIG
    assert "seed must be a non-negative integer" in capsys.readouterr().err
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("stage", ["retriever", "localizer"])
def test_divergence_names_stage_epoch_and_step(tmp_path, stage, capsys):
    # 8 train queries in batches of 4: two steps per epoch, so the second
    # step runs on the weights the first step blew up
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(TINY, train=dict(TINY["train"], learning_rate=1e300,
                                                     retriever_batch=4, localizer_batch=4))))
    out = tmp_path / "corpus"
    ckpt = tmp_path / "model.ckpt"
    assert cli.main(["gen", "--config", str(path), "--out", str(out)]) == 0
    untrained_retriever_checkpoint(out, ckpt)
    with np.errstate(over="ignore", invalid="ignore"):
        code = cli.main(["train", "--stage", stage, "--config", str(path),
                         "--corpus", str(out), "--ckpt", str(ckpt)])
    assert code == cli.EXIT_NUMERICAL
    assert f"{stage} loss became non-finite at epoch 1, step 1" in capsys.readouterr().err


def test_checkpoint_record_name_not_utf8_is_data_error(tmp_path, tiny_config, capsys):
    out = tmp_path / "corpus"
    ckpt = tmp_path / "model.ckpt"
    cli.main(["gen", "--config", tiny_config, "--out", str(out)])
    untrained_retriever_checkpoint(out, ckpt)
    raw = bytearray(ckpt.read_bytes())
    raw[len(MAGIC) + 8] = 0xFF  # first byte of the first record name
    ckpt.write_bytes(bytes(raw))
    code = cli.main(["eval", "--task", "vr", "--config", tiny_config,
                     "--corpus", str(out), "--ckpt", str(ckpt)])
    assert code == cli.EXIT_DATA
    assert "not UTF-8" in capsys.readouterr().err


def first_record(raw):
    """(start, dtype tag offset, end) of the first record in checkpoint bytes."""
    start = len(MAGIC) + 4
    (name_len,) = struct.unpack_from("<I", raw, start)
    tag = start + 4 + name_len
    (ndim,) = struct.unpack_from("<I", raw, tag + 1)
    return start, tag, tag + 5 + 4 * ndim + 8 * math.prod(struct.unpack_from(f"<{ndim}I", raw, tag + 5))


def duplicate_first_record(raw):
    start, _, end = first_record(raw)
    (count,) = struct.unpack_from("<I", raw, start - 4)
    return raw[:start - 4] + struct.pack("<I", count + 1) + raw[start:] + raw[start:end]


def unknown_dtype_tag(raw):
    _, tag, _ = first_record(raw)
    return raw[:tag] + b"\x07" + raw[tag + 1:]


@pytest.mark.parametrize("rewrite, message", [
    (lambda raw: raw + b"\x00", "trailing bytes"),
    (unknown_dtype_tag, "unknown dtype tag 7"),
    (duplicate_first_record, "duplicate record"),
], ids=["trailing-bytes", "unknown-dtype-tag", "duplicate-record"])
def test_malformed_checkpoint_is_data_error(tmp_path, tiny_config, capsys, rewrite, message):
    out = tmp_path / "corpus"
    ckpt = tmp_path / "model.ckpt"
    cli.main(["gen", "--config", tiny_config, "--out", str(out)])
    untrained_retriever_checkpoint(out, ckpt)
    ckpt.write_bytes(rewrite(ckpt.read_bytes()))
    code = cli.main(["eval", "--task", "vr", "--config", tiny_config, "--corpus", str(out), "--ckpt", str(ckpt)])
    assert code == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"data error: {ckpt}: {message}")


@pytest.mark.parametrize("command", [["eval", "--task", "vr"], ["train", "--stage", "localizer"]])
def test_checkpoint_path_that_is_a_directory_is_data_error(tmp_path, tiny_config, command, capsys):
    out = tmp_path / "corpus"
    cli.main(["gen", "--config", tiny_config, "--out", str(out)])
    code = cli.main(command + ["--config", tiny_config, "--corpus", str(out), "--ckpt", str(tmp_path)])
    assert code == cli.EXIT_DATA
    assert "data error" in capsys.readouterr().err


class FailingWriter:
    """A binary file that takes `budget` bytes, then fails as a full disk does."""

    def __init__(self, fh, budget):
        self.fh, self.budget = fh, budget

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()
        return False

    def write(self, data):
        if len(data) > self.budget:
            self.fh.write(data[:self.budget])
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self.budget -= len(data)
        return self.fh.write(data)


def test_checkpoint_write_that_fails_mid_file_keeps_the_old_checkpoint(tmp_path, tiny_config, monkeypatch, capsys):
    out = tmp_path / "corpus"
    ckpt = tmp_path / "model.ckpt"
    cli.main(["gen", "--config", tiny_config, "--out", str(out)])
    untrained_retriever_checkpoint(out, ckpt)
    old = ckpt.read_bytes()
    before = sorted(tmp_path.iterdir())

    def failing_open(path, mode="r", *args, **kwargs):
        fh = open(path, mode, *args, **kwargs)
        return FailingWriter(fh, len(old) // 2) if "w" in mode else fh

    monkeypatch.setattr(ckpt_mod, "open", failing_open, raising=False)
    code = cli.main(["train", "--stage", "localizer", "--config", tiny_config, "--corpus", str(out),
                     "--ckpt", str(ckpt)])
    assert code == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"data error: cannot write checkpoint {ckpt}: ")
    assert ckpt.read_bytes() == old and split_namespace(load_checkpoint(ckpt), "retriever")
    assert sorted(tmp_path.iterdir()) == before  # no temporary file is left behind


def test_config_path_that_is_a_directory_is_config_error(tmp_path, capsys):
    assert cli.main(["gen", "--config", str(tmp_path), "--out", str(tmp_path / "c")]) == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_config_that_is_not_utf8_is_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"seed": 0, "train": {"\xff": 1}}')
    assert cli.main(["gen", "--config", str(bad), "--out", str(tmp_path / "c")]) == cli.EXIT_CONFIG
    assert "not UTF-8" in capsys.readouterr().err


CONFIG_CLASSES = [corpus_mod.SyntheticSpec, EncoderConfig, RetrieverConfig, LocalizerConfig,
                  pipeline.TrainConfig, pipeline.InferenceConfig]


@pytest.mark.parametrize("cls", CONFIG_CLASSES, ids=lambda cls: cls.__name__)
def test_configs_are_immutable(cls):
    cfg = cls()
    name = dataclasses.fields(cfg)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(cfg, name, getattr(cfg, name))


@pytest.mark.parametrize("cls, name", [(cls, f.name) for cls in CONFIG_CLASSES for f in dataclasses.fields(cls)
                                       if type(f.default) is float], ids=lambda x: getattr(x, "__name__", x))
def test_config_float_field_refuses_nan(cls, name):
    # the CLI refuses NaN before building a config; a library caller reaches the constructor's bounds directly
    with pytest.raises(ValueError, match=name):
        cls(**{name: math.nan})


@pytest.mark.parametrize("split", ["train", "val", "test"])
def test_split_without_queries_is_data_error(tmp_path, tiny_config, split, capsys):
    out = tmp_path / "corpus"
    ckpt = tmp_path / "model.ckpt"
    assert cli.main(["gen", "--config", tiny_config, "--out", str(out)]) == 0
    untrained_retriever_checkpoint(out, ckpt)
    (out / split / "queries.jsonl").write_text("")
    argv = ["eval", "--task", "vr"] if split == "test" else ["train", "--stage", "retriever"]
    code = cli.main(argv + ["--config", tiny_config, "--corpus", str(out), "--ckpt", str(ckpt)])
    assert code == cli.EXIT_DATA
    assert capsys.readouterr().err == f"data error: {out / split}: split has no queries\n"


def no_training_step(*args, **kwargs):
    pytest.fail("a training step started before the refusal")


def test_retriever_train_split_of_one_query_is_data_error(tmp_path, tiny_config, monkeypatch, capsys):
    out, ckpt = tmp_path / "corpus", tmp_path / "model.ckpt"
    assert cli.main(["gen", "--config", tiny_config, "--out", str(out)]) == 0
    queries = out / "train" / "queries.jsonl"
    queries.write_text(queries.read_text().splitlines(keepends=True)[0])
    capsys.readouterr()
    monkeypatch.setattr(pipeline, "AdamW", no_training_step)
    code = cli.main(["train", "--stage", "retriever", "--config", tiny_config, "--corpus", str(out),
                     "--ckpt", str(ckpt)])
    assert code == cli.EXIT_DATA
    assert capsys.readouterr().err == "data error: retriever training needs at least 2 queries, got 1\n"
    assert not ckpt.exists()


def test_train_split_too_small_to_mine_is_data_error(tmp_path, monkeypatch, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(TINY, synthetic=dict(TINY["synthetic"], video_count=4),
                                      train=dict(TINY["train"], negatives_per_query=4))))
    out, ckpt = tmp_path / "corpus", tmp_path / "model.ckpt"
    assert cli.main(["gen", "--config", str(config), "--out", str(out)]) == 0
    common = ["--config", str(config), "--corpus", str(out), "--ckpt", str(ckpt)]
    assert cli.main(["train", "--stage", "retriever"] + common) == 0
    before = ckpt.read_bytes()
    monkeypatch.setattr(pipeline, "AdamW", no_training_step)
    assert cli.main(["train", "--stage", "localizer"] + common) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "corpus of 4 videos cannot supply negatives_per_query 4" in err
    assert ckpt.read_bytes() == before


# A file name past NAME_MAX (255 bytes on Linux file systems): the directory exists, so the output passes the
# checks made before any work, and the write itself fails once the work is done
LONG_NAME = "x" * 300


@pytest.mark.parametrize("argv, written", [
    (["train", "--stage", "retriever", "--ckpt", "{tmp}/model.ckpt", "--loss-csv", "{tmp}/" + LONG_NAME],
     "model.ckpt"),
    (["eval", "--task", "vr", "--ckpt", "{tmp}/retriever.ckpt", "--out", "{tmp}/" + LONG_NAME], None),
], ids=["loss-csv", "eval-out"])
def test_output_write_that_fails_after_the_work_is_data_error(tmp_path, tiny_config, argv, written, capsys):
    out = tmp_path / "corpus"
    assert cli.main(["gen", "--config", tiny_config, "--out", str(out)]) == 0
    untrained_retriever_checkpoint(out, tmp_path / "retriever.ckpt")
    capsys.readouterr()
    argv = [arg.format(tmp=tmp_path) for arg in argv] + ["--config", tiny_config, "--corpus", str(out)]
    assert cli.main(argv) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("data error: ") and LONG_NAME in err
    # the loss curve is written after the checkpoint, so a failed --loss-csv leaves the new checkpoint
    assert written is None or (tmp_path / written).exists()


def test_gen_out_that_cannot_be_made_is_data_error(tmp_path, tiny_config, capsys):
    before = sorted(tmp_path.iterdir())
    assert cli.main(["gen", "--config", tiny_config, "--out", str(tmp_path / LONG_NAME)]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("data error: ") and LONG_NAME in err
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("argv", [
    ["train", "--stage", "retriever", "--ckpt", "{tmp}"],
    ["train", "--stage", "retriever", "--ckpt", "{tmp}/missing/model.ckpt"],
    ["train", "--stage", "retriever", "--ckpt", "{tmp}/model.ckpt", "--loss-csv", "{tmp}"],
    ["train", "--stage", "localizer", "--ckpt", "{tmp}/retriever.ckpt", "--loss-csv", "{tmp}"],
    ["eval", "--task", "vr", "--ckpt", "{tmp}/retriever.ckpt", "--out", "{tmp}"],
    ["gen", "--out", "{tmp}/config.json"],
    ["gen", "--out", "{tmp}/config.json/corpus"],
    ["gen", "--out", "{tmp}/blocked-split"],
    ["gen", "--out", "{tmp}/blocked-file"],
], ids=["ckpt-dir", "ckpt-missing-dir", "loss-csv-dir", "localizer-loss-csv-dir", "eval-out-dir",
        "gen-out-file", "gen-out-under-file", "gen-split-dir-file", "gen-split-file-dir"])
def test_unwritable_output_is_data_error_before_any_work(tmp_path, tiny_config, argv, monkeypatch, capsys):
    out = tmp_path / "corpus"
    assert cli.main(["gen", "--config", tiny_config, "--out", str(out)]) == 0
    untrained_retriever_checkpoint(out, tmp_path / "retriever.ckpt")
    (tmp_path / "blocked-split").mkdir()
    (tmp_path / "blocked-split" / "test").write_text("")  # a split directory that is a file
    (tmp_path / "blocked-file" / "train" / "videos.jsonl").mkdir(parents=True)  # a split file that is a directory

    def no_work(*args, **kwargs):
        pytest.fail("work started before the output paths were checked")

    for owner, name in ((corpus_mod, "generate"), (pipeline, "train_retriever"),
                        (pipeline, "train_localizer"), (pipeline, "evaluate_pipeline")):
        monkeypatch.setattr(owner, name, no_work)
    argv = [arg.format(tmp=tmp_path) for arg in argv] + ["--config", tiny_config]
    if argv[0] != "gen":
        argv += ["--corpus", str(out)]
    before = sorted(tmp_path.rglob("*"))
    assert cli.main(argv) == cli.EXIT_DATA
    assert "data error" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before  # a refusal leaves nothing behind


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

WORKFLOW = """
import sys
from vcmr import checkpoint as ckpt_mod
from vcmr import cli
config, run = sys.argv[1:]
for argv in (["gen", "--out", run + "/corpus"],
             ["train", "--stage", "retriever", "--corpus", run + "/corpus", "--ckpt", run + "/model.ckpt"],
             ["train", "--stage", "localizer", "--corpus", run + "/corpus", "--ckpt", run + "/model.ckpt"],
             ["eval", "--task", "vcmr", "--corpus", run + "/corpus", "--ckpt", run + "/model.ckpt",
              "--out", run + "/metrics.json"]):
    assert cli.main(argv + ["--config", config]) == 0
"""


def test_outputs_do_not_depend_on_blas_threads(tmp_path):
    # default model sizes, so the conv1d kernel-gradient GEMM is large enough to thread
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "synthetic": {"video_count": 12, "clips_per_video": 16, "queries_per_video": 3},
        "train": {"retriever_epochs": 1, "localizer_epochs": 1, "negatives_per_query": 4},
    }))
    src = os.path.dirname(os.path.dirname(os.path.abspath(vcmr.__file__)))
    outputs = []
    for threads in ("1", "2"):
        run = tmp_path / f"threads{threads}"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        env.update({name: threads for name in BLAS_THREAD_VARS})
        subprocess.run([sys.executable, "-c", WORKFLOW, str(config), str(run)], env=env, check=True,
                       capture_output=True)
        outputs.append(((run / "model.ckpt").read_bytes(), (run / "metrics.json").read_bytes()))
    assert outputs[0] == outputs[1]
