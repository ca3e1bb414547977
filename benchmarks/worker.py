"""One stage of a benchmark workload, run in a fresh process by run.py.

    python3 benchmarks/worker.py {setup,train,eval} --workload NAME --seed N \
        --dir WORKDIR --seconds S --result OUT.json [--trace SPANS.jsonl]

`setup` generates the three corpus splits and round-trips them through
JSONL; `train` trains the retriever, mines hard negatives, trains the
localizer and writes the checkpoint; `eval` loads the test split and the
checkpoint and evaluates every task. Each stage writes its timings, checks
and counts to OUT.json. With --trace, the vcmr package is traced (see
tracer.py) and the spans are written to SPANS.jsonl.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time

# Sizes and schedules of each workload (README.md says why each exists).
# Splits follow `vcmr gen`: val and test use offset seeds and their own
# queries per video. `vr_repeats` repeats the VR evaluation, which on 24
# videos takes a few hundred ms, so it measures enough ranking to be steady.
WORKLOADS = {
    "train_default": {
        "spec": {"video_count": 100, "clips_per_video": 16},
        "splits": {"train": (0, 3), "val": (1001, 2), "test": (2002, 1)},
        "train": {"retriever_epochs": 3, "localizer_epochs": 2},
        "vr_repeats": 1,
    },
    "eval_default": {
        "spec": {"video_count": 100, "clips_per_video": 16},
        "splits": {"train": (0, 3), "val": (1001, 2), "test": (2002, 2)},
        "train": {"retriever_epochs": 1, "localizer_epochs": 1},
        "vr_repeats": 1,
    },
    "long_videos": {
        "spec": {"video_count": 24, "clips_per_video": 64, "moment_len_range": [4, 12]},
        "splits": {"train": (0, 4), "val": (1001, 2), "test": (2002, 5)},
        "train": {"retriever_epochs": 6, "localizer_epochs": 1, "localizer_batch": 8},
        "vr_repeats": 4,
    },
}
SETUP_REPS = 3
CHECKPOINT_SAVES = 3
# Time of Clock.probe on a quiet core of the reference host (2-vCPU x86-64
# VM, Python 3.11, NumPy 2.4 with OpenBLAS on one thread). It only sets the
# scale of every time the benchmark reports.
PROBE_REFERENCE_S = 2.0e-4


def workload_config(name, seed):
    """Everything that determines a workload's inputs and outputs."""
    w = WORKLOADS[name]
    return {"workload": name, "seed": seed, "spec": w["spec"], "splits": w["splits"],
            "train": dict(w["train"], seed=seed), "vr_repeats": w["vr_repeats"]}


def config_hash(cfg):
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Clock:
    """Splits each timed phase into units of work and scales every unit to a
    reference CPU speed.

    The benchmark host is a VM whose cores other tenants slow by up to 1.7x,
    for stretches from a second to longer than a whole run, so raw times of
    the same run differ by that much. Right after each unit (a training step,
    a query, a validation pass, an index build, a setup repetition) the clock
    times a fixed NumPy probe that takes PROBE_REFERENCE_S on a quiet core of
    the reference host. A unit's scaled time is its wall time times
    PROBE_REFERENCE_S over the median of the probes of the seven units
    around it: a single probe right after a large unit runs noisily, while
    the host's speed changes over seconds.
    The probe runs outside every unit and uses no vcmr code, so a change to
    the program moves the units and not the probe.
    """

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self._np = np
        self._a = rng.normal(size=(32, 32)) / 8.0
        self._x = rng.normal(size=(16, 32))
        self.units = []  # (kind, wall_s since the previous unit, call_s, probe_s)
        self.probing_s = 0.0  # total time spent in probes
        self.tracer = None
        self._restart = time.perf_counter()

    def probe(self):
        # a collection triggered by the probe's allocations would be the
        # program's garbage, so the collector waits until the probe is done
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            times = []
            for _ in range(4):  # the first pass after a large unit runs cold
                t0 = time.perf_counter()
                y = self._x
                for _ in range(40):
                    y = self._np.tanh(y @ self._a) + self._x
                times.append(time.perf_counter() - t0)
            return min(times[1:])
        finally:
            if gc_was_enabled:
                gc.enable()

    def start(self):
        self._restart = time.perf_counter()

    def mark(self, kind, call_start=None):
        """End a unit now; `call_start` is when the call that made it began."""
        end = time.perf_counter()
        call_start = self._restart if call_start is None else call_start
        self.units.append((kind, end - self._restart, end - call_start, self.probe()))
        self._restart = time.perf_counter()
        self.probing_s += self._restart - end
        if self.tracer:
            self.tracer.exclude(self._restart - end)

    def install(self):
        """Mark a unit at the end of each call the program makes per unit of work."""
        from vcmr import optim, pipeline, retriever
        for owner, attr in ((pipeline, "rank_videos"), (pipeline, "infer"),
                            (pipeline, "infer_single_video"), (pipeline, "evaluate_retrieval"),
                            (retriever, "encode_corpus"), (optim.AdamW, "step")):
            setattr(owner, attr, self._marking(getattr(owner, attr), attr))

    def _marking(self, fn, kind):
        @functools.wraps(fn)
        def marked(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            self.mark(kind, t0)
            return out

        return marked

    def scaled(self, first):
        """(kind, scaled wall_s, scaled call_s) of the units from index `first` on."""
        units = self.units[first:]
        probes = [u[3] for u in units]
        out = []
        for i, (kind, wall, call, _) in enumerate(units):
            scale = PROBE_REFERENCE_S / statistics.median(probes[max(0, i - 3) : i + 4])
            out.append((kind, wall * scale, call * scale))
        return out


class Stage:
    """Timing, checks and operation counts of one stage process."""

    def __init__(self, args, tracer):
        self.args = args
        self.tracer = tracer
        self.clock = Clock()
        self.units = {}  # phase -> scaled units
        self.result = {"stage": args.stage, "phase_wall_s": {}, "phase_scaled_s": {},
                       "phase_probe_s": {}, "checks": [], "attempted": 0, "failed": 0}

    @contextlib.contextmanager
    def phase(self, name):
        cm = self.tracer.phase_span(name) if self.tracer else contextlib.nullcontext()
        first = len(self.clock.units)
        probing_s = self.clock.probing_s
        with cm:
            t0 = time.perf_counter()
            self.clock.start()
            yield
            self.clock.mark("tail")
            wall = time.perf_counter() - t0
        self.units[name] = self.clock.scaled(first)
        self.result["phase_wall_s"][name] = wall
        self.result["phase_scaled_s"][name] = sum(u[1] for u in self.units[name])
        self.result["phase_probe_s"][name] = self.clock.probing_s - probing_s

    def scaled_calls(self, phase, kind):
        """Scaled durations of the calls that ended each `kind` unit of `phase`."""
        return [call for k, _, call in self.units.get(phase, ()) if k == kind]

    def scaled_units(self, phase, kind):
        """Scaled durations of the `kind` units of `phase`, glue code included."""
        return [wall for k, wall, _ in self.units.get(phase, ()) if k == kind]

    def check(self, ok, what, failed_ops=1):
        """Record one output check; a failed check counts as failed operations."""
        self.result["checks"].append({"check": what, "ok": bool(ok)})
        if not ok:
            self.result["failed"] += failed_ops
            print(f"check failed: {what}", file=sys.stderr)
        return ok


def corpus_dir(args, split):
    return os.path.join(args.dir, "corpus", split)


def checkpoint_path(args, i=0):
    return os.path.join(args.dir, f"model.{i}.ckpt")


def split_specs(vcmr_corpus, cfg):
    spec = vcmr_corpus.SyntheticSpec(**{k: tuple(v) if isinstance(v, list) else v
                                        for k, v in cfg["spec"].items()}, seed=cfg["seed"])
    return {split: dataclasses.replace(spec, seed=spec.seed + offset, queries_per_video=qpv)
            for split, (offset, qpv) in cfg["splits"].items()}


def stage_setup(st, cfg):
    from vcmr import corpus
    specs = split_specs(corpus, cfg)
    reps = []
    with st.phase("setup"):
        for _ in range(SETUP_REPS):
            made = {split: corpus.generate(spec, split=split) for split, spec in specs.items()}
            for split, c in made.items():
                corpus.save(c, corpus_dir(st.args, split))
            loaded = {split: corpus.load(corpus_dir(st.args, split)) for split in made}
            st.clock.mark("corpus")
            reps.append((made, loaded))
    st.check(all(loaded[s] == made[s] for made, loaded in reps for s in made),
             "corpus JSONL round trip returns the generated corpus")
    st.result["corpus_s"] = st.scaled_calls("setup", "corpus")
    st.result["queries"] = {split: len(c.queries) for split, c in made.items()}


def steps_per_epoch(n, batch, min_batch):
    return n // batch + (1 if n % batch >= min_batch else 0)


def stage_train(st, cfg):
    from vcmr import autodiff, checkpoint, corpus, pipeline
    tc = pipeline.TrainConfig(**cfg["train"])
    icfg = pipeline.InferenceConfig()
    train = corpus.load(corpus_dir(st.args, "train"))
    val = corpus.load(corpus_dir(st.args, "val"))
    n = len(train.queries)
    retr_steps = tc.retriever_epochs * steps_per_epoch(n, tc.retriever_batch, 2)
    loc_steps = tc.localizer_epochs * steps_per_epoch(n, tc.localizer_batch, 1)
    st.result["attempted"] = retr_steps + loc_steps
    st.result.update(train_queries=n, retriever_epochs=tc.retriever_epochs,
                     localizer_epochs=tc.localizer_epochs)
    failures = (pipeline.DivergenceError, autodiff.NonFiniteError)
    try:
        with st.phase("retriever_train"):
            retr, curve = pipeline.train_retriever(train, tc, val_corpus=val)
    except failures as exc:
        st.check(False, f"retriever training: {exc}", failed_ops=retr_steps + loc_steps)
        return
    st.result["val_vr_r10"] = max(v for _, split, v in curve if split == "val")
    st.check(all(math.isfinite(v) for _, _, v in curve), "retriever loss curve finite")

    with st.phase("mining"):
        negatives = pipeline.mine_hard_negatives(retr, train, tc)
    st.check(all(len(set(negatives[q.id])) == tc.negatives_per_query
                 and q.target_video not in negatives[q.id] for q in train.queries),
             "mined negatives: distinct, exclude the target video")
    try:
        with st.phase("localizer_train"):
            loc, loc_curve, _ = pipeline.train_localizer(train, retr, tc, icfg, negatives=negatives)
    except failures as exc:
        st.check(False, f"localizer training: {exc}", failed_ops=loc_steps)
        return
    st.check(all(math.isfinite(v) for _, _, v in loc_curve), "localizer loss curve finite")
    st.result["localizer_step_s"] = st.scaled_units("localizer_train", "step")
    st.result["localizer_batch"] = tc.localizer_batch

    arrays = checkpoint.merge_namespaces(retriever={k: t.data for k, t in retr.params.items()},
                                         localizer={k: t.data for k, t in loc.params.items()})
    with st.phase("checkpoint"):
        for i in range(CHECKPOINT_SAVES):
            checkpoint.save_checkpoint(checkpoint_path(st.args, i), arrays)
            st.clock.mark("save")
        loaded = checkpoint.load_checkpoint(checkpoint_path(st.args))
        st.clock.mark("load")
    blobs = []
    for i in range(CHECKPOINT_SAVES):
        with open(checkpoint_path(st.args, i), "rb") as fh:
            blobs.append(fh.read())
    st.check(all(b == blobs[0] for b in blobs), "checkpoint saves byte-identical")
    st.check(list(loaded) == list(arrays) and all((loaded[k] == arrays[k]).all() for k in arrays),
             "checkpoint load returns the saved arrays")
    st.result.update(checkpoint_save_s=st.scaled_calls("checkpoint", "save"),
                     checkpoint_load_s=st.scaled_calls("checkpoint", "load")[0],
                     checkpoint_bytes=len(blobs[0]),
                     checkpoint_sha256=hashlib.sha256(blobs[0]).hexdigest())


def check_predictions(st, corpus, preds, icfg, single_video):
    """Spans inside their video, sorted by score, at most results_per_query."""
    bad = 0
    for query, ranked in preds:
        ok = 0 < len(ranked) <= icfg.results_per_query
        ok = ok and all(a.score >= b.score for a, b in zip(ranked, ranked[1:]))
        for m in ranked:
            video = corpus.video(m.video_id)
            ok = ok and 0 <= m.span[0] <= m.span[1] < len(video) and math.isfinite(m.score)
            ok = ok and (not single_video or m.video_id == query.target_video)
        bad += not ok
    task = "svmr" if single_video else "vcmr"
    st.check(bad == 0, f"{task} predictions: in-video spans, sorted, at most results_per_query "
             f"({bad} of {len(preds)} queries bad)", failed_ops=bad)


def stage_eval(st, cfg):
    from vcmr import autodiff, checkpoint, corpus, pipeline, retriever
    from vcmr.localizer import LocalizerModel
    from vcmr.retriever import RetrieverModel
    seed = cfg["seed"]
    icfg = pipeline.InferenceConfig()
    test = corpus.load(corpus_dir(st.args, "test"))
    arrays = checkpoint.load_checkpoint(checkpoint_path(st.args))
    retr = RetrieverModel(test.d_txt, test.d_img, test.d_sub, seed=seed)
    retr.params.load_state_dict(checkpoint.split_namespace(arrays, "retriever"))
    loc = LocalizerModel(test.d_txt, test.d_img, test.d_sub, seed=seed + 1)
    loc.params.load_state_dict(checkpoint.split_namespace(arrays, "localizer"))
    n = len(test.queries)
    st.result["test_queries"] = n

    # evaluate_pipeline looks infer/infer_single_video up in pipeline's
    # namespace; wrapping them there captures each query's predictions.
    captured = {"infer": [], "infer_single_video": []}

    def capture(name):
        fn = getattr(pipeline, name)

        def wrapper(retriever_model, localizer_model, corpus_, query, icfg_, index=None):
            out = fn(retriever_model, localizer_model, corpus_, query, icfg_, index=index)
            captured[name].append((query, out))
            return out

        setattr(pipeline, name, wrapper)

    capture("infer")
    capture("infer_single_video")
    report = {}
    for task in ("vr", "svmr", "vcmr"):
        repeats = cfg["vr_repeats"] if task == "vr" else 1
        st.result["attempted"] += n * repeats
        try:
            with st.phase(f"eval_{task}"):
                reports = [getattr(pipeline.evaluate_pipeline(retr, loc, test, icfg, tasks=(task,)), task)
                           for _ in range(repeats)]
        except autodiff.NonFiniteError as exc:
            st.check(False, f"{task} eval: {exc}", failed_ops=n * repeats)
            reports = [{}]
        report[task] = reports[0]
        st.check(all(r == reports[0] for r in reports), f"{task} metrics repeat exactly")
    st.result["vr_repeats"] = cfg["vr_repeats"]
    first_pass = list(captured["infer"])

    # Query latency is sampled for at least --seconds: if VCMR eval was
    # shorter, keep calling infer over the test queries with a prebuilt index.
    remaining = st.args.seconds - st.result["phase_wall_s"].get("eval_vcmr", 0.0)
    if remaining > 0:
        with st.phase("latency_loop"):
            index = retriever.encode_corpus(retr, test)
            deadline = time.perf_counter() + remaining
            i = 0
            while time.perf_counter() < deadline:
                pipeline.infer(retr, loc, test, test.queries[i % n], icfg, index=index)
                i += 1
        st.result["attempted"] += i
    st.result["latency_s"] = st.scaled_calls("eval_vcmr", "infer") + st.scaled_calls("latency_loop", "infer")

    for task in ("vr", "svmr", "vcmr"):
        st.check(report[task] and all(0.0 <= v <= 100.0 for v in report[task].values()),
                 f"{task} metrics lie in [0, 100]")
    check_predictions(st, test, captured["infer_single_video"], icfg, single_video=True)
    check_predictions(st, test, captured["infer"], icfg, single_video=False)
    for task, preds in (("svmr", captured["infer_single_video"]), ("vcmr", first_pass)):
        recomputed = getattr(pipeline.evaluate({q.id: p for q, p in preds}, test, task), task)
        st.check(recomputed == report[task],
                 f"{task} metrics from evaluate_pipeline equal pipeline.evaluate of the infer results")
    metrics_json = json.dumps(report, indent=2, sort_keys=True) + "\n"
    st.result.update(report=report, metrics_sha256=hashlib.sha256(metrics_json.encode()).hexdigest())


def environment():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"), "nproc": os.cpu_count()}


def main(argv=None):
    t0 = time.perf_counter()
    import vcmr
    import_s = time.perf_counter() - t0

    parser = argparse.ArgumentParser()
    parser.add_argument("stage", choices=("setup", "train", "eval"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", default=None)
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(vcmr)
    st = Stage(args, tracer)
    st.clock.tracer = tracer
    st.clock.install()
    # the import ran before the clock existed; scale it by probes taken now
    import_s *= PROBE_REFERENCE_S / statistics.median(st.clock.probe() for _ in range(5))
    cfg = workload_config(args.workload, args.seed)
    {"setup": stage_setup, "train": stage_train, "eval": stage_eval}[args.stage](st, cfg)
    st.result.update(import_s=import_s, peak_rss_mb=peak_rss_mb(), env=environment())
    if tracer:
        tracer.uninstall()
        tracer.write(args.trace, args.stage)
        st.result["trace"] = tracer.summary()
    with open(args.result, "w") as fh:
        json.dump(st.result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
