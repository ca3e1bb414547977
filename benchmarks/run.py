"""Benchmark of the vcmr train-then-evaluate pipeline.

    python3 benchmarks/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. Each workload runs three fresh processes in
turn (worker.py): `setup` makes the corpus, `train` trains both stages and
writes the checkpoint, `eval` evaluates a model it did not train, as
`vcmr eval` does. Without --workload every workload runs.

--trace 0 prints the end-to-end metrics. --trace 1 runs the workload once
untraced and once traced, and prints the per-layer metrics of the traced run
plus the tracing overhead (traced minus untraced wall time of each phase).
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Details of each run (environment,
config hash, digests, checks, per-phase breakdown) go to
.bench_out/<workload>-seed<seed>[-trace].json, and traced spans to
.bench_out/<workload>-seed<seed>-trace/spans.<stage>.jsonl.

Exit status: 0 when every output check passed, 1 when one failed or a stage
crashed, 2 when the program under test is missing.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

sys.dont_write_bytecode = True  # leave no __pycache__ beside the benchmark
import tracer  # noqa: E402
import worker  # noqa: E402

# Each run must end within this many seconds, both chains included.
RUN_BUDGET_S = 170.0
BLAS_THREADS = "1"
# Phases whose work is fixed by the seed; the latency loop runs for a time.
FIXED_PHASES = ("setup", "retriever_train", "mining", "localizer_train", "checkpoint",
                "eval_vr", "eval_svmr", "eval_vcmr")

END_TO_END = {
    "setup_s": "s",
    "retriever_train_qps": "queries/s",
    "mining_qps": "queries/s",
    "eval_vr_qps": "queries/s",
    "eval_svmr_qps": "queries/s",
    "eval_vcmr_qps": "queries/s",
    "vcmr_query_p50_ms": "ms",
    "vcmr_query_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# traced name -> metric prefix; each gets <prefix>.calls and <prefix>.self_ms
LAYER_CALLS = {name: name for name in (
    "spans.nms", "spans.enumerate_spans", "spans.top_spans",
    "retriever.encode_corpus", "retriever.encode_query", "retriever.score_video",
    "retriever.make_batch", "retriever.contrastive_loss",
    "localizer.adversarial_loss",
    "pipeline.localizer_batch_loss", "pipeline.localize_scores", "pipeline.evaluate",
    "autodiff.Tape.backward",
    "nn.multi_head_attention", "nn.layer_norm", "nn.linear",
    "optim.AdamW.step",
)}
LAYER_CALLS.update({f"autodiff.{op}": f"autodiff.{op}" for op in tracer.AUTODIFF_OPS})
LAYER_CALLS["localizer.LocalizerModel.forward_rows"] = "localizer.forward_rows"
LAYER_CALLS["nn.TransformerLayer.__call__"] = "nn.TransformerLayer"
MODULES = ("corpus", "checkpoint", "retriever", "localizer", "pipeline", "spans", "autodiff", "nn",
           "optim")

PER_LAYER = {}
for _prefix in LAYER_CALLS.values():
    PER_LAYER[f"{_prefix}.calls"] = "count"
    PER_LAYER[f"{_prefix}.self_ms"] = "ms"
PER_LAYER.update({
    "localizer.train_qps": "queries/s",
    "spans.iou.calls": "count",
    "spans.nms.kept_ratio": "ratio",
    "retriever.videos_scored_per_query": "videos/query",
    "autodiff.tape_records_per_step": "records/step",
    "corpus.generate.self_ms": "ms",
    "corpus.save.self_ms": "ms",
    "corpus.load.self_ms": "ms",
    "corpus.image_matrix.calls": "count",
    "corpus.subtitle_matrix.calls": "count",
    "checkpoint.bytes": "bytes",
    "checkpoint.save_ms": "ms",
    "checkpoint.load_ms": "ms",
    "runtime.gc_gen0_collections": "count",
    "runtime.gc_gen1_collections": "count",
    "runtime.gc_gen2_collections": "count",
    "runtime.gc_pause_ms": "ms",
    "runtime.retriever_rss_last_step_mb": "MB",
    "runtime.localizer_rss_first_step_mb": "MB",
    "runtime.localizer_rss_last_step_mb": "MB",
    "runtime.localizer_rss_max_step_mb": "MB",
})
PER_LAYER.update({f"module.{m}.self_s": "s" for m in MODULES + ("unattributed",)})
PER_LAYER.update({
    "trace.traced_wall_s": "s",
    "trace.traced_s": "s",
    "trace.untraced_s": "s",
    "trace.overhead_s": "s",
    "trace.accounted_share": "ratio",
})


class StageFailed(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in ("src", env.get("PYTHONPATH")) if p)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_stage(stage, args, workdir, deadline, trace_path=None):
    result_path = os.path.join(workdir, f"{stage}.json")
    cmd = [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py"),
           stage, "--workload", args.workload, "--seed", str(args.seed), "--dir", workdir,
           "--seconds", str(args.seconds), "--result", result_path]
    if trace_path:
        cmd += ["--trace", trace_path]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise StageFailed(f"{stage}: no time left in the run budget")
    try:
        # worker output goes to stderr so the last stdout line stays the result
        proc = subprocess.run(cmd, env=child_env(), stdout=sys.stderr, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise StageFailed(f"{stage}: timed out")
    if proc.returncode != 0 or not os.path.exists(result_path):
        raise StageFailed(f"{stage}: exited with status {proc.returncode}")
    with open(result_path) as fh:
        return json.load(fh)


def run_chain(args, deadline, trace_dir=None):
    """setup -> train -> eval, each in a fresh process; returns stage results."""
    os.makedirs(".bench_work", exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=".bench_work")
    results = {}
    try:
        for stage in ("setup", "train", "eval"):
            trace_path = os.path.join(trace_dir, f"spans.{stage}.jsonl") if trace_dir else None
            results[stage] = run_stage(stage, args, workdir, deadline, trace_path)
            if results[stage]["failed"]:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return results


def end_to_end(results):
    setup, train, ev = results["setup"], results["train"], results["eval"]
    setup_s = (statistics.median(r["import_s"] for r in (setup, train, ev))
               + statistics.median(setup["corpus_s"])
               + statistics.median(train["checkpoint_save_s"]) + train["checkpoint_load_s"])
    n_train, n_test = train["train_queries"], ev["test_queries"]
    walls = {**train["phase_scaled_s"], **ev["phase_scaled_s"]}
    latency = [1000.0 * t for t in ev["latency_s"]]
    deciles = statistics.quantiles(latency, n=10, method="inclusive")
    return {
        "setup_s": setup_s,
        "retriever_train_qps": n_train * train["retriever_epochs"] / walls["retriever_train"],
        "mining_qps": n_train / walls["mining"],
        "eval_vr_qps": n_test * ev["vr_repeats"] / walls["eval_vr"],
        "eval_svmr_qps": n_test / walls["eval_svmr"],
        "eval_vcmr_qps": n_test / walls["eval_vcmr"],
        "vcmr_query_p50_ms": statistics.median(latency),
        "vcmr_query_p90_ms": deciles[8],
        "peak_rss_mb": max(train["peak_rss_mb"], ev["peak_rss_mb"]),
    }


def quality(results):
    """Recall reached by the workload's schedule; deterministic for a seed."""
    report = results["eval"]["report"]
    return {
        "val_vr_r10": results["train"]["val_vr_r10"],
        "vr_r10": report["vr"]["R@10"],
        "svmr_r10_iou05": report["svmr"]["R@10,IoU=0.5"],
        "vcmr_r100_iou05": report["vcmr"]["R@100,IoU=0.5"],
    }


def fixed_phases(results):
    """(phase, tracer record, stage result) of every fixed-work phase, all stages."""
    for stage in results.values():
        for phase, rec in stage["trace"]["phases"].items():
            if phase in FIXED_PHASES:
                yield phase, rec, stage


def phase_totals(results):
    """Sum the tracer totals of every fixed-work phase over all stage processes."""
    totals = {}
    for _, rec, _ in fixed_phases(results):
        for key, value in rec["totals"].items():
            totals[key] = totals.get(key, 0) + value
    return totals


def module_breakdown(results, untraced):
    """Per phase: traced self time per module, which with the clock's probes
    sums to the traced wall time, and the tracing overhead, traced minus
    untraced scaled time."""
    untraced_s = {**untraced["setup"]["phase_scaled_s"], **untraced["train"]["phase_scaled_s"],
                  **untraced["eval"]["phase_scaled_s"]}
    rows = {}
    for phase, rec, stage in fixed_phases(results):
        self_s = {m: 0.0 for m in MODULES}
        for key, value in rec["totals"].items():
            if key.endswith(".self_s"):
                self_s[tracer.module_of(key)] += value
        probe_s = stage["phase_probe_s"][phase]
        self_s["unattributed"] = rec["wall_s"] - probe_s - sum(self_s.values())
        traced_s = stage["phase_scaled_s"][phase]
        rows[phase] = {"untraced_s": untraced_s[phase], "traced_s": traced_s,
                       "overhead_s": traced_s - untraced_s[phase], "traced_wall_s": rec["wall_s"],
                       "probe_s": probe_s, "self_s": self_s}
    return rows


def per_layer(results, untraced):
    t = phase_totals(results)
    breakdown = module_breakdown(results, untraced)
    m = {}
    for name, prefix in LAYER_CALLS.items():
        m[f"{prefix}.calls"] = t.get(f"{name}.calls", 0)
        m[f"{prefix}.self_ms"] = 1000.0 * t.get(f"{name}.self_s", 0.0)
    steps = t.get("optim.AdamW.step.calls", 0)
    queries = t.get("retriever.encode_query.calls", 0)
    candidates = t.get("spans.nms.candidates", 0)
    rss = {}
    for event in results["train"]["trace"]["rss_after_step"]:
        rss.setdefault(event["phase"], []).append(event["rss_mb"])
    train = results["train"]
    m.update({
        # ungated: see README.md; measured untraced, on the median step
        "localizer.train_qps":
            untraced["train"]["localizer_batch"] / statistics.median(untraced["train"]["localizer_step_s"]),
        "spans.iou.calls": t.get("spans.iou.calls", 0),
        "spans.nms.kept_ratio": t.get("spans.nms.kept", 0) / candidates if candidates else 0.0,
        "retriever.videos_scored_per_query":
            t.get("retriever.score_video.calls", 0) / queries if queries else 0.0,
        "autodiff.tape_records_per_step": t.get("autodiff.Tape.record.calls", 0) / steps if steps else 0.0,
        "corpus.generate.self_ms": 1000.0 * t.get("corpus.generate.self_s", 0.0),
        "corpus.save.self_ms": 1000.0 * t.get("corpus.save.self_s", 0.0),
        "corpus.load.self_ms": 1000.0 * t.get("corpus.load.self_s", 0.0),
        "corpus.image_matrix.calls": t.get("corpus.Video.image_matrix.calls", 0),
        "corpus.subtitle_matrix.calls": t.get("corpus.Video.subtitle_matrix.calls", 0),
        "checkpoint.bytes": train["checkpoint_bytes"],
        "checkpoint.save_ms": 1000.0 * statistics.median(train["checkpoint_save_s"]),
        "checkpoint.load_ms": 1000.0 * train["checkpoint_load_s"],
        "runtime.gc_pause_ms": 1000.0 * t.get("runtime.gc_pause_s", 0.0),
        "runtime.retriever_rss_last_step_mb": rss["retriever_train"][-1],
        "runtime.localizer_rss_first_step_mb": rss["localizer_train"][0],
        "runtime.localizer_rss_last_step_mb": rss["localizer_train"][-1],
        "runtime.localizer_rss_max_step_mb": max(rss["localizer_train"]),
    })
    for gen in range(3):
        m[f"runtime.gc_gen{gen}_collections"] = t.get(f"runtime.gc_gen{gen}_collections", 0)
    for mod in MODULES + ("unattributed",):
        m[f"module.{mod}.self_s"] = sum(row["self_s"][mod] for row in breakdown.values())
    total = {key: sum(row[key] for row in breakdown.values())
             for key in ("traced_wall_s", "probe_s", "traced_s", "untraced_s", "overhead_s")}
    m.update({
        "trace.traced_wall_s": total["traced_wall_s"],
        "trace.traced_s": total["traced_s"],
        "trace.untraced_s": total["untraced_s"],
        "trace.overhead_s": total["overhead_s"],
        "trace.accounted_share":
            1.0 - m["module.unattributed.self_s"] / (total["traced_wall_s"] - total["probe_s"]),
    })
    return m, breakdown


def environment(results):
    env = dict(results["setup"]["env"], commit="unknown")
    if os.path.isdir(".git"):  # a checkout exported without git has only the source digest
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
            if proc.returncode == 0:
                env["commit"] = proc.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join("src", "vcmr", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(path.encode() + b"\0" + fh.read())
    env["source_sha256"] = digest.hexdigest()
    return env


def print_metrics(title, metrics, units):
    print(f"== {title}")
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {units[name]}")


def run_workload(args):
    """Runs one workload; returns (correct, attempted, failed, metrics)."""
    deadline = time.monotonic() + RUN_BUDGET_S
    cfg = worker.workload_config(args.workload, args.seed)
    label = f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else "")
    os.makedirs(".bench_out", exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "config": cfg, "config_sha256": worker.config_hash(cfg)}
    chains = []
    try:
        chains.append(run_chain(args, deadline))
        if args.trace and len(chains[0]) == 3:
            trace_dir = os.path.join(".bench_out", label)
            shutil.rmtree(trace_dir, ignore_errors=True)
            os.makedirs(trace_dir)
            chains.append(run_chain(args, deadline, trace_dir))
    except StageFailed as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        record["error"] = str(exc)
    attempted = sum(r["attempted"] for chain in chains for r in chain.values())
    failed = sum(r["failed"] for chain in chains for r in chain.values())
    complete = len(chains) == 1 + args.trace and all(len(c) == 3 for c in chains)
    if not complete:
        failed += 1  # the stage that crashed or stopped the chain
    attempted = max(attempted, failed, 1)
    correct = complete and failed == 0

    metrics, units = {}, END_TO_END
    if complete and not failed:
        first = chains[0]
        record.update(environment=environment(first),
                      checkpoint_sha256=first["train"]["checkpoint_sha256"],
                      metrics_sha256=first["eval"]["metrics_sha256"],
                      quality=quality(first), eval_report=first["eval"]["report"],
                      latency_samples=len(first["eval"]["latency_s"]),
                      phase_wall_s={**first["train"]["phase_wall_s"], **first["eval"]["phase_wall_s"]},
                      phase_scaled_s={**first["train"]["phase_scaled_s"],
                                      **first["eval"]["phase_scaled_s"]})
        metrics = end_to_end(first)
        if args.trace:
            metrics, breakdown = per_layer(chains[1], first)
            record["phase_breakdown"] = breakdown
            units = PER_LAYER
    record.update(attempted=attempted, failed=failed, correct=correct, metrics=metrics,
                  checks=[c for chain in chains for r in chain.values() for c in r["checks"]])
    with open(os.path.join(".bench_out", label + ".json"), "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")

    print(f"workload {args.workload}, seed {args.seed}: {attempted} operations, {failed} failed")
    if metrics:
        env = record["environment"]
        print(f"  python {env['python']}, numpy {env['numpy']}, {env['blas']}, "
              f"{env['blas_threads']} BLAS thread(s), nproc {env['nproc']}, commit {env['commit']}")
        print(f"  config {record['config_sha256'][:16]}  checkpoint {record['checkpoint_sha256'][:16]}  "
              f"metrics {record['metrics_sha256'][:16]}  latency samples {record['latency_samples']}")
        print_metrics(args.workload, metrics, units)
        print_metrics("quality (deterministic per seed; compared by digest, not gated)",
                      record["quality"], dict.fromkeys(record["quality"], "%"))
        if args.trace:
            for phase in ("retriever_train", "localizer_train"):
                rss = [e["rss_mb"] for e in chains[1]["train"]["trace"]["rss_after_step"]
                       if e["phase"] == phase]
                print(f"  RSS after each {phase} step (MB): " + " ".join(f"{v:.0f}" for v in rss))
            print(f"  {'phase':<16} {'untraced_s':>10} {'traced_s':>10} {'overhead_s':>10} "
                  f"{'wall_s':>8}  traced self time by module (s)")
            for phase, row in record["phase_breakdown"].items():
                mods = "  ".join(f"{k}={v:.3f}" for k, v in row["self_s"].items() if abs(v) >= 0.0005)
                print(f"  {phase:<16} {row['untraced_s']:>10.3f} {row['traced_s']:>10.3f} "
                      f"{row['overhead_s']:>10.3f} {row['traced_wall_s']:>8.3f}  {mods}")
    return correct, attempted, failed, {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(worker.WORKLOADS), default=None,
                        help="workload to run (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5.0,
                        help="minimum time the query-latency sample spans")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "vcmr", "__init__.py")):
        print("benchmark: src/vcmr not found; run from the root of a vcmr checkout", file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else list(worker.WORKLOADS)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        args.workload = name
        correct, attempted, failed, metrics = run_workload(args)
        summary["correct"] &= correct
        summary["attempted"] += attempted
        summary["failed"] += failed
        if len(names) == 1:
            summary["metrics"] = metrics
        else:
            summary["metrics"].update({f"{name}.{k}": v for k, v in metrics.items()})
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
