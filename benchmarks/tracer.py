"""In-memory span tracer for the benchmark.

It wraps public functions of the `vcmr` package from the outside, so the
program under test is unchanged. Each wrapped name is patched in every
`vcmr` module that holds the same function object, because callers look a
name up where they imported it (`pipeline` binds `nms` from `spans`).

Every call of a wrapped name adds to that name's call count and self time
(its duration minus the time of traced calls nested inside it). Names in
`SPAN_NAMES` also keep one span per call: (id, name, start, end, parent).
The hottest names are aggregated only, and `iou` is only counted, so a
traced run stays small in memory. Spans, events and totals stay in memory
until `write` is called at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import itertools
import json
import os
import time

# Public ops of vcmr.autodiff that the program calls.
AUTODIFF_OPS = (
    "add", "sub", "mul", "pow_const", "relu", "exp", "log", "matmul", "sum_", "mean",
    "max_over_axis", "softmax", "logsumexp", "reshape", "swapaxes", "concat", "slice_axis",
    "take", "l2_normalize", "conv1d", "bce_with_logits",
)

# (module, attribute) for module-level functions; (module, Class, method) for methods.
FUNCTIONS = (
    [("corpus", "generate"), ("corpus", "save"), ("corpus", "load"),
     ("checkpoint", "save_checkpoint"), ("checkpoint", "load_checkpoint"),
     ("spans", "nms"), ("spans", "enumerate_spans"), ("spans", "top_spans"),
     ("spans", "sample_positive_spans"),
     ("retriever", "encode_corpus"), ("retriever", "encode_video"), ("retriever", "encode_query"),
     ("retriever", "score_video"), ("retriever", "retrieve_topk"), ("retriever", "make_batch"),
     ("retriever", "contrastive_loss"),
     ("localizer", "adversarial_loss"), ("localizer", "total_loss"),
     ("pipeline", "train_retriever"), ("pipeline", "evaluate_retrieval"),
     ("pipeline", "mine_hard_negatives"), ("pipeline", "train_localizer"),
     ("pipeline", "localizer_batch_loss"), ("pipeline", "localize_scores"),
     ("pipeline", "infer"), ("pipeline", "infer_single_video"), ("pipeline", "evaluate"),
     ("pipeline", "evaluate_pipeline"),
     ("nn", "multi_head_attention"), ("nn", "layer_norm"), ("nn", "linear")]
    + [("autodiff", op) for op in AUTODIFF_OPS]
)
METHODS = (
    ("corpus", "Video", "image_matrix"), ("corpus", "Video", "subtitle_matrix"),
    ("localizer", "LocalizerModel", "forward_rows"),
    ("nn", "TransformerLayer", "__call__"),
    ("autodiff", "Tape", "backward"),
    ("optim", "AdamW", "step"),
)

# Names that keep one span per call; at most a few thousand calls per run.
SPAN_NAMES = frozenset({
    "corpus.generate", "corpus.save", "corpus.load",
    "checkpoint.save_checkpoint", "checkpoint.load_checkpoint",
    "spans.nms", "retriever.encode_corpus", "retriever.retrieve_topk",
    "retriever.make_batch", "retriever.contrastive_loss",
    "localizer.LocalizerModel.forward_rows", "localizer.adversarial_loss",
    "pipeline.train_retriever", "pipeline.evaluate_retrieval", "pipeline.mine_hard_negatives",
    "pipeline.train_localizer", "pipeline.localizer_batch_loss", "pipeline.localize_scores",
    "pipeline.infer", "pipeline.infer_single_video", "pipeline.evaluate",
    "pipeline.evaluate_pipeline", "autodiff.Tape.backward", "optim.AdamW.step",
})


def module_of(name):
    """Layer a traced name belongs to: its first dotted component."""
    return name.split(".", 1)[0]


def current_rss_mb():
    """Resident set size of this process now, in MB (Linux)."""
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


class Tracer:
    def __init__(self):
        self.origin = time.perf_counter()
        self.spans = []  # (id, name, start, end, parent id)
        self.stats = {}  # name -> [calls, self_s]
        self.counts = {}  # name -> calls, for count-only names
        self.events = []  # dicts written beside the spans
        self.phases = {}  # phase -> {"wall_s": s, "totals": growth of totals() in the phase}
        self.nms_candidates = 0
        self.nms_kept = 0
        self.gc_collections = [0, 0, 0]
        self.gc_pause_s = 0.0
        self.phase = None
        self._ids = itertools.count(1)
        self._stack = [[0.0, 0]]  # frames: [time of traced children, span id]
        self._patched = []  # (owner, attr, original)
        self._gc_start = 0.0

    # -- installation ---------------------------------------------------------

    def install(self, package):
        """Patch every traced name of `package` (the imported vcmr package)."""
        import importlib
        mods = {m: importlib.import_module(f"{package.__name__}.{m}")
                for m in ("autodiff", "checkpoint", "corpus", "localizer", "nn", "optim",
                          "pipeline", "retriever", "spans")}
        for mod, attr in FUNCTIONS:
            name = f"{mod}.{attr}"
            original = getattr(mods[mod], attr)
            self._patch_everywhere(mods, attr, original, self._timed(name, original))
        for mod, cls_name, attr in METHODS:
            cls = getattr(mods[mod], cls_name)
            name = f"{mod}.{cls_name}.{attr}"
            self._patch(cls, attr, self._timed(name, cls.__dict__[attr]))
        iou = mods["spans"].iou
        self._patch_everywhere(mods, "iou", iou, self._counted("spans.iou", iou))
        tape = mods["autodiff"].Tape
        self._patch(tape, "record", self._counted("autodiff.Tape.record", tape.__dict__["record"]))
        gc.callbacks.append(self._on_gc)

    def uninstall(self):
        gc.callbacks.remove(self._on_gc)
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _patch_everywhere(self, mods, attr, original, wrapper):
        for mod in mods.values():
            if mod.__dict__.get(attr) is original:
                self._patch(mod, attr, wrapper)

    # -- wrappers -------------------------------------------------------------

    def _timed(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0])
        stack, spans, ids, perf = self._stack, self.spans, self._ids, time.perf_counter
        keep = name in SPAN_NAMES
        after = {"spans.nms": self._after_nms, "optim.AdamW.step": self._after_step}.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, next(ids) if keep else parent[1]]
            stack.append(frame)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                stats[0] += 1
                stats[1] += dur - frame[0]
                parent[0] += dur
                if keep:
                    spans.append((frame[1], name, t0, t1, parent[1]))
            if after is not None:
                after(args, out)
            return out

        return traced

    def _counted(self, name, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def exclude(self, seconds):
        """Keep `seconds` just spent by the benchmark out of the enclosing call's self time."""
        self._stack[-1][0] += seconds

    def _after_nms(self, args, kept):
        self.nms_candidates += len(args[0])
        self.nms_kept += len(kept)

    def _after_step(self, args, out):
        self.events.append({"event": "rss_after_step", "phase": self.phase,
                            "step": self.stats["optim.AdamW.step"][0],
                            "t": time.perf_counter() - self.origin, "rss_mb": current_rss_mb()})

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
            return
        pause = time.perf_counter() - self._gc_start
        self.gc_collections[info["generation"]] += 1
        self.gc_pause_s += pause
        if info["generation"] == 2:
            self.events.append({"event": "gc_gen2", "phase": self.phase,
                                "t": self._gc_start - self.origin, "pause_s": pause,
                                "collected": info["collected"]})

    # -- phases ---------------------------------------------------------------

    def totals(self):
        """Flat running totals: calls and self time per name, counters, GC."""
        out = {}
        for name, (calls, self_s) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        for name, calls in self.counts.items():
            out[f"{name}.calls"] = calls
        out.update({"spans.nms.candidates": self.nms_candidates, "spans.nms.kept": self.nms_kept,
                    "runtime.gc_pause_s": self.gc_pause_s})
        for gen, n in enumerate(self.gc_collections):
            out[f"runtime.gc_gen{gen}_collections"] = n
        return out

    @contextlib.contextmanager
    def phase_span(self, phase):
        """A root span for one timed phase; records how much each total grew in it."""
        before = self.totals()
        self.phase = phase
        sid = next(self._ids)
        self._stack.append([0.0, sid])
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, f"phase.{phase}", t0, t1, 0))
            self.phase = None
            grown = {k: v - before.get(k, 0) for k, v in self.totals().items()}
            self.phases[phase] = {"wall_s": t1 - t0, "totals": {k: v for k, v in grown.items() if v}}

    # -- output ---------------------------------------------------------------

    def summary(self):
        return {"phases": self.phases,
                "rss_after_step": [e for e in self.events if e["event"] == "rss_after_step"]}

    def write(self, path, process):
        """Spans then events as JSONL; times are seconds since the tracer started."""
        with open(path, "w") as fh:
            for sid, name, t0, t1, parent in self.spans:
                fh.write(json.dumps({"process": process, "id": sid, "name": name,
                                     "start": t0 - self.origin, "end": t1 - self.origin,
                                     "parent": parent}) + "\n")
            for event in self.events:
                fh.write(json.dumps(dict(event, process=process)) + "\n")
