"""Span tracing of the langrec layers, installed from outside the package.

`Tracer.install` replaces every public function and public method of each
langrec module with a wrapper that records a span (name, start, end, parent,
operation id). A function is replaced under every name a caller looks up:
`pair_score_matrix` is one object bound in `langrec.plda`, `langrec.backend`,
`langrec.hier` and `langrec.clustering`, and all four names get the same
wrapper. Generator functions and properties are left alone.

`LogCounter` counts the repairs and fallbacks the package reports through the
`langrec` logger.

`layer_metrics` turns the spans of the traced tasks into the per-layer metrics
listed in `PER_LAYER`.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import inspect
import json
import logging
import os
import sys
import time
from collections import Counter, defaultdict

MODULES = (
    "dataio", "preproc", "plda", "backend", "hier", "training",
    "clustering", "synth", "metrics", "modelio", "cli",
)
KINDS = ("plda", "dplda", "hdplda")
CLI_STEPS = (
    ("synth",), ("train", "plda"), ("cluster",), ("train", "dplda"), ("train", "hdplda"),
) + tuple((cmd, kind) for kind in KINDS for cmd in ("score", "eval"))

# Span fields, stored as lists for speed.
NAME, START, END, PARENT, OP, OK, NESTED, COUNT, TAG = range(9)


class Tracer:
    """In-memory span recorder. Disabled until `install` is called."""

    def __init__(self):
        self.enabled = False
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self.paused = False
        self.op = 0
        self.first_task_op = 1  # operations before this one belong to set-up

    def start_tasks(self) -> None:
        """Mark the end of set-up: later operations are tasks."""
        self.first_task_op = self.op + 1

    def begin_op(self) -> None:
        """Start a new operation: the spans that follow share its id."""
        self.op += 1

    def open(self, name: str, tag=None) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        nested = self._open[name] > 0
        self._open[name] += 1
        self._stack.append(sid)
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op, False, nested, 0, tag])
        return sid

    def close(self, sid: int, ok: bool, count: int = 0) -> None:
        span = self.spans[sid]
        span[END] = time.perf_counter()
        span[OK] = ok
        span[COUNT] = count
        self._stack.pop()
        self._open[span[NAME]] -= 1

    @contextlib.contextmanager
    def pause(self):
        """Record nothing inside: the benchmark's own output checks."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself; nothing while disabled."""
        if not self.enabled:
            yield
            return
        sid = self.open(name)
        ok = False
        try:
            yield
            ok = True
        finally:
            self.close(sid, ok)

    def install(self) -> None:
        """Wrap the public callables of every langrec module."""
        wrappers = {}
        for mod_name in MODULES:
            module = importlib.import_module(f"langrec.{mod_name}")
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                    wrappers[id(obj)] = (obj, self._wrap(f"{mod_name}.{attr}", obj))
                elif inspect.isclass(obj):
                    self._wrap_methods(f"{mod_name}.{attr}", obj)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "langrec" and not mod_name.startswith("langrec."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
        self.enabled = True

    def _wrap_methods(self, prefix: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                fn = raw.__func__
                setattr(cls, attr, type(raw)(self._wrap(f"{prefix}.{attr}", fn)))
            elif inspect.isfunction(raw) and not inspect.isgeneratorfunction(raw):
                setattr(cls, attr, self._wrap(f"{prefix}.{attr}", raw))

    def _wrap(self, name: str, fn):
        counter = _COUNTERS.get(name)
        tagger = _TAGGERS.get(name)
        if name == "plda.em_train":
            fn = _em_train_with_iterations(fn)
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.paused:
                result = fn(*args, **kwargs)
                return result[1] if name == "plda.em_train" else result
            sid = tracer.open(name, tagger(args) if tagger else None)
            ok = False
            count = 0
            try:
                result = fn(*args, **kwargs)
                if name == "plda.em_train":
                    count, result = result
                elif counter is not None:
                    count = counter(args, kwargs, result)
                ok = True
                return result
            finally:
                tracer.close(sid, ok, count)

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = getattr(fn, "__qualname__", fn.__name__)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def write(self, path) -> None:
        """Write every span as one JSON line (gzip-compressed)."""
        keys = ("name", "start", "end", "parent", "op", "ok", "nested", "count", "tag")
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for sid, span in enumerate(self.spans):
                doc = dict(zip(keys, span))
                doc["id"] = sid
                fh.write(json.dumps(doc) + "\n")


def _em_train_with_iterations(fn):
    """em_train that always requests its log-likelihood trace and returns
    (iterations, whatever the caller asked for)."""

    def traced(*args, **kwargs):
        wanted = kwargs.pop("return_trace", args[5] if len(args) > 5 else False)
        args = args[:5]
        model, trace = fn(*args, return_trace=True, **kwargs)
        return len(trace), ((model, trace) if wanted else model)

    return traced


def _rows(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None:
        return 1
    return 1 if len(shape) == 1 else int(shape[0])


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


_COUNTERS = {
    "dataio.load_embeddings": lambda a, k, r: len(r),
    "dataio.save_embeddings": lambda a, k, r: len(a[0]),
    "preproc.AffinePreproc.transform": lambda a, k, r: _rows(a[1]),
    "plda.exact_llr_matrix": lambda a, k, r: _rows(a[2]),
    "metrics.bootstrap_ci": lambda a, k, r: int(k.get("n_boot", a[2] if len(a) > 2 else 1000)),
    "modelio.save_model": lambda a, k, r: _file_size(a[0]),
    "modelio.load_model": lambda a, k, r: _file_size(a[0]),
}
_TAGGERS = {
    "training.train": lambda a: "hdplda" if hasattr(a[0], "stage1") else "dplda",
}


class LogCounter(logging.Handler):
    """Counts the warnings the package logs, by the repair they report."""

    PATTERNS = (
        ("langrec.plda", "not positive definite", "plda.ridge_repairs"),
        ("langrec.preproc", "ill-conditioned", "preproc.ridge_repairs"),
        ("langrec.plda", "log-likelihood decreased", "plda.em_ll_decreases"),
        ("langrec.training", "training diverged", "training.divergences"),
    )

    def __init__(self):
        super().__init__(level=logging.WARNING)
        self.counts: Counter = Counter()

    def emit(self, record: logging.LogRecord) -> None:
        for logger_name, fragment, metric in self.PATTERNS:
            if record.name == logger_name and fragment in str(record.msg):
                self.counts[metric] += 1
                return
        self.counts["other_warnings"] += 1

    def attach(self) -> "LogCounter":
        logging.getLogger("langrec").addHandler(self)
        return self


# ---------------------------------------------------------------------------
# Per-layer metrics

def _names():
    """(name, unit, better) of every per-layer metric, in report order."""
    s, n, r = "s", "count", "1/s"
    out = [
        ("dataio.load_embeddings.s", s, "lower"),
        ("dataio.load_embeddings.rows_per_s", r, "higher"),
        ("dataio.save_embeddings.s", s, "lower"),
        ("dataio.save_embeddings.rows_per_s", r, "higher"),
        ("preproc.fit_lda.s", s, "lower"),
        ("preproc.fit_lda.calls", n, "lower"),
        ("preproc.AffinePreproc.transform.s", s, "lower"),
        ("preproc.AffinePreproc.transform.calls", n, "lower"),
        ("preproc.AffinePreproc.transform.rows", n, "lower"),
        ("plda.em_train.s", s, "lower"),
        ("plda.em_train.calls", n, "lower"),
        ("plda.em_train.iters", n, "lower"),
        ("plda.exact_llr_matrix.s", s, "lower"),
        ("plda.exact_llr_matrix.rows", n, "lower"),
        ("plda.pair_score_matrix.s", s, "lower"),
        ("plda.pair_score_matrix.calls", n, "lower"),
        ("plda.to_pair_params.s", s, "lower"),
        ("plda.to_pair_params.calls", n, "lower"),
        ("backend.FlatBackend.score_matrix.s", s, "lower"),
        ("backend.GenerativeBackend.score_matrix.s", s, "lower"),
        ("backend.init_from_generative.s", s, "lower"),
        ("backend.fit_generative_backend.s", s, "lower"),
        ("hier.HierBackend.score_matrix.s", s, "lower"),
        ("hier.HierBackend.stage_scores.s", s, "lower"),
        ("hier.combine_matrix.s", s, "lower"),
        ("hier.init_hier.s", s, "lower"),
        ("hier.init_hier.calls", n, "lower"),
        ("training.train.dplda.s", s, "lower"),
        ("training.train.hdplda.s", s, "lower"),
        ("training.train.self_s", s, "lower"),
        ("training.flat_loss_grads.s", s, "lower"),
        ("training.flat_loss_grads.calls", n, "lower"),
        ("training.hier_loss_grads.s", s, "lower"),
        ("training.hier_loss_grads.calls", n, "lower"),
        ("training.adam_step.s", s, "lower"),
        ("training.dev_eval.s", s, "lower"),
        ("training.batches_per_s.dplda", r, "higher"),
        ("training.batches_per_s.hdplda", r, "higher"),
        ("clustering.linkage_merges.s", s, "lower"),
        ("clustering.linkage_merges.calls", n, "lower"),
        ("clustering.plda_distance_matrix.s", s, "lower"),
        ("clustering.agglomerate.s", s, "lower"),
        ("synth.tune_cluster_threshold.s", s, "lower"),
        ("synth.tune_cluster_threshold.candidates", n, "lower"),
        ("synth.tune_cluster_threshold.skipped", n, "lower"),
        ("synth.generate.s", s, "lower"),
        ("metrics.bootstrap_ci.s", s, "lower"),
        ("metrics.bootstrap_ci.replicates_per_s", r, "higher"),
        ("metrics.evaluate.s", s, "lower"),
        ("metrics.subset_trials.s", s, "lower"),
        ("modelio.save_model.s", s, "lower"),
        ("modelio.save_model.bytes", "B", "lower"),
        ("modelio.load_model.s", s, "lower"),
        ("modelio.load_model.bytes", "B", "lower"),
    ]
    out += [("cli." + ".".join(step) + ".s", s, "lower") for step in CLI_STEPS]
    out += [(metric, n, "lower") for _, _, metric in LogCounter.PATTERNS]
    out += [(f"self_s.{layer}", s, "lower") for layer in MODULES]
    out += [(f"setup.self_s.{layer}", s, "lower") for layer in MODULES]
    out += [
        ("trace.root_coverage", "ratio", "higher"),
        ("trace.spans_per_task", n, "lower"),
        ("trace_overhead.setup_s", s, "lower"),
        ("trace_overhead.peak_rss_mb", "MB", "lower"),
        ("trace_overhead.task_s", s, "lower"),
        ("trace_overhead.op_p50_ms", "ms", "lower"),
        ("trace_overhead.op_p90_ms", "ms", "lower"),
    ]
    return out


PER_LAYER = _names()


def _self_times(spans) -> list[float]:
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - child[i] for i, span in enumerate(spans)]


def layer_metrics(tracer: Tracer, n_tasks: int, log_counts: Counter, ops_seconds: float) -> dict:
    """Per-layer metrics from the traced spans.

    Spans of operations before `tracer.first_task_op` belong to the one
    traced set-up; the rest to the traced tasks. Times and counts are per
    task, rates are counts over busy time.
    """
    spans = tracer.spans
    self_s = _self_times(spans)
    busy = defaultdict(float)      # name -> seconds, outermost spans only
    calls = Counter()
    count = Counter()
    layer_self = defaultdict(float)
    setup_self = defaultdict(float)
    train_busy = defaultdict(float)
    train_batches = Counter()
    dev_eval = 0.0
    root = 0.0
    tune_candidates = tune_useful = 0
    task_spans = 0
    for sid, span in enumerate(spans):
        name = span[NAME]
        layer = name.split(".", 1)[0]
        if span[OP] < tracer.first_task_op:
            setup_self[layer] += self_s[sid]
            continue
        task_spans += 1
        dur = span[END] - span[START]
        layer_self[layer] += self_s[sid]
        parent = spans[span[PARENT]] if span[PARENT] >= 0 else None
        if parent is None:
            root += dur
        if not span[NESTED]:
            busy[name] += dur
        calls[name] += 1
        count[name] += span[COUNT]
        under_train = parent is not None and parent[NAME] == "training.train"
        if name == "training.train":
            train_busy[span[TAG]] += dur
            busy[f"training.train.{span[TAG]}"] += dur
        elif under_train and name.endswith("loss_grads"):
            train_batches[parent[TAG]] += 1
        elif under_train and name.endswith("score_matrix"):
            dev_eval += dur
        elif parent is not None and parent[NAME] == "synth.tune_cluster_threshold":
            if name == "clustering.agglomerate":
                tune_candidates += 1
            elif name == "hier.init_hier" and span[OK]:
                tune_useful += 1

    per = 1.0 / max(n_tasks, 1)

    def rate(n, seconds):
        return n / seconds if seconds > 0 else 0.0

    out = {}
    for name, unit, _ in PER_LAYER:
        base, _, field = name.rpartition(".")
        if field == "s" and base in busy:
            out[name] = busy[base] * per
        elif field == "calls":
            out[name] = calls[base] * per
        elif field in ("rows", "iters", "bytes"):
            out[name] = count[base] * per
        elif field in ("rows_per_s", "replicates_per_s"):
            out[name] = rate(count[base], busy[base])
        else:
            out[name] = 0.0
    out["training.train.self_s"] = sum(
        self_s[i] for i, sp in enumerate(spans)
        if sp[OP] >= tracer.first_task_op and sp[NAME] == "training.train"
    ) * per
    out["training.dev_eval.s"] = dev_eval * per
    for kind in ("dplda", "hdplda"):
        out[f"training.batches_per_s.{kind}"] = rate(train_batches[kind], train_busy[kind])
    out["synth.tune_cluster_threshold.candidates"] = tune_candidates * per
    out["synth.tune_cluster_threshold.skipped"] = (tune_candidates - tune_useful) * per
    for _, _, metric in LogCounter.PATTERNS:
        out[metric] = log_counts[metric] * per
    for layer in MODULES:
        out[f"self_s.{layer}"] = layer_self[layer] * per
        out[f"setup.self_s.{layer}"] = setup_self[layer]
    out["trace.root_coverage"] = root / ops_seconds if ops_seconds > 0 else 0.0
    out["trace.spans_per_task"] = task_spans * per
    return out
