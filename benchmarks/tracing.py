"""The traced run: per-layer spans around the package's public functions.

Every public function of the layer modules is replaced, at each module
namespace that holds it, by a wrapper that records a span (id, parent id,
name, start, end).  Callers look functions up by module global or by the
name they imported, so patching those namespaces catches every call without
editing the package: `fit` reaches `ordnmf.inference.local_update`, and
`cmd_evaluate` reaches `ordnmf.cli.evaluate_ranking`.  Public methods and
`__init__` of the package's classes are patched on the class.

A span is named after the function's home module (`data.load_triplets`),
except that a function imported by name into two or more other modules is
named after the calling module (`cli.predict_scores` and
`evaluation.predict_scores`), so each caller's share shows.  Spans are kept
in memory and written out when the run ends.
"""

import contextlib
import ctypes
import importlib
import inspect
import io
import json
import statistics
import sys
import time
import tracemalloc
import traceback
from collections import Counter, defaultdict

from checks import PPC_BUDGET
from pipeline import MMAP_THRESHOLD, SRC, check_stage, stage_args

LAYERS = ("cli", "data", "inference", "evaluation", "model", "baselines")
# tracemalloc slows Python-level loops, so it runs only around these stages
ALLOC_STAGES = ("train", "train_pf", "ppc")
_M_MMAP_THRESHOLD = -3   # mallopt parameter number in glibc's malloc.h

_FITS = ("local_update", "compute_elbo", "expected_lambda_entries",
         "update_thresholds")
PER_LAYER = (
    [f"inference.{f}.{m}" for f in _FITS
     for m in ("self_s", "calls", "alloc_peak_mb")]
    + ["inference.iteration_s",
       "inference.GammaVariationalMatrix.set.self_s",
       "inference.init_state.self_s",
       "inference.update_rate_hyperparams.self_s",
       "inference.update_user_factors.self_s",
       "inference.update_item_factors.self_s",
       "evaluation.evaluate_ranking.self_s",
       "evaluation.evaluate_ranking.users_per_s",
       "evaluation.predict_scores.self_s",
       "cli.cmd_predict.self_s", "cli.cmd_predict.users_per_s",
       "cli.predict_scores.calls",
       "data.load_triplets.self_s", "data.load_triplets.lines_per_s",
       "data.quantize_counts.self_s", "data.quantize_counts.calls"]
    + [f"data.OrdinalMatrix.{f}.{m}" for f in ("__init__", "save", "load")
       for m in ("self_s", "calls")]
    + ["data.train_test_split.self_s",
       "baselines.binarize.self_s", "baselines.binarize.calls",
       "evaluation.ppc_histogram.self_s", "evaluation.ppc_histogram.cells_per_s",
       "evaluation.ppc_histogram.alloc_peak_mb",
       "model.ThresholdSequence.sample_class.self_s",
       "model.ThresholdSequence.sample_class.calls",
       "evaluation.log_lik_nonzeros.self_s", "evaluation.log_lik_nonzeros.calls",
       "model.ThresholdSequence.log_pmf.self_s"]
    + [f"cli.cmd_{s}.s" for s in ("quantize", "split", "train", "evaluate",
                                  "predict", "ppc")]
    + ["trace.overhead_s"])


# Spans that only the stages some workloads skip reach (quantize, evaluate,
# predict, the PF fit, ppc).  Their times read 0 on every run of the other
# workloads, so the JSON line carries their counts, rates and allocation
# peaks, and their times are printed and kept in record.json.
PARTIAL_SPANS = {
    "cli.cmd_quantize", "cli.cmd_evaluate", "cli.cmd_predict", "cli.cmd_ppc",
    "data.load_triplets", "data.quantize_counts", "baselines.binarize",
    "evaluation.evaluate_ranking", "evaluation.predict_scores",
    "cli.predict_scores", "evaluation.log_lik_nonzeros",
    "model.ThresholdSequence.log_pmf", "evaluation.ppc_histogram",
    "model.ThresholdSequence.sample_class"}

# the span each derived metric is computed from (None: not from a span)
_SOURCE_SPAN = {"inference.iteration_s": "inference.local_update",
                "trace.overhead_s": None}


def source_span(name):
    return _SOURCE_SPAN.get(name, name.rpartition(".")[0])


def in_json(name):
    """Whether a PER_LAYER metric goes into the JSON result line."""
    return metric_unit(name) != "s" or source_span(name) not in PARTIAL_SPANS


def metric_unit(name):
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_mb"):
        return "MB"
    return "s"


class Tracer:
    def __init__(self):
        self.spans = []          # [id, parent id, name, start, end, alloc peak]
        self.wrapped = set()     # span names that have a wrapper installed
        self.track_alloc = False
        self._stack = []         # open span ids
        self._mem = []           # [base, peak] bytes of each open span
        self._patches = []       # (owner, attribute, original)

    def _open(self, name):
        if self.track_alloc:
            current, peak = tracemalloc.get_traced_memory()
            if self._mem:
                self._mem[-1][1] = max(self._mem[-1][1], peak)
            tracemalloc.reset_peak()
            self._mem.append([current, current])
        sid = len(self.spans)
        self.spans.append([sid, self._stack[-1] if self._stack else None,
                           name, time.perf_counter(), None, None])
        self._stack.append(sid)
        return sid

    def _close(self, sid):
        span = self.spans[sid]
        span[4] = time.perf_counter()
        self._stack.pop()
        if self.track_alloc:
            _, peak = tracemalloc.get_traced_memory()
            base, top = self._mem.pop()
            top = max(top, peak)
            span[5] = top - base
            if self._mem:
                self._mem[-1][1] = max(self._mem[-1][1], top)
            tracemalloc.reset_peak()

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            sid = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid)
        traced.__wrapped__ = fn
        traced.__name__, traced.__qualname__ = fn.__name__, fn.__qualname__
        self.wrapped.add(name)
        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        modules = {m: importlib.import_module(f"ordnmf.{m}") for m in LAYERS}
        package_dir = str(SRC / "ordnmf")

        def ours(fn):
            return (inspect.isfunction(fn)
                    and fn.__code__.co_filename.startswith(package_dir))

        holders = Counter(id(obj) for mod in modules.values()
                          for attr, obj in vars(mod).items()
                          if not attr.startswith("_") and ours(obj))
        for site, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if ours(obj):
                    home = obj.__module__.rpartition(".")[2]
                    prefix = site if holders[id(obj)] > 2 else home
                    self._patch(mod, attr, self._wrap(f"{prefix}.{attr}", obj))
                elif (inspect.isclass(obj) and obj.__module__ == mod.__name__
                      and not issubclass(obj, BaseException)):
                    self._install_class(site, obj, ours)

    def _install_class(self, site, cls, ours):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            binder = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
            fn = raw.__func__ if binder else raw
            if ours(fn):
                wrapped = self._wrap(f"{site}.{cls.__name__}.{attr}", fn)
                self._patch(cls, attr, binder(wrapped) if binder else wrapped)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def span_records(self):
        return [dict(zip(("id", "parent", "name", "start", "end",
                          "alloc_peak_bytes"), s)) for s in self.spans]


def _covered(spans):
    """Seconds of each span covered by its child spans."""
    covered = defaultdict(float)
    for _, parent, _, start, end, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    return covered


def _aggregate(spans):
    """Per span name: total and self seconds, calls and largest alloc peak.
    Self time is a span's duration minus the time its child spans cover."""
    covered = _covered(spans)
    agg = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0,
                               "alloc_peak_mb": 0.0})
    for sid, _, name, start, end, alloc in spans:
        a = agg[name]
        a["s"] += end - start
        a["self_s"] += end - start - covered[sid]
        a["calls"] += 1
        if alloc is not None:
            a["alloc_peak_mb"] = max(a["alloc_peak_mb"], alloc / 2**20)
    return agg


def _iteration_times(spans):
    """Seconds per CAVI iteration: from one local_update start to the next,
    or to the end of the enclosing fit."""
    starts = defaultdict(list)
    for _, parent, name, start, _, _ in spans:
        if name == "inference.local_update" and parent is not None:
            starts[parent].append(start)
    times = []
    for parent, s in starts.items():
        bounds = s + [spans[parent][4]]
        times += [b - a for a, b in zip(bounds, bounds[1:])]
    return times


def _descendant_self_s(spans, root, prefix):
    """Self seconds of spans named prefix* that run inside a span named
    root, and the total duration of the root spans."""
    inside = {}
    total_root, total = 0.0, 0.0
    covered = _covered(spans)
    for sid, parent, name, start, end, _ in spans:
        inside[sid] = name == root or (parent is not None and inside[parent])
        if name == root:
            total_root += end - start
        if inside[sid] and name.startswith(prefix):
            total += end - start - covered[sid]
    return total, total_root


def layer_shares(spans):
    """The splits the workloads were chosen for, as shares of a stage."""
    shares = {}
    for label, root, prefix in (
            ("inference_self_of_cmd_train", "cli.cmd_train", "inference."),
            ("evaluate_ranking_self_of_cmd_evaluate", "cli.cmd_evaluate",
             "evaluation.evaluate_ranking"),
            ("load_triplets_self_of_cmd_quantize", "cli.cmd_quantize",
             "data.load_triplets")):
        part, whole = _descendant_self_s(spans, root, prefix)
        shares[label] = part / whole if whole else 0.0
    return shares


def layer_metrics(tracer, run, overhead_s):
    """Every PER_LAYER metric (0 where the workload never reaches the span)
    and the span names that no longer exist in the package."""
    agg = _aggregate(tracer.spans)
    iters = _iteration_times(tracer.spans)

    def rate(span, count):
        total = agg[span]["s"] if span in agg else 0.0
        return count * agg[span]["calls"] / total if total else 0.0

    special = {
        "inference.iteration_s": statistics.median(iters) if iters else 0.0,
        "evaluation.evaluate_ranking.users_per_s": rate(
            "evaluation.evaluate_ranking", run.generated["n_users"]),
        "data.load_triplets.lines_per_s": rate(
            "data.load_triplets", run.generated["nnz"]),
        "cli.cmd_predict.users_per_s": rate(
            "cli.cmd_predict", len(run.predict_users)),
        "evaluation.ppc_histogram.cells_per_s": rate(
            "evaluation.ppc_histogram", PPC_BUDGET),
        "trace.overhead_s": overhead_s,
    }
    metrics, absent = {}, set()
    for name in PER_LAYER:
        span, kind = source_span(name), name.rpartition(".")[2]
        if name in special:
            value = special[name]
        else:
            value = agg[span][kind] if span in agg else 0
        if span and span not in tracer.wrapped:
            absent.add(span)
        metrics[name] = (value, metric_unit(name))
    return metrics, sorted(absent)


def _in_process_pass(run, cli, tracer):
    """Every stage once through `ordnmf.cli.main` in this process; returns
    the stage wall times and the failures (a failure ends the pass)."""
    walls, failures = {}, []
    for stage in run.workload.stages:
        out, err = io.StringIO(), io.StringIO()
        alloc = tracer is not None and stage in ALLOC_STAGES
        if alloc:
            tracemalloc.start()
            tracer.track_alloc = True
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(stage_args(run, stage))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crashing stage is a failed stage, not a crash here
            code = 1
            err.write(traceback.format_exc())
        finally:
            walls[stage] = time.perf_counter() - start
            if alloc:
                tracer.track_alloc = False
                tracemalloc.stop()
        problem = check_stage(run, stage, code, out.getvalue(), err.getvalue())
        if problem:
            failures.append(f"{stage}: {problem}")
            break
    return walls, failures


def _fix_mmap_threshold():
    """What MALLOC_MMAP_THRESHOLD_ does for the stage children, done for
    this process: without it the second pass reuses heap memory the first
    pass grew, and runs faster for that reason alone."""
    try:
        ctypes.CDLL(None).mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    except (OSError, AttributeError):   # not glibc
        pass


def traced_run(run):
    """Plain pass, then traced pass, over the workload's stages in this
    process.  Returns (metrics, stages attempted, failures, record)."""
    _fix_mmap_threshold()
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("ordnmf.cli")
    plain, failures = _in_process_pass(run, cli, None)
    if failures:
        return {}, len(plain), failures, None
    tracer = Tracer()
    tracer.install()
    try:
        traced, failures = _in_process_pass(run, cli, tracer)
    finally:
        tracer.uninstall()
    (run.out / "trace.json").write_text(json.dumps(tracer.span_records()))
    if failures:
        return {}, len(traced), failures, None
    overhead = sum(traced.values()) - sum(plain.values())
    metrics, absent = layer_metrics(tracer, run, overhead)
    record = {"untraced_stage_s": plain, "traced_stage_s": traced,
              "layer_shares": layer_shares(tracer.spans),
              "absent_spans": absent, "spans": len(tracer.spans)}
    return metrics, len(traced), failures, record
