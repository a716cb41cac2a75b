#!/usr/bin/env python3
"""Benchmark of the ordnmf command-line pipeline.

    python3 benchmarks/run.py --workload sweep --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout (`src/ordnmf` must exist).  The
workload's inputs are generated from the seed, then each CLI stage runs as
its own child process (`python -m ordnmf.cli ...` with PYTHONPATH=src),
timed by wall clock, its CPU time and peak RSS read from `os.wait4`, and
its output checked.  With `--trace 1` the stages instead run in this process, once
plainly and once with every public function of the package wrapped in a
span (see tracing.py), and the per-layer metrics are reported.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Generated inputs, stage outputs, logs, the run record and the
trace live under `.bench_work/` in the checkout.  See README.md here for
the workloads and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: the stages are dominated by single-threaded numpy and
# scipy.sparse work, and on a small shared box a second BLAS thread mostly
# adds run-to-run noise.  OpenBLAS reads the cap when numpy loads, so it is
# set here, before the generator and the checks import numpy, and in every
# child's environment before spawn.
THREAD_CAP = 1
os.environ.update({var: str(THREAD_CAP) for var in BLAS_VARS})

from checks import CheckFailed, check_pinned  # noqa: E402
from pipeline import (MMAP_THRESHOLD, SRC, WORK, check_stage,  # noqa: E402
                      prepare, stage_args)
from record import machine_record, workload_record  # noqa: E402

RUN_LIMIT_S = 170   # children still running this long after the start are killed

# End-to-end metrics group the stages so that every workload reports every
# metric: "prepare" builds the train/test matrices, "train" is the ordinal
# fit, "apply" reads a fitted model.  The PF fit counts in pipeline_s only.
GROUPS = {"prepare": ("quantize", "split"), "train": ("train",),
          "apply": ("evaluate", "predict", "ppc")}


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int
    stdout: str
    stderr: str


@dataclass
class Launcher:
    """Environment and deadline shared by every child of a run."""

    env: dict
    deadline: float


def launcher():
    env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(WORK / "tmp"),
               MALLOC_MMAP_THRESHOLD_=str(MMAP_THRESHOLD))
    env.update({var: str(THREAD_CAP) for var in BLAS_VARS})
    return Launcher(env, time.perf_counter() + RUN_LIMIT_S)


def run_child(args, log_stem, launch):
    """Run `python <args>` to completion with its output captured in full
    to files; returns its wall time, CPU time and peak RSS.  A child still
    running at the deadline is killed and reads as failed."""
    out_path, err_path = log_stem.with_suffix(".out"), log_stem.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=log_stem.parent,
                                env=launch.env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        timer = threading.Timer(max(launch.deadline - start, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                 proc.returncode,
                 out_path.read_text(errors="replace"),
                 err_path.read_text(errors="replace"))


def setup_start(run, launch, tag):
    """One child interpreter start plus `import ordnmf.cli`."""
    child = run_child(["-c", "import ordnmf.cli"], run.out / tag, launch)
    if child.returncode != 0:
        tail = child.stderr.strip().splitlines()[-1:] or ["no stderr"]
        return child, f"setup: exit code {child.returncode}: {tail[0]}"
    return child, None


def pipeline_pass(run, launch, tag, setup):
    """One set-up start, then every stage of the workload once as a child
    process.  A failure ends the pass: later stages would read its output."""
    children = {}
    child, problem = setup_start(run, launch, f"{tag}.setup")
    setup.append(child.wall_s)
    if problem:
        return children, [problem]
    for stage in run.workload.stages:
        child = run_child(["-m", "ordnmf.cli", *stage_args(run, stage)],
                          run.out / f"{tag}.{stage}", launch)
        children[stage] = child
        problem = check_stage(run, stage, child.returncode, child.stdout,
                              child.stderr)
        if problem:
            return children, [f"{stage}: {problem}"]
    return children, []


def end_to_end(run, seconds):
    """Pipeline passes, a new one started while less than `seconds` have
    passed (at least one).  Stage figures are medians over the passes, so a
    burst of load on the machine moves one sample, not the result."""
    launch = launcher()
    _, problem = setup_start(run, launch, "setup-warm")   # writes the bytecode caches
    if problem:
        return None, 1, [problem]
    start = time.perf_counter()
    passes, setup, attempted, failures = [], [], 0, []
    while not passes or time.perf_counter() - start < seconds:
        children, failures = pipeline_pass(run, launch, f"pass{len(passes)}",
                                           setup)
        attempted += len(children)
        if failures:
            return None, max(attempted, 1), failures
        passes.append(children)
    samples = {s: {k: [getattr(p[s], k) for p in passes]
                   for k in ("wall_s", "cpu_s", "rss_mb")}
               for s in run.workload.stages}
    record = {"setup_s": statistics.median(setup), "setup_samples": setup,
              "passes": len(passes),
              "pipeline_s": statistics.median(
                  sum(c.wall_s for c in p.values()) for p in passes),
              "pipeline_cpu_s": statistics.median(
                  sum(c.cpu_s for c in p.values()) for p in passes),
              "stage_samples": samples,
              "stages": {s: {k: statistics.median(v) for k, v in kinds.items()}
                         for s, kinds in samples.items()}}
    return record, attempted, failures


def e2e_metrics(record):
    stages = record["stages"]
    m = {"setup_s": (record["setup_s"], "s"),
         "pipeline_cpu_s": (record["pipeline_cpu_s"], "s"),
         "peak_rss_mb": (max(s["rss_mb"] for s in stages.values()), "MB")}
    for group, members in GROUPS.items():
        ran = [stages[s] for s in members if s in stages]
        m[f"{group}_cpu_s"] = (sum(s["cpu_s"] for s in ran), "s")
        m[f"{group}_rss_mb"] = (max(s["rss_mb"] for s in ran), "MB")
    return m


def stage_table(record):
    """Wall, CPU and peak RSS of each stage, and the pipeline's wall time."""
    table = {"pipeline_s": (record["pipeline_s"], "s")}
    for unit, key, suffix in (("s", "wall_s", "_s"), ("s", "cpu_s", "_cpu_s"),
                              ("MB", "rss_mb", "_rss_mb")):
        table.update({f"{s}{suffix}": (v[key], unit)
                      for s, v in record["stages"].items()})
    return table


def print_table(rows):
    for name, (value, unit) in rows.items():
        print(f"{name:<48} {value:>14.6g} {unit}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "rank", "ingest-pf"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: scaled-down inputs for the smoke test")
    args = parser.parse_args(argv)
    if not (SRC / "ordnmf" / "cli.py").is_file():
        print(f"error: no ordnmf sources under {SRC}", file=sys.stderr)
        return 2

    run, generate_s = prepare(args.workload, args.size, args.seed)
    if args.trace:
        from tracing import in_json, traced_run
        traced, attempted, failures, extra = traced_run(run)
        metrics = {k: v for k, v in traced.items() if in_json(k)}
        table = {k: v for k, v in traced.items() if not in_json(k)}
        table.update({f"share.{k}": (v, "ratio")
                      for k, v in (extra or {}).get("layer_shares", {}).items()})
    else:
        extra, attempted, failures = end_to_end(run, args.seconds)
        metrics = e2e_metrics(extra) if extra else {}
        table = stage_table(extra) if extra else {}
    if not failures and args.size == "full" and args.seed == 0:
        try:
            check_pinned(run.workload.name, run.pinned)
        except CheckFailed as exc:
            failures.append(f"pinned: {exc}")
    table["error_rate"] = (len(failures) / attempted, "ratio")
    table["generate_s"] = (generate_s, "s")
    record = {"machine": machine_record(SRC.parent, THREAD_CAP),
              "workload": workload_record(run), "seed": args.seed,
              "trace": args.trace, "generate_s": generate_s,
              "failures": failures, "checked_values": run.pinned,
              **(extra or {})}
    (run.out / "record.json").write_text(json.dumps(record, indent=2))
    for problem in failures:
        print(f"FAILED {problem}", file=sys.stderr)
    print_table(metrics)
    print_table(table)
    print(json.dumps({
        "correct": not failures, "attempted": attempted,
        "failed": len(failures),
        "metrics": {} if failures else
        {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
