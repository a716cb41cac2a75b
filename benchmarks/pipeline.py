"""The CLI stages of a workload: their arguments, inputs and output checks."""

import hashlib
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from checks import (CHECKS, LIST_LENGTH, NDCG_THRESHOLDS, PPC_BUDGET,
                    TEST_FRACTION, CheckFailed)
from workloads import FULL, README_BOUNDARIES, TINY, generate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TOL = "1e-12"   # far below any relative ELBO increment, so fits never stop early
# A fixed glibc mmap threshold turns off its dynamic adjustment, which
# otherwise keeps freed arrays in the heap in a pattern that flips between
# runs; peak RSS then follows the live arrays.
MMAP_THRESHOLD = 131072


@dataclass
class Run:
    """One workload at one seed: where its inputs and outputs live."""

    workload: object
    seed: int
    inputs: Path
    out: Path
    generated: dict
    pinned: dict = field(default_factory=dict)

    def __post_init__(self):
        o = self.out
        self.full = (o if self.workload.ingests_triplets else self.inputs) / "full.ordmat"
        self.train, self.test = o / "train.ordmat", o / "test.ordmat"
        self.model, self.model_pf = o / "model.npz", o / "model_pf.npz"
        self.eval_report, self.top_lists = o / "eval.txt", o / "top.txt"
        self.ppc_report = o / "ppc.txt"
        n, users = self.workload.n_users, self.workload.predict_users
        self.predict_users = list(range(0, n, n // users)) if users else []


def prepare(workload_name, size, seed):
    """Generate the inputs, or reuse those cached for (workload, seed),
    and empty the run's output directory.  Returns the Run and the seconds
    spent generating (0 on a cache hit)."""
    wl = (FULL if size == "full" else TINY)[workload_name]
    key = hashlib.sha256(repr(wl).encode()).hexdigest()[:12]
    inputs = WORK / "inputs" / f"{wl.name}-{seed}-{key}"
    out = WORK / "runs" / f"{wl.name}-{size}"
    shutil.rmtree(out, ignore_errors=True)
    for d in (out, WORK / "tmp"):
        d.mkdir(parents=True, exist_ok=True)
    info_path = inputs / "generated.json"
    if info_path.exists():
        return Run(wl, seed, inputs, out, json.loads(info_path.read_text())), 0.0
    start = time.perf_counter()
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir(parents=True)
    generated = generate(wl, seed, inputs)
    info_path.write_text(json.dumps(generated))
    return Run(wl, seed, inputs, out, generated), time.perf_counter() - start


def stage_args(run, stage):
    """Arguments of `ordnmf.cli` for one stage."""
    wl, seed = run.workload, str(run.seed)
    fit = ["--k", str(wl.k), "--max-iter", str(wl.iterations), "--tol", TOL,
           "--seed", seed]
    args = {
        "quantize": ["quantize", "--input", run.inputs / run.generated["input"],
                     "--output", run.full, "--delimiter", ",",
                     "--boundaries", ",".join(map(str, README_BOUNDARIES))],
        "split": ["split", "--input", run.full, "--train-output", run.train,
                  "--test-output", run.test, "--seed", seed,
                  "--test-fraction", str(TEST_FRACTION)],
        "train": ["train", "--input", run.train, "--output", run.model, *fit],
        "train_pf": ["train", "--input", run.train, "--output", run.model_pf,
                     "--pf", "--binarize-at", "1", *fit],
        "evaluate": ["evaluate", "--model", run.model, "--train", run.train,
                     "--test", run.test, "--output", run.eval_report,
                     "--ndcg-thresholds", ",".join(map(str, NDCG_THRESHOLDS)),
                     "--list-length", str(LIST_LENGTH)],
        "predict": ["predict", "--model", run.model, "--train", run.train,
                    "--output", run.top_lists,
                    "--users", ",".join(map(str, run.predict_users)),
                    "--list-length", str(LIST_LENGTH)],
        "ppc": ["ppc", "--model", run.model, "--train", run.train,
                "--output", run.ppc_report, "--seed", seed,
                "--budget", str(PPC_BUDGET)],
    }[stage]
    return [str(a) for a in args]


def check_stage(run, stage, returncode, stdout, stderr):
    """None when the stage exited 0 and its output checks out, else why not."""
    if returncode != 0:
        tail = stderr.strip().splitlines()[-1:] or ["no stderr"]
        return f"exit code {returncode}: {tail[0]}"
    try:
        run.pinned.update(CHECKS[stage](run, stdout))
    except (CheckFailed, OSError, ValueError, KeyError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None
