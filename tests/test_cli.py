"""End-to-end pipeline through the command-line interface."""

import ast
import importlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import ordnmf
from ordnmf.baselines import binarize
from ordnmf.cli import build_parser, main
from ordnmf.data import OrdinalMatrix
from ordnmf.inference import (GammaVariationalMatrix, VariationalState,
                              load_state, save_state)
from ordnmf.model import ThresholdSequence
from ordnmf.synthetic import default_thresholds, generate_dataset

from oracles import damaged_ordmat, random_state_like

REPO = Path(__file__).resolve().parents[1]
PROTOCOL_SCRIPT = REPO / "scripts" / "reproduce_protocol.sh"
# runs the stages of a JSON list of argv lists, then train's argv, through
# ordnmf.cli.main; the last line it prints is a JSON record of the exit
# codes and of the scipy modules loaded before and after train
SCIPY_PROBE = """
import json, sys
from ordnmf.cli import main
def scipy_modules():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
stages, train = json.load(sys.stdin)
codes = [main(argv) for argv in stages]
before = scipy_modules()
codes.append(main(train))
print(json.dumps({"codes": codes, "before": before, "after": scipy_modules()}))
"""


@pytest.fixture()
def triplet_file(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "counts.csv"
    seen = set()
    lines = []
    for _ in range(900):
        u, i = int(rng.integers(0, 30)), int(rng.integers(0, 25))
        if (u, i) in seen:
            continue
        seen.add((u, i))
        lines.append(f"u{u},i{i},{int(rng.integers(1, 300))}")
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture()
def ranking_files(tmp_path):
    """Model, train and test files for 2 users x 5 items, V=3.

    User 0 has 4 of the 5 items in train, user 1 has one.
    """
    train = OrdinalMatrix(2, 5, 3, [0, 0, 0, 0, 1], [0, 1, 2, 3, 0],
                          [1, 2, 3, 1, 2])
    test = OrdinalMatrix(2, 5, 3, [0, 1], [4, 2], [3, 1])
    paths = {"model": tmp_path / "model.npz", "train": tmp_path / "tr.ordmat",
             "test": tmp_path / "te.ordmat"}
    train.save(paths["train"])
    test.save(paths["test"])
    save_state(paths["model"],
               random_state_like(train, 2, np.random.default_rng(0)))
    return paths


def run(*argv):
    return main([str(a) for a in argv])


# option values for the sweep: extreme, negative, non-finite and malformed
INTS = [-10**20, -1, 0, 1, 2, 2**63, 10**20]
FLOATS = [math.nan, math.inf, -math.inf, -1.0, 0.0, 1e-320, 1e-3, 0.3, 1e308]
INT_LISTS = ["", ",", "0", "-1", "3,1", "1,1", "a", "99999999999999999999"]
# counts of restarts and sampled cells, kept small so that each run is short
SMALL = [-1, 0, 1, 2]


def some_of(**pools):
    """Strategy for a dict holding any subset of the options, each drawn
    from its pool of values."""
    return st.fixed_dictionaries({}, optional={
        name: st.sampled_from(pool) for name, pool in pools.items()})


def train_options():
    # extreme --max-iter only stops at once under tol = inf, and extreme
    # --tol only within 3 iterations; every --k in INTS is at most 2 or
    # beyond any array, so none allocates gigabytes
    stopping = (st.fixed_dictionaries({"max_iter": st.sampled_from(INTS),
                                       "tol": st.just(math.inf)})
                | st.fixed_dictionaries({"tol": st.sampled_from(FLOATS),
                                         "max_iter": st.just(3)}))
    rest = some_of(k=INTS, alpha_w=FLOATS, alpha_h=FLOATS, seed=INTS,
                   restarts=SMALL, bepof=[True], pf=[True], binarize_at=INTS)
    return st.tuples(stopping, rest).map(lambda pair: {**pair[0], **pair[1]})


SWEEP_OPTIONS = {
    "quantize": some_of(boundaries=INT_LISTS,
                        delimiter=[",", "", "\t", "ab"], header=[True]),
    "split": some_of(test_fraction=FLOATS, seed=INTS),
    "train": train_options(),
    "evaluate": some_of(ndcg_thresholds=INT_LISTS, list_length=INTS),
    "ppc": some_of(seed=INTS, budget=SMALL),
    # True is a bare flag, or for predict --train the train file
    "predict": some_of(train=[True], users=INT_LISTS, list_length=INTS),
}


class TestPipeline:
    def test_full_pipeline(self, tmp_path, triplet_file):
        mat = tmp_path / "data.ordmat"
        assert run("quantize", "--input", triplet_file, "--output", mat,
                   "--boundaries", "1,2,5,10,20,50,100,200,500",
                   "--delimiter", ",") == 0
        loaded = OrdinalMatrix.load(mat)
        assert loaded.n_classes == 10
        assert (tmp_path / "data.ordmat.users").exists()
        assert (tmp_path / "data.ordmat.items").exists()

        train, test = tmp_path / "train.ordmat", tmp_path / "test.ordmat"
        assert run("split", "--input", mat, "--train-output", train,
                   "--test-output", test, "--test-fraction", 0.2,
                   "--seed", 1) == 0
        tr, te = OrdinalMatrix.load(train), OrdinalMatrix.load(test)
        assert tr.nnz + te.nnz == loaded.nnz

        model = tmp_path / "model.npz"
        assert run("train", "--input", train, "--output", model,
                   "--k", 4, "--max-iter", 30, "--restarts", 2,
                   "--seed", 0) == 0
        assert (tmp_path / "model.npz.trace.0.txt").exists()
        assert (tmp_path / "model.npz.trace.1.txt").exists()

        report = tmp_path / "eval.txt"
        assert run("evaluate", "--model", model, "--train", train,
                   "--test", test, "--output", report,
                   "--ndcg-thresholds", "1,4,6", "--list-length", 10) == 0
        text = report.read_text()
        assert text.count("\n") >= 5
        assert "log_lik_nonzeros" in text
        assert "schema-version" in text

        ppc = tmp_path / "ppc.txt"
        assert run("ppc", "--model", model, "--train", train,
                   "--output", ppc, "--budget", 20000, "--seed", 3) == 0
        lines = [l for l in ppc.read_text().splitlines()
                 if l and not l.startswith("#") and not l.startswith("class")]
        assert len(lines) == loaded.n_classes + 1  # one row per class 0..V

        preds = tmp_path / "preds.txt"
        assert run("predict", "--model", model, "--train", train,
                   "--output", preds, "--users", "0,1",
                   "--list-length", 5) == 0
        body = [l for l in preds.read_text().splitlines()
                if l and not l.startswith(("#", "user"))]
        assert len(body) == 10
        # scores descending within a user
        scores0 = [float(l.split("\t")[3]) for l in body[:5]]
        assert scores0 == sorted(scores0, reverse=True)

    def test_train_determinism(self, tmp_path, triplet_file):
        mat = tmp_path / "m.ordmat"
        run("quantize", "--input", triplet_file, "--output", mat,
            "--boundaries", "1,5,50", "--delimiter", ",")
        m1, m2 = tmp_path / "a.npz", tmp_path / "b.npz"
        for out in (m1, m2):
            assert run("train", "--input", mat, "--output", out, "--k", 3,
                       "--max-iter", 15, "--seed", 9) == 0
        s1, _ = load_state(m1)
        s2, _ = load_state(m2)
        np.testing.assert_array_equal(s1.W.mean @ s1.H.mean.T,
                                      s2.W.mean @ s2.H.mean.T)

    def test_binary_model_reports_na_loglik(self, tmp_path, triplet_file):
        mat = tmp_path / "m.ordmat"
        run("quantize", "--input", triplet_file, "--output", mat,
            "--boundaries", "1,5,50", "--delimiter", ",")
        train, test = tmp_path / "tr.ordmat", tmp_path / "te.ordmat"
        run("split", "--input", mat, "--train-output", train,
            "--test-output", test, "--test-fraction", 0.2, "--seed", 0)
        model = tmp_path / "pf.npz"
        assert run("train", "--input", train, "--output", model, "--k", 3,
                   "--max-iter", 15, "--pf", "--binarize-at", 1) == 0
        report = tmp_path / "eval.txt"
        assert run("evaluate", "--model", model, "--train", train,
                   "--test", test, "--output", report,
                   "--ndcg-thresholds", "1", "--list-length", 10) == 0
        assert "log_lik_nonzeros\tN/A" in report.read_text()

    def test_binarized_model_ppc_binarizes_train(self, tmp_path, capsys,
                                                 triplet_file):
        mat = tmp_path / "m.ordmat"
        run("quantize", "--input", triplet_file, "--output", mat,
            "--boundaries", "1,5,50", "--delimiter", ",")
        model = tmp_path / "pf.npz"
        assert run("train", "--input", mat, "--output", model, "--k", 3,
                   "--max-iter", 5, "--pf", "--binarize-at", 3) == 0
        binary = binarize(OrdinalMatrix.load(mat), 3)
        share = binary.nnz / (binary.n_users * binary.n_items)
        binary_path = tmp_path / "b.ordmat"
        binary.save(binary_path)
        for train in (mat, binary_path):  # binarized here or already binary
            out = tmp_path / "ppc.txt"
            assert run("ppc", "--model", model, "--train", train,
                       "--output", out, "--budget", 1000) == 0
            observed = [line.split("\t")[1] for line in
                        out.read_text().splitlines()
                        if not line.startswith(("#", "class"))]
            assert observed == [f"{1 - share:.8f}", f"{share:.8f}"]

        low = tmp_path / "low.ordmat"
        OrdinalMatrix(binary.n_users, binary.n_items, 2,
                      [0], [0], [2]).save(low)
        assert run("ppc", "--model", model, "--train", low,
                   "--output", tmp_path / "low.txt", "--budget", 1000) == 1
        assert capsys.readouterr().err == (
            f"error: {low}: binarization threshold 3 outside 1..2\n")

    def test_predict_lists_no_train_items(self, tmp_path, ranking_files):
        out = tmp_path / "top.txt"
        assert run("predict", "--model", ranking_files["model"],
                   "--train", ranking_files["train"], "--output", out,
                   "--list-length", 5) == 0
        rows = [line.split("\t") for line in out.read_text().splitlines()
                if not line.startswith(("#", "user"))]
        assert [r[:3] for r in rows if r[0] == "0"] == [["0", "1", "4"]]
        assert sorted(r[2] for r in rows if r[0] == "1") == ["1", "2", "3", "4"]
        assert "-inf" not in out.read_text()

    def test_only_train_imports_scipy(self, tmp_path, triplet_file,
                                      ranking_files):
        """One fresh interpreter runs every other stage without loading
        any SciPy module, then train, which loads SciPy's two extension
        modules of the fit and none of SciPy's packages."""
        mat = tmp_path / "data.ordmat"
        model, train = ranking_files["model"], ranking_files["train"]
        stages = [
            ["quantize", "--input", triplet_file, "--output", mat,
             "--boundaries", "1,5", "--delimiter", ","],
            ["split", "--input", mat, "--train-output", tmp_path / "a.ordmat",
             "--test-output", tmp_path / "b.ordmat"],
            ["evaluate", "--model", model, "--train", train,
             "--test", ranking_files["test"], "--output", tmp_path / "e.txt"],
            ["predict", "--model", model, "--train", train,
             "--output", tmp_path / "top.txt"],
            ["ppc", "--model", model, "--train", train,
             "--output", tmp_path / "ppc.txt", "--budget", 100]]
        fit = ["train", "--input", train, "--output", tmp_path / "m.npz",
               "--k", 2, "--max-iter", 2]
        src = str(Path(ordnmf.__file__).resolve().parents[1])
        child = subprocess.run(
            [sys.executable, "-c", SCIPY_PROBE], capture_output=True,
            text=True, check=True, env={**os.environ, "PYTHONPATH": src},
            input=json.dumps([[[str(a) for a in argv] for argv in stages],
                              [str(a) for a in fit]]))
        record = json.loads(child.stdout.splitlines()[-1])
        assert record["codes"] == [0] * 6, child.stderr
        assert record["before"] == []
        assert record["after"] == ["scipy.sparse._sparsetools",
                                   "scipy.special._special_ufuncs"]

    def test_protocol_script_commands_parse(self):
        # join the continuation lines, then stand 1 in for each variable
        text = PROTOCOL_SCRIPT.read_text().replace("\\\n", " ")
        commands = [shlex.split(re.sub(r"\$\w+", "1", line))[1:]
                    for line in text.splitlines()
                    if line.lstrip().startswith("ordnmf ")]
        assert [argv[0] for argv in commands] == [
            "quantize", "split", "train", "train", "train", "evaluate",
            "evaluate", "ppc"]
        parser = build_parser()
        for argv in commands:
            parser.parse_args(argv)

    def test_protocol_script_runs_end_to_end(self, tmp_path):
        # 60 x 40 Poisson counts, one restart per model and K = 3; the
        # ordnmf on PATH runs this interpreter on the package under test
        rng = np.random.default_rng(0)
        counts = rng.poisson(rng.gamma(0.5, 2.0, (60, 1))
                             * rng.gamma(0.5, 0.5, (1, 40)))
        triplets = tmp_path / "counts.csv"
        triplets.write_text("".join(f"u{u},i{i},{counts[u, i]}\n"
                                    for u, i in zip(*np.nonzero(counts))))
        shim = tmp_path / "bin" / "ordnmf"
        shim.parent.mkdir()
        shim.write_text(f"#!/bin/sh\nexec {shlex.quote(sys.executable)} "
                        f'-m ordnmf.cli "$@"\n')
        shim.chmod(0o755)
        env = dict(os.environ, RESTARTS="1",
                   PATH=os.pathsep.join([str(shim.parent), os.environ["PATH"]]),
                   PYTHONPATH=os.pathsep.join(filter(None, [
                       str(REPO / "src"), os.environ.get("PYTHONPATH")])))
        out = tmp_path / "out"
        child = subprocess.run(
            ["bash", str(PROTOCOL_SCRIPT), str(triplets), str(out), "3"],
            env=env, capture_output=True, text=True, timeout=300)
        assert child.returncode == 0, child.stderr
        for model in ("ordnmf", "bepof", "pf"):
            assert "ndcg" in (out / f"{model}.eval.txt").read_text()
        assert "simulated_freq" in (out / "ordnmf.ppc.txt").read_text()

    def test_benchmark_trace_layers_import(self):
        # the traced benchmark run wraps the functions of ordnmf.<m> for
        # each m in tracing.LAYERS, and stops if one of them is gone
        tree = ast.parse((REPO / "benchmarks" / "tracing.py").read_text())
        layers = [ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "LAYERS"
                          for t in node.targets)]
        assert len(layers) == 1 and layers[0]
        for name in layers[0]:
            importlib.import_module(f"ordnmf.{name}")


class TestErrorHandling:
    def test_missing_input_nonzero_exit(self, tmp_path, capsys):
        out = tmp_path / "x.ordmat"
        assert run("quantize", "--input", tmp_path / "nope.csv",
                   "--output", out, "--delimiter", ",") != 0
        assert not out.exists()
        assert "error:" in capsys.readouterr().err

    def test_empty_test_matrix_rejected(self, tmp_path, triplet_file):
        mat = tmp_path / "m.ordmat"
        run("quantize", "--input", triplet_file, "--output", mat,
            "--boundaries", "1,5", "--delimiter", ",")
        loaded = OrdinalMatrix.load(mat)
        empty = tmp_path / "empty.ordmat"
        OrdinalMatrix(loaded.n_users, loaded.n_items, loaded.n_classes,
                      [], [], []).save(empty)
        model = tmp_path / "model.npz"
        run("train", "--input", mat, "--output", model, "--k", 2,
            "--max-iter", 5)
        assert run("evaluate", "--model", model, "--train", mat,
                   "--test", empty, "--output", tmp_path / "r.txt",
                   "--ndcg-thresholds", "1", "--list-length", 5) != 0

    def test_dimension_mismatch_rejected(self, tmp_path, triplet_file):
        mat = tmp_path / "m.ordmat"
        run("quantize", "--input", triplet_file, "--output", mat,
            "--boundaries", "1,5", "--delimiter", ",")
        model = tmp_path / "model.npz"
        run("train", "--input", mat, "--output", model, "--k", 2,
            "--max-iter", 5)
        other = tmp_path / "other.ordmat"
        OrdinalMatrix(5, 4, 3, [0], [0], [1]).save(other)
        assert run("evaluate", "--model", model, "--train", other,
                   "--test", other, "--output", tmp_path / "r.txt",
                   "--ndcg-thresholds", "1", "--list-length", 5) != 0

    @pytest.mark.parametrize("argv, message", [
        (["evaluate", "--list-length", 0], "list length must be >= 1, got 0"),
        (["evaluate", "--ndcg-thresholds", 9],
         "relevance threshold 9 outside 1..3"),
        (["evaluate", "--ndcg-thresholds", 0],
         "relevance threshold 0 outside 1..3"),
        (["predict", "--list-length", -2], "list length must be >= 1, got -2"),
    ], ids=["evaluate-list-length-0", "evaluate-threshold-9",
            "evaluate-threshold-0", "predict-list-length-negative"])
    def test_bad_ranking_arguments_rejected(self, tmp_path, capsys,
                                            ranking_files, argv, message):
        files = ["--model", ranking_files["model"],
                 "--train", ranking_files["train"]]
        if argv[0] == "evaluate":
            files += ["--test", ranking_files["test"]]
        out = tmp_path / "out.txt"
        assert run(*argv, *files, "--output", out) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["train", "--restarts", 0], "--restarts must be >= 1, got 0"),
        (["ppc", "--budget", 0], "--budget must be >= 1, got 0"),
        (["predict", "--users", "a"],
         "--users: expected comma-separated integers, got 'a'"),
        (["predict", "--users", "0,7"], "--users: user index 7 outside 0..1"),
        (["predict", "--users", "-1"], "--users: user index -1 outside 0..1"),
        (["evaluate", "--ndcg-thresholds", "a"],
         "--ndcg-thresholds: expected comma-separated integers, got 'a'"),
        # an empty list is an error, not the flag's absence
        (["evaluate", "--ndcg-thresholds", ""],
         "--ndcg-thresholds: expected comma-separated integers, got ''"),
        (["predict", "--users", ""],
         "--users: expected comma-separated integers, got ''"),
        (["quantize", "--boundaries", ""],
         "--boundaries: expected comma-separated integers, got ''"),
        (["quantize", "--boundaries", ","],
         "--boundaries: expected comma-separated integers, got ','"),
        (["quantize", "--delimiter", ""],
         "--delimiter: expected one or more characters, got ''"),
        (["quantize", "--boundaries", "99999999999999999999"],
         "boundaries must lie in the int64 range"),
        (["quantize", "--boundaries", "-99999999999999999999"],
         "boundaries must lie in the int64 range"),
    ], ids=["train-restarts-0", "ppc-budget-0", "predict-users-a",
            "predict-users-7", "predict-users-negative",
            "evaluate-ndcg-thresholds-a", "evaluate-ndcg-thresholds-empty",
            "predict-users-empty", "quantize-boundaries-empty",
            "quantize-boundaries-comma", "quantize-delimiter-empty",
            "quantize-boundaries-above-int64",
            "quantize-boundaries-below-int64"])
    def test_bad_counts_and_lists_rejected(self, tmp_path, capsys,
                                           ranking_files, triplet_file, argv,
                                           message):
        files = {"quantize": ["--input", triplet_file, "--delimiter", ","],
                 "train": ["--input", ranking_files["train"], "--k", 2],
                 "ppc": ["--model", ranking_files["model"],
                         "--train", ranking_files["train"]],
                 "predict": ["--model", ranking_files["model"]],
                 "evaluate": ["--model", ranking_files["model"],
                              "--train", ranking_files["train"],
                              "--test", ranking_files["test"]]}[argv[0]]
        out = tmp_path / "out.txt"
        # argv's flag comes last, so it is the one parsed
        assert run(argv[0], *files, *argv[1:], "--output", out) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("kind, message", [
        ("short-header", "truncated header"),
        ("duplicate", "duplicate entry for (user=0, item=1)")])
    def test_damaged_matrix_file_rejected(self, tmp_path, capsys, kind,
                                          message):
        bad = tmp_path / "bad.ordmat"
        bad.write_bytes(damaged_ordmat(kind))
        train = tmp_path / "train.ordmat"
        assert run("split", "--input", bad, "--train-output", train,
                   "--test-output", tmp_path / "test.ordmat") == 1
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"
        assert not train.exists()

    def test_non_model_file_rejected(self, tmp_path, capsys, triplet_file):
        out = tmp_path / "top.txt"
        assert run("predict", "--model", triplet_file, "--output", out) == 1
        assert capsys.readouterr().err == (
            f"error: {triplet_file}: not a valid ordnmf model file\n")
        assert not out.exists()

    # entry_dot's blocks hold GATHER_CELLS // K entries, score blocks
    # BLOCK_CELLS // I users, and ppc draws items from 0..I-1
    @pytest.mark.parametrize("shape", [(2, 5, 0), (2, 0, 2), (0, 5, 2)],
                             ids=["k0", "no-items", "no-users"])
    def test_empty_model_rejected(self, tmp_path, capsys, ranking_files,
                                  shape):
        n_users, n_items, k = shape
        model = tmp_path / "empty.npz"
        save_state(model, random_state_like(
            OrdinalMatrix(n_users, n_items, 3, [], [], []), k,
            np.random.default_rng(0)))
        out = tmp_path / "out.txt"
        for command in (["evaluate", "--train", ranking_files["train"],
                         "--test", ranking_files["test"]],
                        ["ppc", "--train", ranking_files["train"],
                         "--budget", 100],
                        ["predict"]):
            assert run(*command, "--model", model, "--output", out) == 1
            assert capsys.readouterr().err == (
                f"error: {model}: model has {n_users} users, {n_items} items "
                f"and K = {k}; each must be at least 1\n")
            assert not out.exists()

    def test_predict_train_dimension_mismatch(self, tmp_path, capsys,
                                               ranking_files):
        other = tmp_path / "other.ordmat"
        OrdinalMatrix(2, 4, 3, [0], [0], [1]).save(other)
        assert run("predict", "--model", ranking_files["model"],
                   "--train", other, "--output", tmp_path / "top.txt") == 1
        assert capsys.readouterr().err == (
            f"error: {other}: matrix shape differs from the model\n")

    @pytest.mark.parametrize("shape", [(3, 5, 3), (2, 6, 3), (2, 5, 4)],
                             ids=["users", "items", "classes"])
    def test_ppc_train_mismatch(self, tmp_path, capsys, ranking_files, shape):
        other = tmp_path / "other.ordmat"
        OrdinalMatrix(*shape, [0], [0], [1]).save(other)
        out = tmp_path / "ppc.txt"
        assert run("ppc", "--model", ranking_files["model"], "--train", other,
                   "--output", out, "--budget", 100) == 1
        assert capsys.readouterr().err == (
            f"error: {other}: matrix shape differs from the model\n")
        assert not out.exists()

    def test_evaluate_test_classes_mismatch(self, tmp_path, capsys,
                                            ranking_files):
        other = tmp_path / "other.ordmat"
        OrdinalMatrix(2, 5, 5, [0, 1], [4, 2], [5, 1]).save(other)
        out = tmp_path / "eval.txt"
        assert run("evaluate", "--model", ranking_files["model"],
                   "--train", ranking_files["train"], "--test", other,
                   "--output", out) == 1
        assert capsys.readouterr().err == (
            f"error: {other}: matrix shape differs from the model\n")
        assert not out.exists()

    @pytest.mark.parametrize("raw, message", [
        ("2.7", "value '2.7' is not a finite integer"),
        ("inf", "value 'inf' is not a finite integer"),
        ("1e30", "value '1e30' exceeds the int64 range"),
    ])
    def test_non_integer_triplet_value_rejected(self, tmp_path, capsys, raw,
                                                message):
        src = tmp_path / "counts.csv"
        src.write_text(f"a,x,3\nb,y,{raw}\n")
        out = tmp_path / "m.ordmat"
        assert run("quantize", "--input", src, "--output", out,
                   "--delimiter", ",", "--boundaries", "1,5") == 1
        assert capsys.readouterr().err == f"error: {src}: line 2: {message}\n"
        assert not out.exists()

    def test_non_utf8_triplet_line_rejected(self, tmp_path, capsys):
        src = tmp_path / "counts.csv"
        src.write_bytes(b"u1,i1,3\nu\xff2,i2,4\n")
        out = tmp_path / "m.ordmat"
        assert run("quantize", "--input", src, "--output", out,
                   "--delimiter", ",") == 1
        assert capsys.readouterr().err == (
            f"error: {src}: line 2: 'utf-8' codec can't decode byte 0xff in "
            f"position 1: invalid start byte\n")
        assert not out.exists()

    def test_class_beyond_file_format_rejected(self, tmp_path, capsys):
        # without --boundaries the largest value is V, which the .ordmat
        # header stores in 32 bits
        src = tmp_path / "counts.txt"
        src.write_text("u1 i1 3\nu2 i2 5000000000\n")
        out = tmp_path / "m.ordmat"
        assert run("quantize", "--input", src, "--output", out) == 1
        assert capsys.readouterr().err == (
            "error: 2 users, 2 items, V = 5000000000: each must be below "
            "2^32\n")
        assert list(tmp_path.iterdir()) == [src]

    def test_out_of_memory_exits_cleanly(self, tmp_path, capsys):
        # the first (U, K) array is 2 PiB, beyond any address space, so
        # its allocation fails at once instead of touching memory
        mat = tmp_path / "tall.ordmat"
        OrdinalMatrix((1 << 32) - 1, 3, 2, [0, 5], [1, 2], [1, 2]).save(mat)
        model = tmp_path / "model.npz"
        assert run("train", "--input", mat, "--output", model,
                   "--k", 65536) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: train: out of memory (Unable to allocate")
        assert err.endswith(")\n")
        assert not model.exists()

    @pytest.mark.parametrize("k", [2**60, 10**20], ids=["2^60", "10^20"])
    def test_k_beyond_largest_array_rejected(self, tmp_path, capsys,
                                             ranking_files, k):
        # a 5 x K float64 factor needs more than 2^63 - 1 bytes; a K below
        # that which does not fit in memory takes the out-of-memory path
        model = tmp_path / "model.npz"
        assert run("train", "--input", ranking_files["train"],
                   "--output", model, "--k", k) == 1
        assert capsys.readouterr().err == (
            f"error: n_components {k} is too large: a 5 x {k} float64 "
            f"factor exceeds numpy's size limit\n")
        assert sorted(tmp_path.iterdir()) == sorted(ranking_files.values())

    @pytest.mark.parametrize("argv, message", [
        (["split", "--seed", -1], "--seed must be >= 0, got -1"),
        (["train", "--seed", -1], "--seed must be >= 0, got -1"),
        (["ppc", "--seed", -1], "--seed must be >= 0, got -1"),
        (["train", "--tol", "nan"], "tol must be positive, got nan"),
        (["train", "--alpha-w", "nan"],
         "alpha_w must be finite and positive, got nan"),
        (["train", "--alpha-h", "inf"],
         "alpha_h must be finite and positive, got inf"),
        # the initial shapes alpha * (1 + 0.01 u) overflow
        (["train", "--alpha-w", "1e308"],
         "train: overflow encountered in multiply"),
        # finite shapes, but the ELBO, a log-probability bound, is positive
        (["train", "--alpha-w", "1e50"],
         "ELBO 2.16e+36 at iteration 1 is positive, but it bounds the "
         "log-probability of discrete data"),
    ], ids=["split-seed", "train-seed", "ppc-seed", "train-tol-nan",
            "train-alpha-w-nan", "train-alpha-h-inf", "train-alpha-w-1e308",
            "train-alpha-w-1e50"])
    def test_negative_seed_and_non_finite_options_rejected(
            self, tmp_path, capsys, ranking_files, argv, message):
        out = tmp_path / "out"
        files = {"split": ["--input", ranking_files["train"],
                           "--train-output", out,
                           "--test-output", tmp_path / "test.ordmat"],
                 "train": ["--input", ranking_files["train"], "--k", 2,
                           "--output", out],
                 "ppc": ["--model", ranking_files["model"],
                         "--train", ranking_files["train"], "--output", out,
                         "--budget", 100]}[argv[0]]
        assert run(*argv, *files) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert sorted(tmp_path.iterdir()) == sorted(ranking_files.values())

    @pytest.mark.parametrize("test_entries, shared", [
        (None, (0, 0)),  # the train file itself
        (([0, 1, 1], [4, 0, 2], [3, 2, 1]), (1, 0)),
    ], ids=["train-as-test", "one-shared-entry"])
    def test_evaluate_test_sharing_train_entries_rejected(
            self, tmp_path, capsys, ranking_files, test_entries, shared):
        test = ranking_files["train"]
        if test_entries is not None:
            test = tmp_path / "overlap.ordmat"
            OrdinalMatrix(2, 5, 3, *test_entries).save(test)
        out = tmp_path / "eval.txt"
        assert run("evaluate", "--model", ranking_files["model"],
                   "--train", ranking_files["train"], "--test", test,
                   "--output", out) == 1
        assert capsys.readouterr().err == (
            f"error: {test}: entry (user={shared[0]}, item={shared[1]}) is "
            f"also in the train matrix\n")
        assert not out.exists()

    def test_huge_tol_stops_after_one_iteration(self, tmp_path, capsys,
                                                ranking_files):
        # tol * |ELBO| overflows to inf, which stops the fit as tol = inf does
        model = tmp_path / "model.npz"
        assert run("train", "--input", ranking_files["train"], "--output",
                   model, "--k", 2, "--tol", 1e308) == 0
        out, err = capsys.readouterr()
        assert (err, out.count("iterations=1 converged=True")) == ("", 1)

    def test_pf_and_bepof_together_rejected(self, tmp_path, capsys,
                                            ranking_files):
        model = tmp_path / "baseline.npz"
        assert run("train", "--input", ranking_files["train"],
                   "--output", model, "--k", 2, "--pf", "--bepof",
                   "--binarize-at", 1) == 1
        assert capsys.readouterr().err == (
            "error: --bepof and --pf are mutually exclusive\n")
        assert not model.exists()

    def test_underflowing_intensity_stops_train(self, tmp_path, capsys):
        # under prior shapes of 1e-3 the initial geometric means
        # exp(digamma(shape)) / rate underflow to 0, and so does Lambda
        mat = tmp_path / "train.ordmat"
        users, items = np.divmod(np.arange(90), 3)
        classes = (users + items) % 3 + 1
        OrdinalMatrix(30, 3, 3, users, items, classes).save(mat)
        model = tmp_path / "model.npz"
        assert run("train", "--input", mat, "--output", model, "--k", 2,
                   "--alpha-w", 1e-3, "--alpha-h", 1e-3) == 1
        assert capsys.readouterr().err == (
            "error: intensity 0.0 at (u=0, i=0) is not finite and positive\n")
        assert list(tmp_path.iterdir()) == [mat]

    def test_subnormal_intensity_stops_train(self, tmp_path, capsys):
        # at alpha_w = 1.35e-3 some Lambda become subnormal but stay
        # positive; local_update's E[n] / Lambda would overflow
        data, _ = generate_dataset(30, 20, 3, default_thresholds(3),
                                   np.random.default_rng(0), scale=0.3)
        mat = tmp_path / "train.ordmat"
        data.save(mat)
        model = tmp_path / "model.npz"
        assert run("train", "--input", mat, "--output", model, "--k", 3,
                   "--alpha-w", 0.00135, "--max-iter", 20, "--seed", 0) == 1
        err = capsys.readouterr().err
        found = re.fullmatch(r"error: intensity (\S+) at \(u=0, i=3\) is "
                             r"below 2\.225e-308\n", err)
        assert found and 0 < float(found[1]) < np.finfo(float).tiny
        assert list(tmp_path.iterdir()) == [mat]

    @pytest.mark.parametrize("rate", [4.4e161, 2e161])
    def test_subnormal_intensity_stops_evaluate(self, tmp_path, capsys,
                                                rate):
        # E[w] E[h] = rate**-2, 5e-324 or 2.5e-323: lambda * delta_2
        # underflows to 0 or keeps one significant digit
        train, test = tmp_path / "train.ordmat", tmp_path / "test.ordmat"
        OrdinalMatrix(3, 4, 2, [0], [0], [1]).save(train)
        OrdinalMatrix(3, 4, 2, [1], [1], [2]).save(test)
        W, H = (GammaVariationalMatrix(np.ones((n, 1)), np.full((n, 1), rate),
                                       0.3, np.ones(n)) for n in (3, 4))
        model = tmp_path / "model.npz"
        save_state(model, VariationalState(
            W, H, ThresholdSequence.from_delta([0.5, 0.5])))
        out = tmp_path / "eval.txt"
        assert run("evaluate", "--model", model, "--train", train,
                   "--test", test, "--output", out) == 1
        err = capsys.readouterr().err
        found = re.fullmatch(r"error: intensity (\S+) at \(u=1, i=1\) is "
                             r"below 2\.225e-308\n", err)
        assert found and float(found[1]) == (1 / rate) ** 2 > 0
        assert not out.exists()

    @pytest.mark.parametrize("rate, gap", [(3e-308 ** -0.5, 2.0 ** -52),
                                           (2.0 ** 511, 2.0 ** -53)],
                             ids=["subnormal", "zero"])
    def test_subnormal_lambda_delta_stops_evaluate(self, tmp_path, capsys,
                                                   rate, gap):
        # lambda = rate**-2 is normal, 3e-308 or 2^-1022, but lambda * delta_1
        # with delta_1 = gap is subnormal (6.7e-324) or rounds to 0
        train, test = tmp_path / "train.ordmat", tmp_path / "test.ordmat"
        OrdinalMatrix(3, 4, 2, [0], [0], [2]).save(train)
        OrdinalMatrix(3, 4, 2, [1], [1], [1]).save(test)
        W, H = (GammaVariationalMatrix(np.ones((n, 1)), np.full((n, 1), rate),
                                       1.0, np.ones(n)) for n in (3, 4))
        model = tmp_path / "model.npz"
        save_state(model, VariationalState(
            W, H, ThresholdSequence([1.0, 1.0 - gap])))
        out = tmp_path / "eval.txt"
        assert run("evaluate", "--model", model, "--train", train,
                   "--test", test, "--output", out) == 1
        err = capsys.readouterr().err
        found = re.fullmatch(r"error: lambda \* delta (\S+) at \(u=1, i=1\) "
                             r"is below 2\.225e-308\n", err)
        assert found and 0 <= float(found[1]) < np.finfo(float).tiny
        assert not out.exists()

    def test_ppc_draws_of_zero_intensity(self, tmp_path, ranking_files):
        # gamma draws at shape 1e-3 are 0.0 about half the time, so some
        # cells get lambda = 0, which is class 0 for sure
        train = OrdinalMatrix.load(ranking_files["train"])
        state = random_state_like(train, 2, np.random.default_rng(0))
        for factor in (state.W, state.H):
            factor.set(np.full_like(factor.shape, 1e-3), factor.rate)
        model = tmp_path / "tiny.npz"
        save_state(model, state)
        out = tmp_path / "ppc.txt"
        assert run("ppc", "--model", model, "--train", ranking_files["train"],
                   "--output", out, "--budget", 1000) == 0
        assert "# simulated non-zero: " in out.read_text()


class TestOptionSweep:
    """Every subcommand's options, drawn from extreme values, on a tiny
    matrix: each run succeeds or fails with one error line."""

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=st.sampled_from(sorted(SWEEP_OPTIONS)).flatmap(
        lambda command: st.tuples(st.just(command), SWEEP_OPTIONS[command])))
    # tracebacks that random draws find in some runs only
    @example(case=("quantize", {"boundaries": "99999999999999999999"}))
    @example(case=("train", {"k": 10**20, "max_iter": 1, "tol": math.inf}))
    def test_options_exit_cleanly(self, tmp_path, capsys, ranking_files,
                                  case):
        command, options = case
        counts = tmp_path / "counts.txt"  # split on whitespace or on tabs
        counts.write_text("u0\ti0\t3\nu0\ti1\t1\nu1\ti1\t7\n")
        out = tmp_path / "out"
        files = {"quantize": ["--input", counts, "--output", out],
                 "split": ["--input", ranking_files["train"],
                           "--train-output", out,
                           "--test-output", tmp_path / "test.ordmat"],
                 "train": ["--input", ranking_files["train"],
                           "--output", out],
                 "evaluate": ["--model", ranking_files["model"],
                              "--train", ranking_files["train"],
                              "--test", ranking_files["test"],
                              "--output", out],
                 "ppc": ["--model", ranking_files["model"],
                         "--train", ranking_files["train"], "--output", out],
                 "predict": ["--model", ranking_files["model"],
                             "--output", out]}[command]
        argv = [command, *files]
        for name, value in options.items():
            flag = "--" + name.replace("_", "-")
            if value is True:
                argv += ([flag, ranking_files["train"]] if name == "train"
                         else [flag])
            else:  # "--flag=value", so that "-inf" is read as a value
                argv.append(f"{flag}={value}")
        code = run(*argv)
        err = capsys.readouterr().err
        if code == 0:
            assert err == ""
        else:  # "." matches no line break, so this is one line
            assert code == 1 and re.fullmatch("error: .*\n", err)


class TestConfigPrecedence:
    """Flags over defaults, echoed into each output's metadata."""

    def test_metadata_echoes_effective_config(self, tmp_path, triplet_file):
        mat = tmp_path / "m.ordmat"
        run("quantize", "--input", triplet_file, "--output", mat,
            "--boundaries", "1,5", "--delimiter", ",")
        meta = json.loads((tmp_path / "m.ordmat.meta.json").read_text())
        assert meta["schema_version"] == 1
        assert meta["config"]["boundaries"] == "1,5"

        model = tmp_path / "model.npz"
        assert run("train", "--input", mat, "--output", model, "--k", 2,
                   "--max-iter", 3, "--seed", 4) == 0
        _, meta = load_state(model)
        assert meta["config"] == {
            "input": str(mat), "output": str(model), "k": 2, "alpha_w": 0.3,
            "alpha_h": 0.3, "tol": 1e-5, "max_iter": 3, "seed": 4,
            "restarts": 1, "bepof": False, "pf": False, "binarize_at": None}
