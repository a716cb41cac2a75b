"""End-to-end pipeline through the command-line interface."""

import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from ordnmf.baselines import binarize
from ordnmf.cli import build_parser, main
from ordnmf.data import OrdinalMatrix
from ordnmf.inference import load_state, predict_scores, save_state

from oracles import damaged_ordmat, random_state_like

PROTOCOL_SCRIPT = (Path(__file__).resolve().parents[1] / "scripts"
                   / "reproduce_protocol.sh")


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
        np.testing.assert_array_equal(predict_scores(s1), predict_scores(s2))

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
    ], ids=["train-restarts-0", "ppc-budget-0", "predict-users-a",
            "predict-users-7", "predict-users-negative",
            "evaluate-ndcg-thresholds-a"])
    def test_bad_counts_and_lists_rejected(self, tmp_path, capsys,
                                           ranking_files, argv, message):
        files = {"train": ["--input", ranking_files["train"], "--k", 2],
                 "ppc": ["--model", ranking_files["model"],
                         "--train", ranking_files["train"]],
                 "predict": ["--model", ranking_files["model"]],
                 "evaluate": ["--model", ranking_files["model"],
                              "--train", ranking_files["train"],
                              "--test", ranking_files["test"]]}[argv[0]]
        out = tmp_path / "out.txt"
        assert run(*argv, *files, "--output", out) == 1
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

    def test_pf_and_bepof_together_rejected(self, tmp_path, capsys,
                                            ranking_files):
        model = tmp_path / "baseline.npz"
        assert run("train", "--input", ranking_files["train"],
                   "--output", model, "--k", 2, "--pf", "--bepof",
                   "--binarize-at", 1) == 1
        assert capsys.readouterr().err == (
            "error: --bepof and --pf are mutually exclusive\n")
        assert not model.exists()


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
