"""Command-line front end: quantize -> split -> train -> evaluate/ppc/predict.

Every subcommand is deterministic given its options.  Each output's
metadata echoes the value of every option: the flag where one was given,
the default otherwise.
"""

import argparse
import json
import os
import stat
import sys
from dataclasses import fields

import numpy as np

from . import __version__
from .baselines import binarize
from .data import (OrdinalMatrix, load_triplets, quantize_counts,
                   train_test_split, write_index_map)
from .errors import ConfigError, DataError, OrdnmfError
from .evaluation import (evaluate_ranking, log_lik_nonzeros, ppc_histogram,
                         ppc_report_text, ranking_report_text, top_lists)
from .inference import FitConfig, fit, load_state, save_state

SCHEMA_VERSION = 1


def _metadata(cfg):
    return {"schema_version": SCHEMA_VERSION, "version": __version__,
            "config": cfg}


def _write_report(path, chunks, cfg):
    """Write the metadata header, then each chunk of text as it comes.  On
    any error the file is removed, so a failed command leaves no partial
    report; a device or link named by --output is left in place."""
    with open(path, "w") as fh:
        try:
            fh.write(f"# ordnmf schema-version={SCHEMA_VERSION}\n")
            fh.write(f"# config: {json.dumps(cfg, sort_keys=True)}\n")
            for chunk in chunks:
                fh.write(chunk)
        except BaseException:
            if stat.S_ISREG(os.lstat(path).st_mode):
                os.remove(path)
            raise


def _parse_int_list(cfg, key):
    """The integers of a comma-separated option; ConfigError naming the
    flag unless there is at least one."""
    try:
        values = [int(t) for t in str(cfg[key]).split(",") if t != ""]
    except ValueError:
        values = []
    if not values:
        raise ConfigError(f"--{key.replace('_', '-')}: expected comma-"
                          f"separated integers, got {cfg[key]!r}")
    return values


def _at_least(cfg, key, low):
    if cfg[key] < low:
        raise ConfigError(
            f"--{key.replace('_', '-')} must be >= {low}, got {cfg[key]}")
    return cfg[key]


def cmd_quantize(cfg):
    if cfg["delimiter"] == "":  # not "split on whitespace", as None is
        raise ConfigError("--delimiter: expected one or more characters, "
                          "got ''")
    triplets = load_triplets(cfg["input"], delimiter=cfg["delimiter"],
                             skip_header=cfg["header"])
    matrix = quantize_counts(triplets, None if cfg["boundaries"] is None
                             else _parse_int_list(cfg, "boundaries"))
    matrix.save(cfg["output"])
    write_index_map(cfg["output"] + ".users", triplets.user_ids)
    write_index_map(cfg["output"] + ".items", triplets.item_ids)
    with open(cfg["output"] + ".meta.json", "w") as fh:
        json.dump(_metadata(cfg), fh, indent=2)
    print(f"wrote {cfg['output']}: {matrix.n_users} users x "
          f"{matrix.n_items} items, V={matrix.n_classes}, nnz={matrix.nnz}")
    return 0


def cmd_split(cfg):
    seed = _at_least(cfg, "seed", 0)
    matrix = OrdinalMatrix.load(cfg["input"])
    train, test = train_test_split(matrix, cfg["test_fraction"], seed)
    train.save(cfg["train_output"])
    test.save(cfg["test_output"])
    for path in (cfg["train_output"], cfg["test_output"]):
        with open(path + ".meta.json", "w") as fh:
            json.dump(_metadata(cfg), fh, indent=2)
    print(f"split nnz={matrix.nnz} into train={train.nnz} test={test.nnz}")
    return 0


def cmd_train(cfg):
    if cfg["bepof"] and cfg["pf"]:
        raise ConfigError("--bepof and --pf are mutually exclusive")
    variant = "pf" if cfg["pf"] else "bepof" if cfg["bepof"] else "ordinal"
    restarts = _at_least(cfg, "restarts", 1)
    _at_least(cfg, "seed", 0)
    matrix = OrdinalMatrix.load(cfg["input"])
    if cfg["binarize_at"] is not None:
        matrix = binarize(matrix, cfg["binarize_at"])
    # init_state draws each rows x K factor at once, and numpy caps an
    # array at 2^63 - 1 bytes
    rows = max(matrix.n_users, matrix.n_items)
    if rows * cfg["k"] * 8 > np.iinfo(np.intp).max:
        raise ConfigError(f"n_components {cfg['k']} is too large: a {rows} x "
                          f"{cfg['k']} float64 factor exceeds numpy's size limit")
    best = None
    for r in range(restarts):
        seed = cfg["seed"] + r
        result = fit(matrix, FitConfig(
            n_components=cfg["k"], alpha_w=cfg["alpha_w"],
            alpha_h=cfg["alpha_h"], tol=cfg["tol"], max_iter=cfg["max_iter"],
            seed=seed, variant=variant))
        trace_path = f"{cfg['output']}.trace.{seed}.txt"
        np.savetxt(trace_path, result.elbo_trace)
        final = result.elbo_trace[-1]
        print(f"restart seed={seed}: elbo={final:.6f} "
              f"iterations={result.iterations} converged={result.converged}")
        if best is None or final > best[0]:
            best = (final, result, seed)
    _, result, seed = best
    meta = _metadata(cfg)
    meta.update(best_seed=seed, elbo=float(best[0]),
                iterations=result.iterations, converged=result.converged)
    save_state(cfg["output"], result.state, metadata=meta)
    print(f"wrote {cfg['output']} (best seed {seed})")
    return 0


def _load_for_model(path, state, same_classes, binarize_at=None):
    """The matrix at path, binarized at binarize_at unless that is None or
    the matrix is binary already; ConfigError unless it has the model's
    users and items, and the model's V too when same_classes is set."""
    matrix = OrdinalMatrix.load(path)
    if binarize_at is not None and matrix.n_classes > 1:
        try:
            matrix = binarize(matrix, binarize_at)
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from None
    if ((matrix.n_users, matrix.n_items) != (state.n_users, state.n_items)
            or same_classes and matrix.n_classes != state.n_classes):
        raise ConfigError(f"{path}: matrix shape differs from the model")
    return matrix


def cmd_evaluate(cfg):
    state, _ = load_state(cfg["model"])
    train = _load_for_model(cfg["train"], state, same_classes=False)
    # V = 1 models (Bernoulli link, PF) rank any test V and skip the log-lik
    test = _load_for_model(cfg["test"], state, same_classes=state.n_classes > 1)
    if test.nnz == 0:
        raise ConfigError("test matrix is empty")
    # ranking leaves out every train item, so a shared entry would count as
    # a miss without any error
    shared = test.first_shared_entry(train)
    if shared is not None:
        raise ConfigError(f"{cfg['test']}: entry (user={shared[0]}, "
                          f"item={shared[1]}) is also in the train matrix")
    thresholds = _parse_int_list(cfg, "ndcg_thresholds")
    reports = evaluate_ranking(state, train, test, thresholds,
                               list_length=cfg["list_length"])
    text = ranking_report_text(reports)
    if state.n_classes > 1:
        text += f"log_lik_nonzeros\t{log_lik_nonzeros(test, state):.6f}\n"
    else:
        text += "log_lik_nonzeros\tN/A\n"
    _write_report(cfg["output"], [text], cfg)
    sys.stdout.write(text)
    return 0


def cmd_ppc(cfg):
    state, meta = load_state(cfg["model"])
    # a model trained with --binarize-at s is checked against train >= s
    config = meta.get("config", {})
    if not isinstance(config, dict):
        raise DataError(f"{cfg['model']}: model metadata config is not a "
                        "JSON object")
    binarize_at = config.get("binarize_at")
    if binarize_at is not None and type(binarize_at) is not int:  # nor bool
        raise DataError(f"{cfg['model']}: model metadata config.binarize_at "
                        f"{json.dumps(binarize_at)} is not an integer")
    train = _load_for_model(cfg["train"], state, same_classes=True,
                            binarize_at=binarize_at)
    rng = np.random.default_rng(_at_least(cfg, "seed", 0))
    report = ppc_histogram(state, train, rng,
                           n_cells=_at_least(cfg, "budget", 1))
    text = ppc_report_text(report)
    _write_report(cfg["output"], [text], cfg)
    sys.stdout.write(text)
    return 0


def cmd_predict(cfg):
    state, _ = load_state(cfg["model"])
    train = None
    if cfg["train"] is not None:
        train = _load_for_model(cfg["train"], state, same_classes=False)
    users = range(state.n_users)
    if cfg["users"] is not None:
        users = _parse_int_list(cfg, "users")
        for u in users:
            if not 0 <= u < state.n_users:
                raise ConfigError(f"--users: user index {u} outside "
                                  f"0..{state.n_users - 1}")

    def lines():  # one user's list at a time, as each block is ranked
        yield "user\trank\titem\tscore\n"
        for block, items, lengths, top in top_lists(state, users, train,
                                                    cfg["list_length"]):
            for u, row, vals, n in zip(block.tolist(), items.tolist(),
                                       top.tolist(), lengths.tolist()):
                yield "".join(f"{u}\t{r + 1}\t{row[r]}\t{vals[r]:.8g}\n"
                              for r in range(n))
    _write_report(cfg["output"], lines(), cfg)
    print(f"wrote {cfg['output']}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ordnmf",
        description="Ordinal NMF: quantize, split, train, evaluate, ppc, predict")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    # train's fit options share FitConfig's defaults
    fit_default = {f.name: f.default for f in fields(FitConfig)}

    p = sub.add_parser("quantize", help="triplet text file -> ordinal matrix")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--boundaries", default=None,
                   help="comma-separated count boundaries; omit to treat "
                        "values as classes")
    p.add_argument("--delimiter", default=None)
    p.add_argument("--header", action="store_true")
    p.set_defaults(func=cmd_quantize)

    p = sub.add_parser("split", help="partition non-zeros into train/test")
    p.add_argument("--input", required=True)
    p.add_argument("--train-output", required=True)
    p.add_argument("--test-output", required=True)
    p.add_argument("--test-fraction", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train", help="fit the model by coordinate ascent")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--k", type=int, default=50)
    p.add_argument("--alpha-w", type=float, default=fit_default["alpha_w"])
    p.add_argument("--alpha-h", type=float, default=fit_default["alpha_h"])
    p.add_argument("--tol", type=float, default=fit_default["tol"])
    p.add_argument("--max-iter", type=int, default=fit_default["max_iter"])
    p.add_argument("--seed", type=int, default=fit_default["seed"])
    p.add_argument("--restarts", type=int, default=1)
    p.add_argument("--bepof", action="store_true")
    p.add_argument("--pf", action="store_true")
    p.add_argument("--binarize-at", type=int, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="ranking metrics and held-out likelihood")
    p.add_argument("--model", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--ndcg-thresholds", default="1")
    p.add_argument("--list-length", type=int, default=100)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ppc", help="posterior predictive class histogram")
    p.add_argument("--model", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=10_000_000)
    p.set_defaults(func=cmd_ppc)

    p = sub.add_parser("predict", help="top-m item lists per user")
    p.add_argument("--model", required=True)
    p.add_argument("--train", default=None,
                   help="train matrix for excluding known items")
    p.add_argument("--output", required=True)
    p.add_argument("--users", default=None,
                   help="comma-separated user indices; default all")
    p.add_argument("--list-length", type=int, default=100)
    p.set_defaults(func=cmd_predict)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    cfg = {k: v for k, v in vars(args).items()
           if k not in ("func", "subcommand")}
    try:
        # an overflow leaves inf in what the command computes or writes
        with np.errstate(over="raise"):
            return args.func(cfg)
    except (OrdnmfError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    except MemoryError as exc:
        print(f"error: {args.subcommand}: out of memory ({exc})", file=sys.stderr)
    except FloatingPointError as exc:
        print(f"error: {args.subcommand}: {exc}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
