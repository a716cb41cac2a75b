"""Output checks for each CLI stage.

Each check reads what its stage wrote, raises CheckFailed when the output is
wrong, and returns the values that are pinned for the default seed.  The
checks read the `.ordmat` and `.npz` files with plain numpy, so they do not
depend on the code under test.
"""

import json
import math
import re

import numpy as np

from workloads import read_ordmat

NDCG_THRESHOLDS = (1, 2, 3)
LIST_LENGTH = 100
TEST_FRACTION = 0.2
PPC_BUDGET = 1_000_000
PIN_RTOL = 1e-9

# Final ELBOs, NDCG and held-out log-likelihoods of the full-size workloads
# at seed 0; they repeat bit for bit from run to run.
PINNED = {
    "sweep": {"elbo": -2413137.615660186,
              "ndcg": [0.041535, 0.03229, 0.023603], "log_lik": -124117.014501},
    "rank": {"elbo": -350463.8252802781,
             "ndcg": [0.002254, 0.001743, 0.001246], "log_lik": -9771.697179},
    "ingest-pf": {"elbo": -1715766.612353716, "elbo_pf": -1406461.039911709},
}


class CheckFailed(Exception):
    pass


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def _report_rows(path):
    """Non-comment lines of a report file, split on tabs."""
    with open(path) as fh:
        return [line.rstrip("\n").split("\t") for line in fh
                if line.strip() and not line.startswith("#")]


def check_quantize(run, out):
    m = re.search(r"(\d+) users x (\d+) items, V=(\d+), nnz=(\d+)", out)
    _require(m, "quantize did not echo the matrix shape")
    got = tuple(int(g) for g in m.groups())
    gen = run.generated
    want = (gen["n_users"], gen["n_items"], gen["n_classes"], gen["nnz"])
    _require(got == want, f"quantize echoed (U, I, V, nnz)={got}, generated {want}")
    return {}


def check_split(run, out):
    m = re.search(r"split nnz=(\d+) into train=(\d+) test=(\d+)", out)
    _require(m, "split did not echo its sizes")
    nnz, n_train, n_test = (int(g) for g in m.groups())
    want_test = max(1, math.floor(TEST_FRACTION * run.generated["nnz"]))
    _require(nnz == run.generated["nnz"],
             f"split read nnz={nnz}, generated {run.generated['nnz']}")
    _require((n_train, n_test) == (nnz - want_test, want_test),
             f"split sizes train={n_train} test={n_test}")
    for path, n in ((run.train, n_train), (run.test, n_test)):
        _require(read_ordmat(path)[3].size == n, f"{path.name} holds the wrong nnz")
    return {}


def _check_model(run, path, key):
    with np.load(path) as z:
        meta = json.loads(bytes(z["metadata"]).decode())
    _require(meta.get("iterations") == run.workload.iterations,
             f"{path.name}: {meta.get('iterations')} iterations, "
             f"expected {run.workload.iterations}")
    elbo = meta.get("elbo")
    _require(isinstance(elbo, float) and math.isfinite(elbo),
             f"{path.name}: non-finite ELBO {elbo!r}")
    return {key: elbo}


def check_train(run, out):
    return _check_model(run, run.model, "elbo")


def check_train_pf(run, out):
    return _check_model(run, run.model_pf, "elbo_pf")


def check_evaluate(run, out):
    rows = _report_rows(run.eval_report)
    _require(rows and rows[0] == ["threshold", "list_length", "ndcg", "n_users"],
             "evaluate report lacks its header")
    body = [r for r in rows[1:] if r[0] != "log_lik_nonzeros"]
    _require([int(r[0]) for r in body] == list(NDCG_THRESHOLDS),
             "evaluate report needs one row per threshold")
    _, _, _, t_rows, _, t_vals = read_ordmat(run.test)
    ndcg = []
    for (s, m, value, n_users), thr in zip(body, NDCG_THRESHOLDS):
        value = float(value)
        _require(0.0 <= value <= 1.0, f"NDCG@{m} at {s} is {value}")
        want = np.unique(t_rows[t_vals >= thr]).size
        _require(int(n_users) == want,
                 f"threshold {s}: n_users={n_users}, test file has {want}")
        ndcg.append(value)
    lik = [float(r[1]) for r in rows if r[0] == "log_lik_nonzeros"]
    _require(len(lik) == 1 and math.isfinite(lik[0]) and lik[0] <= 0,
             f"held-out log-likelihood {lik}")
    return {"ndcg": ndcg, "log_lik": lik[0]}


def check_predict(run, out):
    rows = _report_rows(run.top_lists)
    _require(rows and rows[0] == ["user", "rank", "item", "score"],
             "predict output lacks its header")
    table = np.array(rows[1:], dtype=float)
    users, ranks = table[:, 0].astype(np.int64), table[:, 1].astype(np.int64)
    items, scores = table[:, 2].astype(np.int64), table[:, 3]
    want_users = np.asarray(run.predict_users)
    starts = np.flatnonzero(ranks == 1)
    _require(np.array_equal(users[starts], want_users),
             "predict did not list the requested users in order")
    _, n_items, _, tr_rows, tr_cols, _ = read_ordmat(run.train)
    seen = np.bincount(tr_rows, minlength=want_users.max() + 1)
    for j, u in enumerate(want_users):
        lo = starts[j]
        hi = starts[j + 1] if j + 1 < starts.size else ranks.size
        m = min(LIST_LENGTH, n_items - seen[u])
        _require(np.array_equal(ranks[lo:hi], np.arange(1, m + 1))
                 and np.all(users[lo:hi] == u), f"user {u}: ranks not 1..{m}")
        _require(np.all(np.diff(scores[lo:hi]) <= 0),
                 f"user {u}: scores increase down the list")
    train_keys = tr_rows * n_items + tr_cols
    _require(not np.isin(users * n_items + items, train_keys).any(),
             "predict listed a train item")
    return {}


def check_ppc(run, out):
    rows = _report_rows(run.ppc_report)
    _require(rows and rows[0] == ["class", "observed_freq", "simulated_freq"],
             "ppc report lacks its header")
    table = np.array(rows[1:], dtype=float)
    n_users, n_items, n_classes, _, _, vals = read_ordmat(run.train)
    _require(np.array_equal(table[:, 0], np.arange(n_classes + 1)),
             "ppc report needs one row per class 0..V")
    observed = np.bincount(vals, minlength=n_classes + 1).astype(float)
    observed[0] = float(n_users) * n_items - vals.size
    observed /= observed.sum()
    for col, name in ((1, "observed"), (2, "simulated")):
        _require(abs(table[:, col].sum() - 1.0) < 1e-6,
                 f"ppc {name} frequencies sum to {table[:, col].sum()}")
    _require(np.allclose(table[:, 1], observed, rtol=0, atol=1e-8),
             "ppc observed column differs from the train class frequencies")
    return {}


CHECKS = {
    "quantize": check_quantize, "split": check_split, "train": check_train,
    "train_pf": check_train_pf, "evaluate": check_evaluate,
    "predict": check_predict, "ppc": check_ppc,
}


def check_pinned(workload, values):
    """Compare the pinned values of a full-size seed-0 run."""
    for key, want in PINNED[workload].items():
        got = values.get(key)
        _require(got is not None, f"pinned value {key} was not produced")
        _require(np.allclose(got, want, rtol=PIN_RTOL, atol=0),
                 f"{key} = {got!r}, pinned {want!r}")
