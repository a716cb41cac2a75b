"""Workload definitions and the seeded input generator.

Inputs are written straight to the files the CLI reads (`.ordmat` or a
triplet CSV) without going through `ordnmf.generate_dataset`, which builds a
dense U x I intensity and a U x I x (V+1) c.d.f. array and cannot reach these
sizes.  The same (workload, size, seed) always gives byte-identical files.
"""

import struct
from dataclasses import dataclass

import numpy as np

README_BOUNDARIES = (1, 2, 5, 10, 20, 50, 100, 200, 500)


@dataclass(frozen=True)
class Workload:
    name: str
    n_users: int
    n_items: int
    nnz: int
    k: int
    iterations: int
    stages: tuple
    n_classes: int = 5              # V of the input (ingest-pf: after quantize)
    item_placement: str = "uniform"  # or "zipf" (popularity exponent 1.0)
    predict_users: int = 0          # users listed by the predict stage

    @property
    def ingests_triplets(self):
        return "quantize" in self.stages


FULL = {
    # The nnz x K sweep dominates: one nnz x K float64 temporary of the train
    # split (400k x 100) is ~3x the 105 MB L3 of the reference box; ranking
    # over 2k items is small; no ingestion.
    "sweep": Workload("sweep", 2_500, 2_000, 500_000, k=100, iterations=2,
                      stages=("split", "train", "evaluate")),
    # Per-user ranking over 20k candidates dominates; the sweep's nnz x K
    # temporaries are ~5 MB, so a sweep optimisation should not move it.
    "rank": Workload("rank", 1_000, 20_000, 40_000, k=20, iterations=5,
                     stages=("split", "train", "evaluate", "predict"),
                     predict_users=200),
    # The per-line triplet loader dominates quantize; many short rows
    # (train nnz / (U+I) = 6.7) make the dense (U+I) x K gamma work a large
    # share of an iteration; the PF corner runs the inference layer without
    # threshold updates.
    "ingest-pf": Workload("ingest-pf", 25_000, 5_000, 250_000, k=20,
                          iterations=4, n_classes=len(README_BOUNDARIES) + 1,
                          item_placement="zipf",
                          stages=("quantize", "split", "train", "train_pf",
                                  "ppc")),
}

# Same shapes scaled down for the smoke test; pinned values do not apply.
TINY = {
    "sweep": Workload("sweep", 200, 100, 4_000, k=5, iterations=2,
                      stages=FULL["sweep"].stages),
    "rank": Workload("rank", 200, 1_000, 2_000, k=4, iterations=2,
                     stages=FULL["rank"].stages, predict_users=50),
    "ingest-pf": Workload("ingest-pf", 1_000, 300, 5_000, k=4, iterations=2,
                          n_classes=FULL["ingest-pf"].n_classes,
                          item_placement="zipf",
                          stages=FULL["ingest-pf"].stages),
}


def _distinct_cells(rng, wl):
    """nnz distinct (user, item) pairs, users uniform, items uniform or
    Zipf(1.0) by popularity rank; returned in draw order."""
    if wl.item_placement == "uniform":
        keys = rng.choice(wl.n_users * wl.n_items, size=wl.nnz, replace=False)
        return keys // wl.n_items, keys % wl.n_items
    item_p = 1.0 / np.arange(1, wl.n_items + 1)
    item_p /= item_p.sum()
    keys = np.empty(0, dtype=np.int64)
    while keys.size < wl.nnz:
        n = 2 * (wl.nnz - keys.size)
        users = rng.integers(0, wl.n_users, size=n)
        items = rng.choice(wl.n_items, size=n, p=item_p)
        drawn = np.concatenate((keys, users * wl.n_items + items))
        _, first = np.unique(drawn, return_index=True)
        keys = drawn[np.sort(first)]
    keys = keys[:wl.nnz]
    return keys // wl.n_items, keys % wl.n_items


def _geometric_classes(rng, n, n_classes):
    """Classes 1..V with frequencies halving from one class to the next."""
    p = 0.5 ** np.arange(n_classes)
    return 1 + rng.choice(n_classes, size=n, p=p / p.sum())


def write_ordmat(path, n_users, n_items, n_classes, rows, cols, vals):
    """The `.ordmat` v1 layout: magic, <IIIIQ header, then int64 rows, cols
    and vals in CSR order."""
    order = np.lexsort((cols, rows))
    with open(path, "wb") as fh:
        fh.write(b"ORDM")
        fh.write(struct.pack("<IIIIQ", 1, n_users, n_items, n_classes,
                             rows.size))
        for a in (rows, cols, vals):
            a[order].astype("<i8").tofile(fh)


def read_ordmat(path):
    """(n_users, n_items, n_classes, rows, cols, vals) from an `.ordmat`."""
    with open(path, "rb") as fh:
        if fh.read(4) != b"ORDM":
            raise ValueError(f"{path}: not an ordinal matrix file")
        _, n_users, n_items, n_classes, nnz = struct.unpack(
            "<IIIIQ", fh.read(24))
        arrays = [np.fromfile(fh, dtype="<i8", count=nnz) for _ in range(3)]
    if arrays[2].size != nnz:
        raise ValueError(f"{path}: truncated file")
    return (n_users, n_items, n_classes, *arrays)


def generate(wl, seed, out_dir):
    """Write the workload's input into out_dir and return a description of
    what was generated (the values the quantize check compares against)."""
    rng = np.random.default_rng([seed, sum(map(ord, wl.name))])
    rows, cols = _distinct_cells(rng, wl)
    if not wl.ingests_triplets:
        vals = _geometric_classes(rng, wl.nnz, wl.n_classes)
        path = out_dir / "full.ordmat"
        write_ordmat(path, wl.n_users, wl.n_items, wl.n_classes,
                     rows, cols, vals)
        return {"input": path.name, "n_users": wl.n_users,
                "n_items": wl.n_items, "nnz": wl.nnz,
                "n_classes": wl.n_classes}
    # heavy-tailed raw counts spread over all README quantization classes
    counts = np.minimum(rng.zipf(1.7, size=wl.nnz), 1_000_000)
    order = rng.permutation(wl.nnz)
    rows, cols, counts = rows[order], cols[order], counts[order]
    lines = [f"u{u},i{i},{c}\n" for u, i, c in
             zip(rows.tolist(), cols.tolist(), counts.tolist())]
    path = out_dir / "counts.csv"
    with open(path, "w") as fh:
        fh.write("".join(lines))
    return {"input": path.name, "n_users": int(np.unique(rows).size),
            "n_items": int(np.unique(cols).size), "nnz": wl.nnz,
            "n_classes": len(README_BOUNDARIES) + 1}
