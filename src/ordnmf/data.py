"""Sparse ordinal matrices: ingestion, quantization, splitting.

The observed matrix stores only non-zero classes (class 0 is implicit).
Entries live in CSR order by user.  Matrices are immutable after
construction and safe for shared read access.
"""

import functools
import os
import struct

import numpy as np
from scipy import sparse

from .errors import ConfigError, DataError, ParseError

_MAGIC = b"ORDM"
_FORMAT_VERSION = 1
# magic, version, users, items, classes, nnz; then rows, cols, vals as
# nnz little-endian int64 each
_HEADER = struct.Struct("<4sIIIIQ")


class OrdinalMatrix:
    """Sparse U x I matrix of ordinal classes in {1..V}; zeros implicit.

    rows/cols/vals are parallel arrays in CSR order (sorted by user then
    item).  `indptr` delimits each user's slice.
    """

    def __init__(self, n_users, n_items, n_classes, rows, cols, vals):
        if n_classes < 1:
            raise DataError("need at least one non-zero class")
        if int(n_users) * int(n_items) >= 1 << 64:
            raise DataError(f"shape {n_users} x {n_items} has 2^64 or more cells")
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.int64)
        if not (rows.shape == cols.shape == vals.shape) or rows.ndim != 1:
            raise DataError("rows/cols/vals must be parallel 1-d arrays")
        if rows.size:
            if rows.min() < 0 or rows.max() >= n_users:
                raise DataError("user index out of range")
            if cols.min() < 0 or cols.max() >= n_items:
                raise DataError("item index out of range")
            if vals.min() < 1 or vals.max() > n_classes:
                raise DataError(f"classes must lie in 1..{n_classes}")
        # equal CSR keys are duplicates, so sort stability does not matter
        key = rows.astype(np.uint64) * np.uint64(n_items) + cols.astype(np.uint64)
        order = np.argsort(key)
        dup = np.flatnonzero(np.diff(key[order]) == 0)
        rows, cols, vals = rows[order], cols[order], vals[order]
        if dup.size:
            raise DataError(f"duplicate entry for (user={rows[dup[0]]}, "
                            f"item={cols[dup[0]]})")
        self.n_users = int(n_users)
        self.n_items = int(n_items)
        self.n_classes = int(n_classes)
        self.rows, self.cols, self.vals = rows, cols, vals
        for a in (rows, cols, vals):
            a.setflags(write=False)

    @functools.cached_property
    def indptr(self):
        """CSR row pointer, length n_users + 1.  Built on first use, so that
        construction (and load) takes memory in nnz only, not in n_users."""
        return np.concatenate(
            ([0], np.cumsum(np.bincount(self.rows, minlength=self.n_users))))

    @property
    def nnz(self):
        return self.rows.size

    @property
    def class_counts(self):
        """Number of stored entries per class 1..V (length V)."""
        return np.bincount(self.vals, minlength=self.n_classes + 1)[1:]

    def csr(self, values=None):
        """scipy CSR matrix over this sparsity pattern holding values, one
        per stored entry in CSR order; the classes when values is None."""
        return sparse.csr_matrix(
            (self.vals if values is None else values, self.cols, self.indptr),
            shape=(self.n_users, self.n_items))

    def to_dense(self):
        """Dense class matrix with explicit zeros (small instances only)."""
        out = np.zeros((self.n_users, self.n_items), dtype=np.int64)
        out[self.rows, self.cols] = self.vals
        return out

    def save(self, path):
        """Write the versioned little-endian binary format."""
        with open(path, "wb") as fh:
            fh.write(_HEADER.pack(_MAGIC, _FORMAT_VERSION, self.n_users,
                                  self.n_items, self.n_classes, self.nnz))
            self.rows.astype("<i8").tofile(fh)
            self.cols.astype("<i8").tofile(fh)
            self.vals.astype("<i8").tofile(fh)

    @classmethod
    def load(cls, path):
        """Read a file written by save; DataError naming path otherwise."""
        with open(path, "rb") as fh:
            header = fh.read(_HEADER.size)
            if header[:4] != _MAGIC:
                raise DataError(f"{path}: not an ordinal matrix file")
            if len(header) != _HEADER.size:
                raise DataError(f"{path}: truncated header")
            _, version, n_users, n_items, n_classes, nnz = _HEADER.unpack(
                header)
            if version != _FORMAT_VERSION:
                raise DataError(f"{path}: unsupported format version {version}")
            size = os.fstat(fh.fileno()).st_size
            if size != _HEADER.size + 24 * nnz:
                raise DataError(f"{path}: {size} bytes, but a header with "
                                f"nnz = {nnz} needs {_HEADER.size + 24 * nnz}")
            rows, cols, vals = np.fromfile(fh, dtype="<i8",
                                           count=3 * nnz).reshape(3, nnz)
        try:
            return cls(n_users, n_items, n_classes, rows, cols, vals)
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from None


class QuantizationScheme:
    """Strictly increasing positive integer boundaries q_1 < ... < q_V.

    A count c maps to the smallest v with c <= q_v; counts above q_V fall
    into the open top class V+1, so the scheme defines V+1 non-zero classes.
    """

    def __init__(self, boundaries):
        boundaries = np.asarray(boundaries, dtype=np.int64)
        if boundaries.ndim != 1 or boundaries.size == 0:
            raise ConfigError("boundaries must be a non-empty 1-d sequence")
        if boundaries[0] <= 0 or np.any(np.diff(boundaries) <= 0):
            raise ConfigError("boundaries must be positive and strictly increasing")
        self.boundaries = boundaries
        self.boundaries.setflags(write=False)

    @property
    def n_classes(self):
        # boundaries define len(boundaries) closed buckets plus the open top
        return self.boundaries.size + 1

    def class_of(self, counts):
        counts = np.asarray(counts, dtype=np.int64)
        if np.any(counts <= 0):
            raise DataError("counts must be >= 1")
        v = np.searchsorted(self.boundaries, counts, side="left") + 1
        return int(v) if v.ndim == 0 else v


class RawTriplets:
    """Raw positive count triplets plus original-id <-> index maps."""

    def __init__(self, n_users, n_items, rows, cols, counts, user_ids, item_ids):
        self.n_users = n_users
        self.n_items = n_items
        self.rows = rows
        self.cols = cols
        self.counts = counts
        self.user_ids = user_ids
        self.item_ids = item_ids


def load_triplets(path, delimiter=None, skip_header=False):
    """Read (user id, item id, value) rows into RawTriplets.

    Ids may be arbitrary strings; contiguous 0-based indices are assigned in
    first-appearance order.  Values must be positive integers below 2^63,
    written in ASCII as integers or as integral decimals such as 3.0.
    Duplicate (user, item) pairs are rejected.  Lines end at newline bytes
    and must be UTF-8; each rejection is a ParseError naming path and line.
    """
    user_index, item_index = {}, {}
    rows, cols, counts = [], [], []
    seen = set()
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if lineno == 1 and skip_header:
                continue
            try:
                triplet = _parse_line(line, delimiter)
            except ValueError as exc:
                raise ParseError(path, lineno, exc) from None
            if triplet is None:
                continue
            uid, iid, value = triplet
            u = user_index.setdefault(uid, len(user_index))
            i = item_index.setdefault(iid, len(item_index))
            if (u, i) in seen:
                raise ParseError(path, lineno, f"duplicate entry for ({uid}, {iid})")
            seen.add((u, i))
            rows.append(u)
            cols.append(i)
            counts.append(value)
    return RawTriplets(
        len(user_index), len(item_index),
        np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64),
        np.asarray(counts, dtype=np.int64),
        list(user_index), list(item_index))


def _parse_line(line, delimiter):
    """(user id, item id, value) of a triplet line's bytes; None if blank."""
    line = line.decode().strip()  # UnicodeDecodeError is a ValueError
    if not line:
        return None
    parts = line.split(delimiter)
    if len(parts) != 3:
        raise ValueError(f"expected 3 fields, got {len(parts)}")
    uid, iid, raw = (p.strip() for p in parts)
    # the index maps are tab-separated
    if "\t" in uid or "\t" in iid:
        kind, name = ("user", uid) if "\t" in uid else ("item", iid)
        raise ValueError(f"{kind} id {name!r} holds a tab")
    # int() and float() would also read 1_000 and non-ASCII digits
    if "_" in raw or not raw.isascii():
        raise ValueError(f"non-numeric value {raw!r}")
    try:
        value = int(raw)
    except ValueError:
        try:
            number = float(raw)
        except ValueError:
            raise ValueError(f"non-numeric value {raw!r}") from None
        if not number.is_integer():
            raise ValueError(f"value {raw!r} is not a finite integer") from None
        value = int(number)
    if value <= 0:
        raise ValueError(f"non-positive value {value}")
    if value >= 1 << 63:
        raise ValueError(f"value {raw!r} exceeds the int64 range")
    return uid, iid, value


def quantize_counts(triplets, scheme):
    """Map raw counts to ordinal classes under the quantization scheme."""
    vals = scheme.class_of(triplets.counts)
    return OrdinalMatrix(triplets.n_users, triplets.n_items, scheme.n_classes,
                         triplets.rows, triplets.cols, vals)


def matrix_from_classes(triplets, n_classes):
    """Treat the raw values as already-ordinal classes in 1..n_classes."""
    return OrdinalMatrix(triplets.n_users, triplets.n_items, n_classes,
                         triplets.rows, triplets.cols, triplets.counts)


def write_index_map(path, ids):
    with open(path, "w") as fh:
        for idx, orig in enumerate(ids):
            fh.write(f"{orig}\t{idx}\n")


def train_test_split(matrix, test_fraction, seed):
    """Partition the non-zero entries uniformly at random.

    Both outputs keep the full (n_users, n_items, V) shape; held-out entries
    are simply absent from the train matrix.  Test size is
    floor(fraction * nnz), at least 1; requires nnz >= 2.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ConfigError("test_fraction must lie in (0, 1)")
    if matrix.nnz < 2:
        raise DataError("need at least 2 entries to split")
    n_test = max(1, int(np.floor(test_fraction * matrix.nnz)))
    rng = np.random.default_rng(seed)
    perm = rng.permutation(matrix.nnz)
    test_idx = perm[:n_test]
    train_idx = perm[n_test:]

    def subset(idx):
        return OrdinalMatrix(matrix.n_users, matrix.n_items, matrix.n_classes,
                             matrix.rows[idx], matrix.cols[idx], matrix.vals[idx])

    return subset(train_idx), subset(test_idx)
