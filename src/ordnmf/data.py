"""Sparse ordinal matrices: ingestion, quantization, splitting.

The observed matrix stores only non-zero classes (class 0 is implicit).
Entries live in CSR order by user, in three parallel arrays, each int32
while its bound (U, I or V) is below 2^31 and int64 otherwise: 12 bytes per
stored entry in memory below that size.  The .ordmat file holds int64.
Matrices are immutable after construction and safe for shared read access.
"""

import functools
import itertools
import os
import re
import struct

import numpy as np

from .errors import ConfigError, DataError, ParseError

_MAGIC = b"ORDM"
_FORMAT_VERSION = 1
# magic, version, users, items, classes, nnz; then rows, cols, vals as
# nnz little-endian int64 each, whatever dtype the matrix holds them in
_HEADER = struct.Struct("<4sIIIIQ")
# entries per block of class_counts' bincount, which copies its input
_COUNT_BLOCK = 1 << 16


def entry_dtype(bound):
    """dtype of an entry array whose values are at most bound (U, I or V):
    int32 when bound is below 2^31, int64 otherwise."""
    return np.dtype(np.int32 if bound < 1 << 31 else np.int64)


def _entry_arrays(n_users, n_items, n_classes, arrays):
    """rows, cols and vals of a U x I matrix with V classes from arrays,
    any iterable of three, each checked to lie in its range (DataError
    otherwise) and cast to entry_dtype of its bound before the next is
    drawn, so a generator's arrays are read and cast one at a time.  A cast
    is a copy that nothing else holds, so it is made read-only, and
    OrdinalMatrix keeps it as it keeps read-only input."""
    arrays, out = iter(arrays), []
    for low, high, bound, what in (
            (0, n_users - 1, n_users, "user index out of range"),
            (0, n_items - 1, n_items, "item index out of range"),
            (1, n_classes, n_classes, f"classes must lie in 1..{n_classes}")):
        a = np.asarray(next(arrays))
        if a.dtype.kind not in "iu":
            a = a.astype(np.int64)
        if a.size and (a.min() < low or a.max() > high):
            raise DataError(what)
        if a.dtype != entry_dtype(bound):
            a = a.astype(entry_dtype(bound))
            a.setflags(write=False)
        out.append(a)
    return out


def _cell_keys(rows, cols, n_items):
    """uint64 keys rows * n_items + cols, equal only for equal cells and
    ascending in CSR order; below 2^64 while U and I are below 2^32.
    Formed in place by uint64 loops, which cast the (non-negative) indices
    a buffer at a time, so the keys are the only full-size allocation."""
    key = np.empty(np.broadcast_shapes(np.shape(rows), np.shape(cols)),
                   dtype=np.uint64)
    np.multiply(rows, n_items, out=key, dtype=np.uint64, casting="unsafe")
    return np.add(key, cols, out=key, dtype=np.uint64, casting="unsafe")


class OrdinalMatrix:
    """Sparse U x I matrix of ordinal classes in {1..V}; zeros implicit.

    rows/cols/vals are parallel arrays in CSR order (sorted by user then
    item), each of entry_dtype of its bound U, I or V.  `indptr` delimits
    each user's slice.  Input already in CSR order is not sorted, and its
    arrays that are read-only and of that dtype are kept rather than
    copied (the caller must not change them through a writable view).
    """

    def __init__(self, n_users, n_items, n_classes, rows, cols, vals):
        if n_classes < 1:
            raise DataError("need at least one non-zero class")
        # the .ordmat header stores U, I and V in 32 bits each; this also
        # keeps the uint64 sort key rows * I + cols below 2^64
        if max(int(n_users), int(n_items), int(n_classes)) >= 1 << 32:
            raise DataError(f"{n_users} users, {n_items} items, V = "
                            f"{n_classes}: each must be below 2^32")
        rows, cols, vals = _entry_arrays(n_users, n_items, n_classes,
                                         (rows, cols, vals))
        if not (rows.shape == cols.shape == vals.shape) or rows.ndim != 1:
            raise DataError("rows/cols/vals must be parallel 1-d arrays")
        key = _cell_keys(rows, cols, n_items)
        if np.all(key[1:] > key[:-1]):  # CSR order, no duplicates
            rows, cols, vals = (a if not a.flags.writeable else a.copy()
                                for a in (rows, cols, vals))
        else:
            # equal CSR keys are duplicates, so sort stability does not matter
            order = np.argsort(key)
            key = key[order]
            dup = np.flatnonzero(key[1:] == key[:-1])
            del key  # before the gathers
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
        construction (and load) takes memory in nnz only, not in n_users;
        by binary search in the sorted rows, as bincount would copy the
        read-only rows (numpy 2.4); the needles take rows' dtype, or
        searchsorted would cast rows to theirs."""
        needles = np.arange(self.n_users + 1, dtype=self.rows.dtype)
        return np.searchsorted(self.rows, needles)

    @property
    def nnz(self):
        return self.rows.size

    @property
    def class_counts(self):
        """Number of stored entries per class 1..V (length V), counted
        _COUNT_BLOCK entries at a time, as bincount copies its input."""
        counts = np.zeros(self.n_classes + 1, dtype=np.int64)
        for start in range(0, self.nnz, _COUNT_BLOCK):
            counts += np.bincount(self.vals[start:start + _COUNT_BLOCK],
                                  minlength=self.n_classes + 1)
        return counts[1:]

    def block_entries(self, users):
        """(row, at): the users' entries (any order, repeats allowed) by
        block row row[k] and CSR position at[k], in block then CSR order."""
        users = np.asarray(users, dtype=np.int64)
        starts = self.indptr[users]
        lengths = self.indptr[users + 1] - starts
        # entries are stored in CSR order, so each row's are one slice
        before = np.cumsum(lengths) - lengths
        at = (np.repeat(starts - before, lengths)
              + np.arange(int(lengths.sum())))
        return np.repeat(np.arange(users.size), lengths), at

    def first_shared_entry(self, other):
        """(user, item) of this matrix's first entry, in CSR order, that
        other holds too; None when they share none.  Same shape assumed."""
        # other's ascending cell keys, then one above all (see _cell_keys)
        theirs = np.append(_cell_keys(other.rows, other.cols, self.n_items),
                           np.iinfo(np.uint64).max)
        mine = _cell_keys(self.rows, self.cols, self.n_items)
        hit = np.flatnonzero(theirs[np.searchsorted(theirs, mine)] == mine)
        if hit.size == 0:
            return None
        return int(self.rows[hit[0]]), int(self.cols[hit[0]])

    def save(self, path):
        """Write the versioned little-endian binary format, widening each
        array to int64 as it is written."""
        with open(path, "wb") as fh:
            fh.write(_HEADER.pack(_MAGIC, _FORMAT_VERSION, self.n_users,
                                  self.n_items, self.n_classes, self.nnz))
            for a in (self.rows, self.cols, self.vals):
                a.astype("<i8", copy=False).tofile(fh)

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
            try:
                # each array read, checked and cast before the next is read
                arrays = _entry_arrays(n_users, n_items, n_classes, (
                    _read_entries(fh, nnz) for _ in range(3)))
                return cls(n_users, n_items, n_classes, *arrays)
            except DataError as exc:
                raise DataError(f"{path}: {exc}") from None


def _read_entries(fh, nnz):
    """The next nnz little-endian int64 values of fh, read-only, so that
    a matrix keeps them uncopied when int64 is their entry_dtype."""
    a = np.fromfile(fh, dtype="<i8", count=nnz)
    a.setflags(write=False)
    return a


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
    and must be UTF-8; each rejection is a ParseError naming path and line,
    the first in file order when there are several.

    The file is read once, in runs of whole lines, and each run is walked
    in file order.  A clean line is user, separator, item, separator,
    value, an optional "\r" and the newline.  The separator is one space or
    tab, or the delimiter when one is given; each id is non-empty and holds
    no whitespace, no delimiter and no byte that is not UTF-8; the value is
    1 to 18 ASCII digits, the first not 0.  On such a line _parse_line's
    decode, strip and split change nothing and it accepts the value, so
    each stretch of clean lines is split in one pass.  Every other line
    goes through _parse_line, so that every line is accepted or rejected
    as _parse_line alone would.  No line is clean when the delimiter is
    longer than one character, "\n", "\r" or an ASCII digit.
    """
    clean = _clean_line(delimiter)
    users, items = {}, {}  # id -> index, in first-appearance order
    empty = np.zeros(0, dtype=np.int64)
    parts, error = [(empty,) * 4], None  # (lines, rows, cols, values)
    with open(path, "rb") as fh:
        first_line = 1
        if skip_header:
            fh.readline()
            first_line = 2
        for first_line, data in _line_runs(fh, first_line):
            lines, uids, iids, values, error = _parse_lines(
                data, clean, delimiter, path, first_line)
            parts.append((lines, _index(users, uids), _index(items, iids),
                          values))
            if error is not None:
                break
    lines, rows, cols, values = map(np.concatenate, zip(*parts))
    user_ids, item_ids = list(users), list(items)
    dup = _first_duplicate(rows, cols, len(item_ids))
    if dup is not None:
        # entries stop before a failing line, so this one comes first
        raise ParseError(path, int(lines[dup]),
                         f"duplicate entry for ({user_ids[rows[dup]]}, "
                         f"{item_ids[cols[dup]]})")
    if error is not None:
        raise error
    return RawTriplets(len(user_ids), len(item_ids), rows, cols, values,
                       user_ids, item_ids)


# bytes read at a time; a run of lines takes memory in proportion, while
# the whole file would take ~40 bytes per field in Python strings at once
_RUN_BYTES = 1 << 18


def _line_runs(fh, first_line):
    """(number of its first line, bytes) of each run of whole lines in fh,
    read _RUN_BYTES at a time; only the last may lack a final newline."""
    rest = b""
    while block := fh.read(_RUN_BYTES):
        block = rest + block
        cut = block.rfind(b"\n") + 1
        if cut:
            yield first_line, block[:cut]
            first_line += block.count(b"\n", 0, cut)
        rest = block[cut:]
    if rest:
        yield first_line, rest


# the characters that str.isspace, str.strip and str.split take for
# whitespace: re's \s, spelled out, because a class that holds \s matches
# ~45% slower than one made of characters and ranges only
_WHITESPACE = ("\t\n\x0b\x0c\r\x1c-\x1f \x85\xa0\u1680\u2000-\u200a"
               "\u2028\u2029\u202f\u205f\u3000")


def _clean_line(delimiter):
    """Regex that matches the longest stretch of clean lines (see
    load_triplets) at a position in a run decoded with surrogateescape,
    which turns each byte that is not UTF-8 into a lone surrogate; ids
    exclude those.  A value of at most 18 digits is below 2^63.  The empty
    pattern when no line is clean: a digit delimiter could sit inside the
    value, one that is part of a line end would split it, and no UTF-8
    line holds a lone surrogate.
    """
    if delimiter is None:
        sep, excluded = "[ \t]", ""
    elif len(delimiter) == 1 and not (delimiter in "\n\r"
                                      or "0" <= delimiter <= "9"
                                      or "\ud800" <= delimiter <= "\udfff"):
        sep = excluded = re.escape(delimiter)
    else:
        return re.compile("")
    field = f"[^{_WHITESPACE}{excluded}\ud800-\udfff]+"
    return re.compile(f"(?:{field}{sep}{field}{sep}[1-9][0-9]{{0,17}}\r?\n)*")


def _parse_lines(data, clean, delimiter, path, first_line):
    """(line numbers, user ids, item ids, values, error) of data, whole
    lines whose first is line first_line, in file order.  clean is
    _clean_line(delimiter).  error is the ParseError of the first line
    that fails, or None; the entries stop before that line."""
    text = data.decode(errors="surrogateescape")
    users, items, values, blank = [], [], [], []
    pos, line, error = 0, first_line, None
    while pos < len(text):
        end = clean.match(text, pos).end()
        if end > pos:  # split the stretch of clean lines in one pass
            stretch = text[pos:end]
            fields = (stretch.split() if delimiter is None
                      else stretch.replace("\n", delimiter).split(delimiter))
            n = len(fields) // 3
            users += fields[0:3 * n:3]
            items += fields[1:3 * n:3]
            values += fields[2:3 * n:3]  # with the "\r" of a CRLF line
            pos, line = end, line + n
            continue
        end = text.find("\n", pos) + 1 or len(text)
        try:
            # the line's bytes, its newline included, as iterating over the
            # file yields them: a decode error names the same position
            triplet = _parse_line(
                text[pos:end].encode("utf-8", "surrogateescape"), delimiter)
        except ValueError as exc:
            error = ParseError(path, line, exc)
            break
        if triplet is None:
            blank.append(line - first_line)
        else:
            users.append(triplet[0])
            items.append(triplet[1])
            values.append(str(triplet[2]))
        pos, line = end, line + 1
    # digits and "\r": the separator " " skips any whitespace
    values = np.fromstring(" ".join(values), dtype=np.int64, sep=" ")
    lines = np.delete(np.arange(first_line, line), blank)
    return lines, users, items, values, error


def _index(position, ids):
    """Index of each of ids in position, an id -> index dict in
    first-appearance order that the ids not in it yet join."""
    fresh = list(itertools.filterfalse(position.__contains__,
                                       dict.fromkeys(ids)))
    position.update(zip(fresh, itertools.count(len(position))))
    return np.fromiter(map(position.__getitem__, ids), dtype=np.int64,
                       count=len(ids))


def _first_duplicate(rows, cols, n_items):
    """Position of the first entry whose (row, col) an earlier entry holds;
    None when all pairs are distinct."""
    key = _cell_keys(rows, cols, n_items)
    if not np.any(np.diff(np.sort(key)) == 0):
        return None
    order = np.argsort(key, kind="stable")
    key = key[order]
    return int(order[1:][key[1:] == key[:-1]].min())


def _parse_line(line, delimiter):
    """(user id, item id, value) of a triplet line's bytes; None if blank."""
    line = line.decode().strip()  # UnicodeDecodeError is a ValueError
    if not line:
        return None
    parts = line.split(delimiter)
    if len(parts) != 3:
        raise ValueError(f"expected 3 fields, got {len(parts)}")
    uid, iid, raw = (p.strip() for p in parts)
    # the index maps hold one "id<TAB>index" per line, and str.splitlines
    # breaks lines at \r, \x0b, \x0c, \x1c-\x1e, \x85, \u2028 and \u2029 too
    for kind, name in (("user", uid), ("item", iid)):
        if "\t" in name:
            raise ValueError(f"{kind} id {name!r} holds a tab")
        if len(name.splitlines()) > 1:  # stripped: no break at either end
            raise ValueError(f"{kind} id {name!r} holds a line break")
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


def quantize_counts(triplets, boundaries=None):
    """OrdinalMatrix of the triplets' counts; the one place where counts
    become classes and V is decided.

    With boundaries, strictly increasing positive integers q_1 < ... < q_n,
    a count c gets the smallest v with c <= q_v, and counts above q_n the
    open top class n + 1, so V = n + 1.  Without, the counts are the
    classes and V is the largest of them (1 when there are none).
    """
    counts = triplets.counts
    if np.any(counts <= 0):
        raise DataError("counts must be >= 1")
    if boundaries is None:
        vals, n_classes = counts, int(counts.max()) if counts.size else 1
    else:
        try:
            boundaries = np.asarray(boundaries, dtype=np.int64)
        except OverflowError:
            raise ConfigError("boundaries must lie in the int64 range") from None
        if boundaries.ndim != 1 or boundaries.size == 0:
            raise ConfigError("boundaries must be a non-empty 1-d sequence")
        if boundaries[0] <= 0 or np.any(np.diff(boundaries) <= 0):
            raise ConfigError("boundaries must be positive and strictly increasing")
        vals = np.searchsorted(boundaries, counts, side="left") + 1
        n_classes = boundaries.size + 1
    return OrdinalMatrix(triplets.n_users, triplets.n_items, n_classes,
                         triplets.rows, triplets.cols, vals)


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
        idx.sort()  # CSR order, so the matrix keeps the gathered arrays
        arrays = [a[idx] for a in (matrix.rows, matrix.cols, matrix.vals)]
        for a in arrays:
            a.setflags(write=False)
        return OrdinalMatrix(matrix.n_users, matrix.n_items, matrix.n_classes,
                             *arrays)

    return subset(train_idx), subset(test_idx)
