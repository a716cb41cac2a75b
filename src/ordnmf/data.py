"""Sparse ordinal matrices: ingestion, quantization, splitting.

The observed matrix stores only non-zero classes (class 0 is implicit).
Entries live in CSR order by user, in three parallel arrays, each int32
while its bound (U, I or V) is below 2^31 and int64 otherwise: 12 bytes per
stored entry in memory below that size.  The .ordmat file holds int64.
Matrices are immutable after construction and safe for shared read access.
"""

import functools
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
        by binary search in the sorted rows, as bincount would cast the
        int32 rows to an intp copy (numpy 2.4); the needles take rows'
        dtype, or searchsorted would cast rows to theirs."""
        needles = np.arange(self.n_users + 1, dtype=self.rows.dtype)
        return np.searchsorted(self.rows, needles)

    @property
    def nnz(self):
        return self.rows.size

    @property
    def class_counts(self):
        """Number of stored entries per class 1..V (length V), by np.add.at,
        which indexes by vals as they are, where bincount casts int32 vals
        to an intp copy (8 bytes per entry)."""
        counts = np.zeros(self.n_classes + 1, dtype=np.int64)
        np.add.at(counts, self.vals, 1)
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

    @functools.cached_property
    def _cell_table(self):
        """The stored cells' keys (see _cell_keys), which ascend in CSR
        order, then one above all, a sentinel for misses.  Built on first
        use and kept, like indptr, as classes_at runs once per ranking
        block."""
        keys = np.append(_cell_keys(self.rows, self.cols, self.n_items),
                         np.iinfo(np.uint64).max)
        keys.setflags(write=False)
        return keys

    def classes_at(self, rows, cols):
        """Class stored at each cell (rows, cols), which broadcast, or 0
        where none is stored; rows and cols are assumed to lie in 0..U-1
        and 0..I-1.  One binary search per cell in _cell_table."""
        keys = self._cell_table
        cells = _cell_keys(rows, cols, self.n_items)
        at = np.searchsorted(keys, cells)
        hit = keys[at] == cells  # never at the sentinel: keys < U * I
        classes = np.zeros(cells.shape, dtype=self.vals.dtype)
        classes[hit] = self.vals[at[hit]]
        return classes

    def first_shared_entry(self, other):
        """(user, item) of this matrix's first entry, in CSR order, that
        other holds too; None when they share none.  Same shape assumed.
        Both matrices are in CSR order, so that cell is also the first of
        other's entries that this matrix holds: the lookup runs in this
        matrix's table (see classes_at), which evaluate's ranking against
        this, the test matrix, reuses.  other's entries are looked up a
        block (inference.blocks) at a time, so the scratch is a block's."""
        from .inference import blocks  # inference imports this module
        for block in blocks(other.nnz):
            hit = np.flatnonzero(self.classes_at(other.rows[block],
                                                 other.cols[block]))
            if hit.size:
                at = block.start + int(hit[0])
                return int(other.rows[at]), int(other.cols[at])
        return None

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
    decode, strip and split change nothing and it accepts the value, so a
    run's clean lines are split by numpy in one pass over their bytes.
    Every other line goes through _parse_line, so that every line is
    accepted or rejected as _parse_line alone would.  No line is clean when
    the delimiter is longer than one character, "\n", "\r" or an ASCII
    digit.

    Each id, from either path, becomes a one-word integer key (see
    _IdKeys), and each side's indices, in entry_dtype of its number of ids,
    come from one sort of its keys at the end.  No line numbers are kept
    per entry: entry e is on line e + (first line) + (blank lines before
    it), and only the blank lines are recorded.  So the reader holds a few
    words per line and each distinct id over 7 bytes once: its traced peak
    is ~43 bytes per line on 250k lines of 13 bytes, and 53-62 on lines of
    the Taste Profile's 40- and 18-byte ids.
    """
    clean = _clean_line(delimiter)
    users, items = _IdKeys(), _IdKeys()
    values, blank, error = [np.zeros(0, dtype=np.int64)], [], None
    with open(path, "rb") as fh:
        first_line = 1
        if skip_header:
            fh.readline()
            first_line = 2
        base, entries = first_line, 0
        for first_line, data in _line_runs(fh, first_line):
            view, user, item, run_values, run_blank, error = _parse_lines(
                data, clean, delimiter, path, first_line)
            users.add(view, *user)
            items.add(view, *item)
            values.append(run_values)
            if run_blank:
                blank.append(np.add(run_blank, entries))
            entries += run_values.size
            if error is not None:
                break
    values = np.concatenate(values)
    rows, user_ids = users.indices()
    cols, item_ids = items.indices()
    dup = _first_duplicate(rows, cols, len(item_ids))
    if dup is not None:
        # entries stop before a failing line, so this one comes first
        line = base + dup + sum(np.count_nonzero(b <= dup) for b in blank)
        raise ParseError(path, line, f"duplicate entry for "
                                     f"({user_ids[rows[dup]]}, "
                                     f"{item_ids[cols[dup]]})")
    if error is not None:
        raise error
    return RawTriplets(len(user_ids), len(item_ids), rows, cols, values,
                       user_ids, item_ids)


# bytes read at a time; a run's arrays take memory in proportion, and at
# 64 KiB each numpy temporary of a run of short lines stays below glibc's
# 128 KiB mmap threshold, so it reuses heap pages instead of faulting in
# fresh ones
_RUN_BYTES = 1 << 16


def _line_runs(fh, first_line):
    """(number of its first line, bytes) of each run of whole lines in fh,
    read _RUN_BYTES at a time; only the last may lack a final newline.  A
    line longer than a read is kept in pieces and joined once, so the time
    is linear in its length."""
    pieces = []
    while block := fh.read(_RUN_BYTES):
        cut = block.rfind(b"\n") + 1
        if not cut:
            pieces.append(block)
            continue
        run = b"".join([*pieces, block[:cut]])
        yield first_line, run
        first_line += run.count(b"\n")
        pieces = [block[cut:]]
    if rest := b"".join(pieces):
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


_PAD = bytes(8)
# _LOW[n]: the low n bytes of a little-endian word
_LOW = np.array([(1 << 8 * n) - 1 for n in range(9)], dtype=np.uint64)
_ZEROS = 0x3030303030303030  # eight ASCII "0"


def _parse_lines(data, clean, delimiter, path, first_line):
    """(view, users, items, values, blank, error) of data, whole lines
    whose first is line first_line, with one entry for each line that
    holds one, in file order.  clean is _clean_line(delimiter).  view reads
    the little-endian word at each byte of a buffer that holds the ids'
    UTF-8 bytes between 8 NUL bytes at each end; users and items are the
    (starts, lengths) of each entry's id in it.  blank is the number of
    entries before each blank line.  error is the ParseError of the first
    line that fails, or None; the entries stop before that line."""
    text = data.decode(errors="surrogateescape")
    stretches, parsed, blank = [], [], []  # parsed: (entry, uid, iid, value)
    pos, line, n, error = 0, first_line, 0, None
    while pos < len(text):
        end = clean.match(text, pos).end()
        if end > pos:  # a stretch of clean lines
            stretches.append(text[pos:end])
            count = text.count("\n", pos, end)
            pos, line, n = end, line + count, n + count
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
            blank.append(n)
        else:
            parsed.append((n, *triplet))
            n += 1
        pos, line = end, line + 1
    lined = "".join(stretches).encode()
    ids = [s.encode() for _, uid, iid, _ in parsed for s in (uid, iid)]
    buf = b"".join([_PAD, lined, *ids, _PAD])
    view = np.ndarray((len(buf) - 7,), "<u8", buf, strides=(1,))
    fields = (_split_clean(buf, view, len(lined), delimiter) if lined
              else [np.zeros(0, dtype=np.int64)] * 5)
    if parsed:  # merged with the clean lines' fields in file order
        size = np.fromiter(map(len, ids), dtype=np.int64, count=len(ids))
        offset = 8 + len(lined) + np.cumsum(size) - size
        entry, _, _, value = zip(*parsed)
        is_parsed = np.zeros(n, dtype=bool)
        is_parsed[list(entry)] = True
        for k, own in enumerate([offset[0::2], size[0::2], offset[1::2],
                                 size[1::2], np.array(value, np.int64)]):
            merged = np.empty(n, dtype=np.int64)
            merged[~is_parsed] = fields[k]
            merged[is_parsed] = own
            fields[k] = merged
    return view, fields[0:2], fields[2:4], fields[4], blank, error


def _split_clean(buf, view, size, delimiter):
    """[user starts, user lengths, item starts, item lengths, values] of
    the clean lines in bytes 8 .. 8 + size of buf, which view reads (see
    _parse_lines).  Ids hold no separator and no newline, so the last byte
    of each separator and each newline mark three places a line."""
    sep = (delimiter or " \t").encode()
    width = 1 if delimiter is None else len(sep)
    a = np.frombuffer(buf, np.uint8)
    marks = a[8:8 + size] == 10
    for tail in sep if delimiter is None else sep[-1:]:
        marks |= a[8:8 + size] == tail
    at = np.flatnonzero(marks) + 8
    for back in range(1, width):  # a delimiter of several UTF-8 bytes
        at = at[(a[at] == 10) | (a[at - back] == sep[-1 - back])]
    at = at.reshape(-1, 3)
    users = np.concatenate(([8], at[:-1, 2] + 1))
    ends = at[:, 2] - (a[at[:, 2] - 1] == 13)  # before a CRLF line's "\r"
    return [users, at[:, 0] - width + 1 - users, at[:, 0] + 1,
            at[:, 1] - width - at[:, 0],
            _digits(view, ends, ends - at[:, 1] - 1)]


def _digits(view, ends, lengths):
    """int64 value of each run of lengths[k] (1 to 18) ASCII digits that
    ends before byte ends[k] of view's buffer, which holds 8 bytes before
    them: eight digits per word, by SWAR (Lemire, "Fast integer parsing",
    2018), with the digits before a short run's first taken as "0"."""
    values = np.zeros(ends.size, dtype=np.uint64)
    for chunk in range((int(lengths.max(initial=0)) + 7) // 8):
        low = _LOW[8 - np.clip(lengths - 8 * chunk, 0, 8)]
        w = view[np.maximum(ends - 8 * chunk - 8, 0)]
        w = (w & ~low | _ZEROS & low) - _ZEROS  # a digit in each byte
        w = w * 10 + (w >> 8)  # two-digit numbers in bytes 0, 2, 4, 6
        w = ((w & 0xFF000000FF) * (100 + (1000000 << 32))
             + (w >> 16 & 0xFF000000FF) * (1 + (10000 << 32))) >> 32
        values += w * 10 ** (8 * chunk)
    return values.view(np.int64)


class _IdKeys:
    """One side's ids as exact integer keys, in entry order, then their
    first-appearance indices.

    An id of at most 7 UTF-8 bytes is its own key: its length in the low
    byte, then its bytes, so that ids that differ only by trailing NULs (a
    and a\0) differ.  A wider id is numbered by one dict of its bytes, in
    first-seen order, and its key is (number << 8) | 0xFF, which no short
    key is (their low byte is at most 7); so every key is one word, and a
    long id costs only its own bytes, once per distinct id.
    """

    def __init__(self):
        self.keys = [np.zeros(0, dtype=np.uint64)]  # an array per run
        self.wide = {}  # bytes of each distinct wide id -> its number

    def add(self, view, starts, lengths):
        """Key the ids at (starts, lengths) in view's buffer."""
        keys = view[starts] & _LOW[np.minimum(lengths, 7)]
        keys <<= 8
        keys |= (lengths & 7).astype(np.uint64)
        self.keys.append(keys)
        at = np.flatnonzero(lengths >= 8)
        if at.size:
            wide, buf = self.wide, view.base
            first = starts[at]
            numbers = [wide.setdefault(buf[s:e], len(wide)) for s, e in zip(
                first.tolist(), (first + lengths[at]).tolist())]
            keys[at] = np.array(numbers, dtype=np.uint64) << 8 | 0xFF

    def indices(self):
        """(index of each entry's id, in entry_dtype of the number of ids,
        and the ids in first-appearance order), from one sort of the keys;
        each id is decoded once, and each wide id's bytes are freed as its
        str is made."""
        wide_ids = []  # decoded before the sort: only the keys are held
        while self.wide:  # last in first out
            wide_ids.append(self.wide.popitem()[0].decode())
        self.wide = {}  # frees the emptied table
        wide_ids = np.array(wide_ids[::-1], dtype=object)
        keys = np.concatenate(self.keys)
        self.keys.clear()
        order = np.argsort(keys)
        keys = keys[order]
        firsts = np.flatnonzero(np.concatenate(
            ([keys.size > 0], keys[1:] != keys[:-1])))
        first = np.minimum.reduceat(order, firsts)  # entry of each id
        rank = np.argsort(first)
        heads = keys[firsts[rank]]
        del keys
        narrow = (heads & 0xFF) != 0xFF
        ids = np.empty(heads.size, dtype=object)
        ids[narrow] = _decode(heads[narrow])
        ids[~narrow] = wide_ids[heads[~narrow] >> 8]
        index = np.empty(rank.size, dtype=entry_dtype(rank.size))
        index[rank] = np.arange(rank.size)
        rows = np.empty(order.size, dtype=index.dtype)
        rows[order] = np.repeat(index, np.diff(firsts, append=order.size))
        return rows, ids.tolist()


def _decode(keys):
    """The ids of at most 7 bytes whose keys (see _IdKeys) are keys: each
    key's bytes after its length byte, up to its length, decoded at once
    with a newline before each, which no id holds."""
    raw = keys.astype("<u8").view(np.uint8).reshape(-1, 8)
    length = raw[:, 0].astype(np.int64)
    raw[:, 0] = 10
    keep = np.arange(8) <= length[:, None]
    return raw[keep].tobytes().decode().split("\n")[1:]


def _first_duplicate(rows, cols, n_items):
    """Position of the first entry whose (row, col) an earlier entry holds;
    None when all pairs are distinct."""
    key = _cell_keys(rows, cols, n_items)
    key.sort()
    if not np.any(key[1:] == key[:-1]):
        return None
    key = _cell_keys(rows, cols, n_items)
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
    """One "id<TAB>index" line per id, in UTF-8 as load_triplets reads."""
    with open(path, "w", encoding="utf-8") as fh:
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
