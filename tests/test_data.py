"""Ingestion, quantization, splitting, and the binary format."""

import sys
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ordnmf import data as data_module
from ordnmf import inference
from ordnmf.data import (OrdinalMatrix, RawTriplets, entry_dtype,
                         load_triplets, quantize_counts, train_test_split,
                         write_index_map)
from ordnmf.errors import ConfigError, DataError, OrdnmfError, ParseError

from oracles import (damaged_ordmat, load_triplets_by_line, ordmat_bytes,
                     widened)

PLAYCOUNT_BOUNDARIES = [1, 2, 5, 10, 20, 50, 100, 200, 500]
# pieces of triplet fields, valid and not: ids, digits, signs, exponents,
# a byte that is not UTF-8 and a UTF-8 Arabic-Indic digit
FIELD_PIECES = [b"a", b"b", b"1", b"30", b"0", b"-", b".", b"e", b"_", b"inf",
                b"\xff", b"\xd9\xa3", b" ", b"\r"]
FIELD = (st.lists(st.sampled_from(FIELD_PIECES), max_size=4).map(b"".join)
         | (st.integers(-2**64, 2**64) | st.integers(2**63 - 2, 2**63 + 1)).map(
             lambda n: str(n).encode())
         | st.floats().map(lambda x: repr(x).encode()))
# fields of lines the bulk reader splits itself: a few ids, so that pairs
# repeat, some of them not ASCII, some holding NUL, some of 7-9 and 15-17
# bytes, at the edges of one- and two-word keys, and values of up to 20
# digits, so that some exceed its 18; an empty id and some values need the
# per-line parse
CLEAN_ID = (st.sampled_from([b"a", b"b", b"u1", b"", "\u00e9".encode(),
                             b"a\x00", b"abcdefg", b"abcdefg\x00",
                             b"abcdefgh", b"abcdefgh\x00",
                             b"abcdefghijklmnop", b"abcdefghijklmnop\x00"])
            | st.text("ab1_-.+\u00e9\u20ac\x00", min_size=1, max_size=3).map(
                str.encode)
            | st.sampled_from([7, 8, 9, 15, 16, 17]).flatmap(
                lambda n: st.lists(st.sampled_from([b"a", b"\x00"]),
                                   min_size=n, max_size=n).map(b"".join)))
CLEAN_VALUE = (st.integers(1, 10**20).map(lambda n: str(n).encode())
               | st.sampled_from([b"0", b"00", b"007", b"10",
                                  b"999999999999999999",
                                  b"1000000000000000000",
                                  b"9223372036854775808"]))
# bytes that make a clean line need the per-line parse: whitespace that
# str.strip drops, a no-break space, a delimiter, a sign, a decimal point
STRAY_BYTES = [b"\r", b" ", b"\t", b"\x0b", b"\x1c", b"\xc2\xa0", b",", b"+",
               b"."]
# one delimiter for each branch of the clean-line rule: whitespace, one
# ASCII or non-ASCII character, several characters (one that ends in
# whitespace, one that overlaps itself), and ones that make no line clean (a
# digit, either half of a line end)
DELIMITERS = [None, ",", "\t", ";", "\u00a7", "::", ", ", "aa", "1", "\r",
              "\n"]


def separators(delimiter):
    """Strategy for the bytes between fields under delimiter."""
    if delimiter is None:
        return st.sampled_from([b" ", b"\t"])
    return st.just(delimiter.encode())


def make_matrix(dense, n_classes=None):
    dense = np.asarray(dense)
    rows, cols = np.nonzero(dense)
    return OrdinalMatrix(dense.shape[0], dense.shape[1],
                         n_classes or int(dense.max()), rows, cols,
                         dense[rows, cols])


@st.composite
def row_blocks(draw):
    """A small class matrix (often without entries, or with empty rows)
    and a list of its users that may repeat and come in any order."""
    U, I = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    dense = draw(hnp.arrays(np.int64, (U, I), elements=st.sampled_from(
        [0, 0, 0, 1, 2])))
    users = draw(st.lists(st.integers(0, U - 1), max_size=2 * U + 1))
    return dense, users


@st.composite
def cell_blocks(draw):
    """row_blocks' class matrix and users, and a row of items for each
    user (the same count for every user, repeats allowed)."""
    dense, users = draw(row_blocks())
    items = draw(hnp.arrays(np.int64, (len(users), draw(st.integers(0, 5))),
                            elements=st.integers(0, dense.shape[1] - 1)))
    return dense, users, items


@st.composite
def matrix_pairs(draw):
    """Two small class matrices of one shape, either disjoint or drawn
    independently, so that they often share entries."""
    U, I = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    cells = hnp.arrays(np.int64, (U, I), elements=st.sampled_from([0, 0, 1, 2]))
    mine, theirs = draw(cells), draw(cells)
    if draw(st.booleans()):
        theirs[mine > 0] = 0
    return make_matrix(mine, n_classes=2), make_matrix(theirs, n_classes=2)


def first_shared_bruteforce(mine, theirs):
    """(user, item) of mine's first entry in CSR order whose cell theirs
    holds; None when there is none."""
    cells = set(zip(theirs.rows.tolist(), theirs.cols.tolist()))
    return next((cell for cell in zip(mine.rows.tolist(), mine.cols.tolist())
                 if cell in cells), None)


class TestLoadTriplets:
    # bytes per line of the reader's traced peak on a file of short ids of
    # the benchmark's shape, and on one of the Taste Profile's wide ids
    PEAK_PER_LINE = 90
    WIDE_PEAK_PER_LINE = 90

    def test_readback(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,x,3\na,y,1\nb,x,2\n")
        t = load_triplets(p, delimiter=",")
        assert t.n_users == 2 and t.n_items == 2
        assert t.counts.tolist() == [3, 1, 2]
        assert t.user_ids == ["a", "b"] and t.item_ids == ["x", "y"]

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        t = load_triplets(p, delimiter=",")
        assert t.n_users == 0 and t.n_items == 0 and t.counts.size == 0

    def test_duplicate_pair_rejected(self, tmp_path):
        p = tmp_path / "dup.csv"
        p.write_text("a,x,3\na,x,1\n")
        with pytest.raises(ParseError) as info:
            load_triplets(p, delimiter=",")
        assert str(info.value) == f"{p}: line 2: duplicate entry for (a, x)"

    def test_malformed_row_names_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,x,3\na,y\n")
        with pytest.raises(ParseError) as info:
            load_triplets(p, delimiter=",")
        assert str(info.value) == f"{p}: line 2: expected 3 fields, got 2"

    def test_nonpositive_value(self, tmp_path):
        p = tmp_path / "neg.csv"
        p.write_text("a,x,0\n")
        with pytest.raises(ParseError) as info:
            load_triplets(p, delimiter=",")
        assert str(info.value) == f"{p}: line 1: non-positive value 0"

    def test_non_utf8_line_rejected(self, tmp_path):
        p = tmp_path / "latin1.csv"
        p.write_bytes(b"u1,i1,3\nu\xff2,i2,4\n")
        with pytest.raises(ParseError) as info:
            load_triplets(p, delimiter=",")
        assert str(info.value) == (
            f"{p}: line 2: 'utf-8' codec can't decode byte 0xff in position "
            f"1: invalid start byte")
        assert info.value.line_number == 2

    @pytest.mark.parametrize("raw, message", [
        ("2.7", "value '2.7' is not a finite integer"),
        ("inf", "value 'inf' is not a finite integer"),
        ("nan", "value 'nan' is not a finite integer"),
        ("12345678901234567.5", "value '12345678901234567.5' is not a "
                                "finite integer"),
        ("1e30", "value '1e30' exceeds the int64 range"),
        ("1e999999999", "value '1e999999999' exceeds the int64 range"),
        # past int()'s default digit limit, with or without ".0"
        pytest.param("1" * 5000, f"value '{'1' * 5000}' exceeds the int64 "
                                 "range", id="5000-digits"),
        pytest.param("1" * 5000 + ".0", f"value '{'1' * 5000}.0' exceeds "
                                        "the int64 range",
                     id="5000-digits.0"),
        ("9223372036854775808", "value '9223372036854775808' exceeds the "
                                "int64 range"),
        ("9223372036854775808.0", "value '9223372036854775808.0' exceeds "
                                  "the int64 range"),
        ("three", "non-numeric value 'three'"),
        # decimal.Decimal reads these, float does not
        ("sNaN", "non-numeric value 'sNaN'"),
        ("NaN123", "non-numeric value 'NaN123'"),
        ("1_000", "non-numeric value '1_000'"),
        ("1_0.0", "non-numeric value '1_0.0'"),
        ("\u0663", "non-numeric value '\u0663'"),  # Arabic-Indic 3
        ("\uff15", "non-numeric value '\uff15'"),  # fullwidth 5
        # a whole line 2: the tab would split the user's index map line
        ("b\tc,y,3", "user id 'b\\tc' holds a tab"),
        ("b,y\tz,3", "item id 'y\\tz' holds a tab"),
        # str.splitlines would split the map line at these; the bulk
        # reader leaves each such line to _parse_line
        ("a\x1cb,y,3", "user id 'a\\x1cb' holds a line break"),
        ("b,c\rd,3", "item id 'c\\rd' holds a line break"),
        ("b\u2028c,y,3", "user id 'b\\u2028c' holds a line break"),
        ("b,y\x85z,3", "item id 'y\\x85z' holds a line break"),
    ])
    def test_non_integer_value_rejected(self, tmp_path, raw, message):
        """raw is line 2's value, or the whole line when it holds a comma."""
        p = tmp_path / "t.csv"
        line = raw if "," in raw else f"b,y,{raw}"
        p.write_text(f"a,x,3\n{line}\n", encoding="utf-8")
        with pytest.raises(ParseError) as info:
            load_triplets(p, delimiter=",")
        assert str(info.value) == f"{p}: line 2: {message}"
        assert info.value.line_number == 2

    def test_integral_values_accepted(self, tmp_path):
        p = tmp_path / "t.csv"
        # decimals above 2^53 are read exactly, not rounded through float
        p.write_text("a,x,3.0\na,y,4\nb,x,1e2\nb,y,9223372036854775807\n"
                     "c,x,9007199254740993.0\nc,y,9223372036854775807.0\n"
                     "d,x,90071992547409930e-1\n")
        t = load_triplets(p, delimiter=",")
        assert t.counts.tolist() == [3, 4, 100, 2**63 - 1, 2**53 + 1,
                                     2**63 - 1, 2**53 + 1]

    def test_header_skip_and_whitespace_delimiter(self, tmp_path):
        p = tmp_path / "ws.txt"
        p.write_text("user item count\na x 3\nb y 4\n")
        t = load_triplets(p, skip_header=True)
        assert t.n_users == 2 and t.counts.tolist() == [3, 4]
        # an empty delimiter is the argument's fault, found before the file
        # is opened
        with pytest.raises(ConfigError, match="^delimiter: ") as info:
            load_triplets(tmp_path / "missing.txt", delimiter="")
        assert "''" in str(info.value)

    @settings(max_examples=300, deadline=None, suppress_health_check=[
        HealthCheck.function_scoped_fixture])
    @given(st.data(), st.sampled_from(DELIMITERS))
    def test_random_lines_load_or_name_path_and_line(self, tmp_path, data,
                                                     delimiter):
        sep = data.draw(separators(delimiter))
        fields = st.lists(FIELD, min_size=3, max_size=3) | st.lists(FIELD)
        lines = data.draw(st.lists(fields.map(sep.join) | st.binary(),
                                   max_size=4))
        p = tmp_path / "fuzz.csv"
        p.write_bytes(b"\n".join([sep.join([b"a", b"x", b"3"]), *lines]))
        try:
            load_triplets(p, delimiter=delimiter)
        except OrdnmfError as exc:
            assert str(exc).startswith(f"{p}: line ")

    @staticmethod
    def outcome(load, path, **kwargs):
        """What a reader makes of path: its triplets, or its ParseError."""
        try:
            t = load(path, **kwargs)
        except ParseError as exc:
            return str(exc), exc.line_number
        assert t.counts.dtype == np.int64
        if load is load_triplets:
            assert t.rows.dtype == entry_dtype(t.n_users)
            assert t.cols.dtype == entry_dtype(t.n_items)
        return (t.n_users, t.n_items, t.rows.tolist(), t.cols.tolist(),
                t.counts.tolist(), t.user_ids, t.item_ids)

    @settings(max_examples=300, deadline=None, suppress_health_check=[
        HealthCheck.function_scoped_fixture])
    @given(st.data(), st.sampled_from(DELIMITERS), st.booleans(),
           st.sampled_from([data_module._RUN_BYTES, 7]))
    def test_matches_line_by_line_oracle(self, tmp_path, data, delimiter,
                                         skip_header, run_bytes):
        """Clean lines, clean lines with a stray byte, the fuzz lines, CRLF
        and blank lines, an optional final newline; 7-byte reads put line
        breaks across runs."""
        sep = data.draw(separators(delimiter))
        clean = st.tuples(CLEAN_ID, CLEAN_ID, CLEAN_VALUE).map(sep.join)
        stray = st.tuples(clean, st.sampled_from(STRAY_BYTES + [sep]),
                          st.integers(0, 12)).map(
            lambda t: t[0][:t[2]] + t[1] + t[0][t[2]:])
        fuzz = ((st.lists(FIELD, min_size=3, max_size=3) | st.lists(FIELD))
                .map(sep.join) | st.just(b"") | st.binary(max_size=8))
        lines = data.draw(st.lists(clean | stray, max_size=12))
        # few fuzz lines: the first fault ends the comparison
        for _ in range(data.draw(st.integers(0, 2), label="fuzz lines")):
            lines.insert(data.draw(st.integers(0, len(lines))),
                         data.draw(fuzz))
        ends = [data.draw(st.sampled_from([b"\n", b"\r\n"]))
                for _ in lines]
        text = b"".join(line + end for line, end in zip(lines, ends))
        if lines and data.draw(st.booleans(), label="drop final newline"):
            text = text[:-1]
        p = tmp_path / "mixed.csv"
        p.write_bytes(text)
        kwargs = {"delimiter": delimiter, "skip_header": skip_header}
        with mock.patch.object(data_module, "_RUN_BYTES", run_bytes):
            got = self.outcome(load_triplets, p, **kwargs)
        assert got == self.outcome(load_triplets_by_line, p, **kwargs)

    @pytest.mark.parametrize("delimiter", DELIMITERS)
    def test_stray_byte_anywhere_matches_oracle(self, tmp_path, delimiter):
        """A clean line with each stray byte at each position, or with one
        field empty."""
        sep = (delimiter or " ").encode()
        fields = [b"ab", b"xy", b"12"]
        line = sep.join(fields)
        variants = [line[:at] + stray + line[at:]
                    for stray in STRAY_BYTES + [sep, b"\n", b"0"]
                    for at in range(len(line) + 1)]
        variants += [sep.join(fields[:k] + [b""] + fields[k + 1:])
                     for k in range(3)]
        p = tmp_path / "stray.csv"
        for variant in variants:
            p.write_bytes(sep.join([b"u", b"i", b"3\n"]) + variant
                          + sep.join([b"\nab", b"xz", b"4\n"]))
            got = self.outcome(load_triplets, p, delimiter=delimiter)
            assert got == self.outcome(load_triplets_by_line, p,
                                       delimiter=delimiter), variant

    @pytest.mark.parametrize("text, message", [
        # a duplicate before a malformed line is reported, and one after it
        # is not
        (b"a,x,3\na,x,4\nb,y\n", "line 2: duplicate entry for (a, x)"),
        (b"a,x,3\nb,y\na,x,4\n", "line 2: expected 3 fields, got 2"),
        # the halves of a pair compare equal when read by different paths
        # or decoded from UTF-8
        (b"a,x,3.0\nb,y,1\na,x,4\n", "line 3: duplicate entry for (a, x)"),
        (b"a,x,3\r\nb,y,1\na,x,+4\n", "line 3: duplicate entry for (a, x)"),
        (b"\xc3\xa9,x,3\n\xc3\xa9,x,5\n", "line 2: duplicate entry for "
                                           "(\u00e9, x)"),
        (b"a,x,000000000000000000003\nb,y,0\n", "line 2: non-positive "
                                                 "value 0"),
        # blank lines hold no entry, but count
        (b"a,x,3\n\nb,y,1\n \r\na,x,4\n", "line 5: duplicate entry for "
                                          "(a, x)"),
    ])
    def test_first_fault_in_file_order(self, tmp_path, text, message):
        p = tmp_path / "t.csv"
        p.write_bytes(text)
        assert self.outcome(load_triplets, p, delimiter=",") == self.outcome(
            load_triplets_by_line, p, delimiter=",")
        with pytest.raises(ParseError) as info:
            load_triplets(p, delimiter=",")
        assert str(info.value) == f"{p}: {message}"

    def test_clean_lines_skip_per_line_parse(self, tmp_path, monkeypatch):
        calls = []
        parse_line = data_module._parse_line

        def spy(line, delimiter):
            calls.append(line)
            return parse_line(line, delimiter)

        monkeypatch.setattr(data_module, "_parse_line", spy)
        lines = [f"u{n % 37},i{n},{n + 1}" for n in range(1000)]
        p = tmp_path / "clean.csv"
        p.write_text("\n".join(lines) + "\n")
        t = load_triplets(p, delimiter=",")
        assert calls == [] and t.counts.tolist() == list(range(1, 1001))
        lines[500] = "u19,i500,3.0"
        p.write_text("\n".join(lines) + "\n")
        t = load_triplets(p, delimiter=",")
        assert calls == [b"u19,i500,3.0\n"]
        assert t.counts[500] == 3 and t.rows[500] == 19
        calls.clear()
        # ids that are not ASCII, and a tab for the delimiter
        p.write_text("\u00fc1,\u20ac2,3\n\u00fc1,\u00e9,40\r\n",
                     encoding="utf-8")
        t = load_triplets(p, delimiter=",")
        assert t.user_ids == ["\u00fc1"]
        assert t.item_ids == ["\u20ac2", "\u00e9"]
        assert t.counts.tolist() == [3, 40]
        p.write_text("a\tx\t3\nb\ty\t4\n")
        for delimiter in ("\t", None):
            t = load_triplets(p, delimiter=delimiter)
            assert t.item_ids == ["x", "y"] and t.counts.tolist() == [3, 4]
        # a delimiter of several bytes, as in MovieLens 1M
        p.write_text("1::1193::5\n1::661::3\r\n2::1193::4\n")
        t = load_triplets(p, delimiter="::")
        assert t.user_ids == ["1", "2"] and t.item_ids == ["1193", "661"]
        assert t.counts.tolist() == [5, 3, 4]
        assert calls == []

    @pytest.mark.parametrize("delimiter", [",", "\u00a7"])
    def test_id_from_clean_and_parsed_lines_is_one(self, tmp_path,
                                                    delimiter):
        # the "3.0" lines take _parse_line, the others are clean; a short
        # and a long id reach the reader both ways
        wide = "w" * 20
        lines = ["u1,i1,3.0", "u1,i2,4", f"{wide},i1,2.0", f"{wide},i3,5",
                 f"{wide},i2,6"]
        p = tmp_path / "t.csv"
        p.write_text("".join(line.replace(",", delimiter) + "\n"
                             for line in lines), encoding="utf-8")
        t = load_triplets(p, delimiter=delimiter)
        assert t.user_ids == ["u1", wide]
        assert t.rows.tolist() == [0, 0, 1, 1, 1]
        assert t.item_ids == ["i1", "i2", "i3"]
        assert t.cols.tolist() == [0, 1, 0, 2, 1]
        assert t.counts.tolist() == [3, 4, 2, 5, 6]
        assert self.outcome(load_triplets, p, delimiter=delimiter) == (
            self.outcome(load_triplets_by_line, p, delimiter=delimiter))

    @pytest.mark.parametrize("case", ["nul-pool", "one-byte-apart",
                                      "8-and-16-byte-ids",
                                      "all-distinct-items"])
    def test_wide_ids_match_oracle(self, tmp_path, monkeypatch, case):
        # 64-byte reads, so that most wide ids recur in later runs
        monkeypatch.setattr(data_module, "_RUN_BYTES", 64)
        rng = np.random.default_rng(4)
        if case == "nul-pool":
            # ids of 5-29 bytes of a, b and NUL: most wide, many repeated
            pool = [bytes(rng.choice(list(b"ab\x00"), size=n)).decode()
                    for n in rng.integers(5, 30, size=40)]
            lines = {(rng.choice(pool), rng.choice(pool)): n + 1
                     for n in range(300)}
        elif case == "one-byte-apart":
            # ids of 24 bytes that differ in one byte only: the first, the
            # last, or either side of a word boundary
            ids = ["w" * 24] + ["w" * k + "v" + "w" * (23 - k)
                                for k in (0, 7, 8, 23)]
            lines = {(u, i): 5 * a + b + 1 for a, u in enumerate(ids)
                     for b, i in enumerate(ids[::-1])}
        elif case == "8-and-16-byte-ids":
            # ids of 8 and 16 bytes that share words: B is A's last 8
            # bytes, A starts with 8 NULs and C ends with one
            b, a, c = "bcdefghi", "\x00" * 8 + "bcdefghi", "c" * 15 + "\x00"
            lines = {(u, "x"): 1 for u in (b, a, c)}
        else:
            # e-mail-like users, some repeated, and a distinct URL-like item
            # of 8 to 53 bytes on every line, some not ASCII
            users = [f"{'u' * n}@example.org" for n in range(1, 40)]
            paths = ["p" * (n % 40) + "\u00e9" * (n % 3) for n in range(300)]
            lines = {(rng.choice(users), f"/item/{path}/{n}"): n % 7 + 1
                     for n, path in enumerate(paths)}
        p = tmp_path / "wide.csv"
        p.write_text("".join(f"{u},{i},{c}\n" for (u, i), c in lines.items()),
                     encoding="utf-8")
        got = self.outcome(load_triplets, p, delimiter=",")
        assert got == self.outcome(load_triplets_by_line, p, delimiter=",")
        assert got[:2] == {"nul-pool": (40, 40), "one-byte-apart": (5, 5),
                           "8-and-16-byte-ids": (3, 1),
                           "all-distinct-items": (39, 300)}[case]

    @staticmethod
    def traced_peak(path, **kwargs):
        tracemalloc.start()
        try:
            t = load_triplets(path, **kwargs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak, t

    def test_peak_per_line_on_benchmark_shape(self, tmp_path):
        # 250k shuffled lines u<n>,i<n>,<count> of 25k users and 5k items,
        # the shape of the benchmark's ingestion workload
        rng = np.random.default_rng(0)
        n, n_users, n_items = 250_000, 25_000, 5_000
        cells = rng.permutation(np.unique(rng.integers(
            0, n_users * n_items, size=n + n // 50))[:n])
        counts = np.minimum(rng.zipf(1.7, size=n), 1_000_000)
        p = tmp_path / "bench.csv"
        p.write_text("".join(
            f"u{u},i{i},{c}\n" for u, i, c in zip(
                (cells // n_items).tolist(), (cells % n_items).tolist(),
                counts.tolist())))
        peak, t = self.traced_peak(p, delimiter=",")
        assert t.counts.size == n
        assert peak / n <= self.PEAK_PER_LINE

    def test_peak_per_line_on_taste_profile_shape(self, tmp_path):
        # 57k tab-separated lines grouped by user, with the Million Song
        # Dataset Taste Profile's ids: users of 40 hex digits, songs of "SO"
        # and 16 letters and digits, Zipf-popular among 10k
        rng = np.random.default_rng(0)
        n_users, n_songs = 1_200, 10_000
        users = [rng.bytes(20).hex() for _ in range(n_users)]
        chars = np.frombuffer(b"ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789", "S1")
        songs = ["SO" + s.decode() for s in chars[rng.integers(
            0, chars.size, size=(n_songs, 16))].view("S16").ravel()]
        popularity = np.cumsum(1 / np.arange(1, n_songs + 1) ** 0.8)
        picks = np.searchsorted(popularity, popularity[-1] * rng.random(
            (n_users, 50)))
        lines = []
        for user, picked in zip(users, picks):
            picked = np.unique(picked)
            lines += [f"{user}\t{songs[s]}\t{c}\n" for s, c in zip(
                picked.tolist(), rng.zipf(1.7, size=picked.size).tolist())]
        p = tmp_path / "taste.tsv"
        p.write_text("".join(lines))
        peak, t = self.traced_peak(p, delimiter="\t")
        assert t.n_users == n_users and t.counts.size == len(lines)
        assert peak / len(lines) <= self.WIDE_PEAK_PER_LINE

    def test_long_id_does_not_widen_every_key(self, tmp_path):
        # one 1000-byte id among 100k short ones costs its own words only
        lines = [f"u{n % 5000},i{n % 1009},{n % 50 + 1}\n"
                 for n in range(100_000)]
        p = tmp_path / "t.csv"
        peaks = []
        for extra in ([], ["x" * 1000 + ",i0,1\n"]):
            p.write_text("".join(lines[:500] + extra + lines[500:]))
            peak, t = self.traced_peak(p, delimiter=",")
            peaks.append(peak)
        assert t.user_ids[500] == "x" * 1000
        assert peaks[1] <= 1.05 * peaks[0]

    def test_line_runs_linear_in_longest_line(self, tmp_path, monkeypatch):
        # a file without a newline: its pieces are joined once, so reading
        # it takes about as long as reading a file of short lines
        monkeypatch.setattr(data_module, "_RUN_BYTES", 4096)
        size = 8 << 20
        one = tmp_path / "one.txt"
        one.write_bytes(b"x" * size)
        many = tmp_path / "many.txt"
        many.write_bytes((b"x" * 99 + b"\n") * (size // 100))

        def seconds(path):
            best = float("inf")
            for _ in range(3):
                start = time.process_time()
                with open(path, "rb") as fh:
                    runs = list(data_module._line_runs(fh, 1))
                best = min(best, time.process_time() - start)
            return best, runs

        (long_s, runs), (short_s, _) = seconds(one), seconds(many)
        assert [(first, len(run)) for first, run in runs] == [(1, size)]
        # copying the growing remainder on every read takes ~100x as long
        assert long_s <= 10 * short_s + 0.05

    def test_whitespace_class_is_str_isspace(self):
        # the byte pass's ASCII whitespace, and the non-ASCII class that
        # sends a run's lines with such bytes to _parse_line
        assert np.flatnonzero(data_module._ASCII_SPACE).tolist() == [
            c for c in range(128) if chr(c).isspace()]
        above = "".join(map(chr, range(128, sys.maxunicode + 1)))
        assert data_module._NON_ASCII_SPACE.findall(above) == [
            c for c in above if c.isspace()]

    def test_duplicate_in_large_clean_file_names_line(self, tmp_path):
        # several runs of reading, so the line count carries across them
        lines = [f"user{n},item{n % 1009},{n % 500 + 1}"
                 for n in range(100_000)]
        lines[87_654] = lines[12_345].rsplit(",", 1)[0] + ",7"
        p = tmp_path / "large.csv"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as info:
            load_triplets(p, delimiter=",")
        assert str(info.value) == (
            f"{p}: line 87655: duplicate entry for (user12345, item237)")


def counts_triplets(counts):
    """RawTriplets holding each count in a user of its own, item 0."""
    counts = np.asarray(counts, dtype=np.int64)
    n = counts.size
    return RawTriplets(n, 1, np.arange(n), np.zeros(n, dtype=np.int64),
                       counts, [f"u{u}" for u in range(n)], ["i0"])


def classes_of(counts, boundaries=PLAYCOUNT_BOUNDARIES):
    """Class of each count, in order: each count is its own user."""
    return quantize_counts(counts_triplets(counts), boundaries).vals.tolist()


class TestQuantization:
    def test_count_35_maps_to_class_6(self):
        assert classes_of([35]) == [6]

    def test_first_boundary(self):
        assert classes_of([1]) == [1]

    def test_open_top_class(self):
        # 9 boundaries plus the open top bucket give 10 non-zero classes
        mat = quantize_counts(counts_triplets([501]), PLAYCOUNT_BOUNDARIES)
        assert mat.n_classes == 10
        assert mat.vals.tolist() == [10]

    def test_invalid_schemes(self):
        for bounds, message in (
                ([1, 1, 2], "positive and strictly increasing"),
                ([0, 2], "positive and strictly increasing"),
                ([], "non-empty 1-d sequence"),
                ([[1, 2]], "non-empty 1-d sequence"),
                ([2**63], "int64 range"), ([-10**20], "int64 range")):
            with pytest.raises(ConfigError, match=message):
                quantize_counts(counts_triplets([3]), bounds)
        for bounds in (PLAYCOUNT_BOUNDARIES, None):
            with pytest.raises(DataError, match="counts must be >= 1"):
                quantize_counts(counts_triplets([3, 0]), bounds)

    def test_monotone_over_random_schemes(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            bounds = np.unique(rng.integers(1, 1000, size=rng.integers(1, 12)))
            counts = np.sort(rng.integers(1, 2000, size=100))
            assert np.all(np.diff(classes_of(counts, bounds)) >= 0)

    def test_quantize_counts_builds_matrix(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("a,x,35\na,y,1\nb,x,501\n")
        mat = quantize_counts(load_triplets(p, delimiter=","),
                              PLAYCOUNT_BOUNDARIES)
        assert mat.n_classes == 10
        assert sorted(mat.vals.tolist()) == [1, 6, 10]

    def test_values_are_classes_without_boundaries(self):
        # V is the largest value; an empty file still has one class
        mat = quantize_counts(counts_triplets([3, 1, 7, 3]))
        assert (mat.n_classes, mat.vals.tolist()) == (7, [3, 1, 7, 3])
        empty = quantize_counts(counts_triplets([]))
        assert (empty.n_classes, empty.nnz) == (1, 0)


class TestOrdinalMatrix:
    def test_invariants_enforced(self):
        with pytest.raises(DataError):
            OrdinalMatrix(2, 2, 3, [0, 0], [1, 1], [1, 2])  # duplicate
        # the .ordmat header stores U, I and V as uint32
        for shape in ((1 << 32, 2, 3), (2, 1 << 32, 3), (2, 2, 1 << 32)):
            with pytest.raises(DataError, match="each must be below 2\\^32"):
                OrdinalMatrix(*shape, [0], [0], [1])
        with pytest.raises(DataError):
            OrdinalMatrix(2, 2, 3, [0], [0], [4])  # class out of range
        with pytest.raises(DataError):
            OrdinalMatrix(2, 2, 3, [0], [0], [0])  # class 0 never stored

    def test_classes_and_entry_shapes_enforced(self):
        with pytest.raises(DataError,
                           match="^need at least one non-zero class$"):
            OrdinalMatrix(2, 2, 0, [], [], [])
        # unequal lengths, then equal shapes that are not 1-d
        for rows, cols, vals in (([0, 1], [0], [1]), ([[0]], [[0]], [[1]])):
            with pytest.raises(DataError, match=(
                    "^rows/cols/vals must be parallel 1-d arrays$")):
                OrdinalMatrix(2, 2, 3, rows, cols, vals)

    def test_far_corner_entries_in_csr_order(self):
        # the sort key rows * I + cols reaches 2^64 - 2^33 here
        n = (1 << 32) - 1
        mat = OrdinalMatrix(n, n, 2, [n - 1, 0, n - 1, n - 2, 0],
                            [n - 1, n - 1, 0, n - 1, 0], [1, 2, 2, 1, 1])
        assert list(zip(mat.rows.tolist(), mat.cols.tolist(),
                        mat.vals.tolist())) == [
            (0, 0, 1), (0, n - 1, 2), (n - 2, n - 1, 1), (n - 1, 0, 2),
            (n - 1, n - 1, 1)]
        with pytest.raises(DataError, match=f"user={n - 1}, item={n - 1}"):
            OrdinalMatrix(n, n, 2, [n - 1, 0, n - 1], [n - 1, 0, n - 1],
                          [1, 1, 2])

    def test_shuffled_and_csr_input_agree(self):
        rng = np.random.default_rng(5)
        cells = rng.choice(40 * 30, size=300, replace=False)
        rows, cols, vals = cells // 30, cells % 30, rng.integers(1, 4, 300)
        csr = np.lexsort((cols, rows))
        for order in (np.arange(300), csr):  # shuffled, then in CSR order
            mat = OrdinalMatrix(40, 30, 3, rows[order], cols[order],
                                vals[order])
            for got, want in zip((mat.rows, mat.cols, mat.vals),
                                 (rows[csr], cols[csr], vals[csr])):
                np.testing.assert_array_equal(got, want)

    def test_shuffled_input_peak(self):
        # the int32 casts (12 bytes per entry), the keys and the sort order
        # (8 each), and the sorted keys, which replace the keys before the
        # gathers: 36 bytes per entry measured.  The keys, the order and
        # three int64 gathers took 40, and 44 with the casts and np.diff
        # of the sorted keys beside the keys
        rng = np.random.default_rng(10)
        nnz = 200_000
        cells = rng.choice(2000 * 1500, size=nnz, replace=False)
        arrays = [cells // 1500, cells % 1500, rng.integers(1, 6, nnz)]
        tracemalloc.start()
        try:
            mat = OrdinalMatrix(2000, 1500, 5, *arrays)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(mat.rows * 1500 + mat.cols,
                                      np.sort(cells))
        assert peak < 38 * nnz

    def test_duplicate_named_shuffled_or_in_csr_order(self):
        rng = np.random.default_rng(6)
        cells = rng.choice(40 * 30, size=300, replace=False)
        # cells 7 and 3 twice each; the one first in CSR order is named
        cells = np.append(cells, cells[[7, 3]])
        first = min(cells[7], cells[3])
        message = (rf"^duplicate entry for \(user={first // 30}, "
                   rf"item={first % 30}\)$")
        vals = rng.integers(1, 4, cells.size)
        for order in (np.arange(cells.size), np.argsort(cells, kind="stable")):
            with pytest.raises(DataError, match=message):
                OrdinalMatrix(40, 30, 3, cells[order] // 30,
                              cells[order] % 30, vals[order])

    def test_csr_input_kept_only_when_read_only(self):
        # kept only when read-only and already of the chosen dtype: int32
        # for a 4 x 4 matrix, int64 rows and cols for 2^32 - 1 users/items
        entries = ([0, 0, 2], [1, 3, 0], [1, 2, 1])
        for n, dtype in ((4, np.int32), ((1 << 32) - 1, np.int64)):
            for given_dtype in (np.int32, np.int64):
                arrays = [np.array(a, dtype=given_dtype) for a in entries]
                mat = OrdinalMatrix(n, n, 2, *arrays)
                stored = (mat.rows, mat.cols, mat.vals)
                assert [a.dtype for a in stored] == [dtype, dtype, np.int32]
                for got, given in zip(stored, arrays):
                    assert given.flags.writeable
                    assert not np.shares_memory(got, given)
                for a in arrays:
                    a.setflags(write=False)
                mat = OrdinalMatrix(n, n, 2, *arrays)
                for got, given in zip((mat.rows, mat.cols, mat.vals), arrays):
                    assert (got is given) == (got.dtype == given_dtype)
                    np.testing.assert_array_equal(got, given)

    def test_class_counts(self):
        mat = make_matrix([[1, 0, 2], [0, 2, 3]], n_classes=3)
        assert mat.class_counts.tolist() == [1, 2, 1]
        assert mat.class_counts.sum() == mat.nnz

    @pytest.mark.parametrize("nnz", [0, 1, 37, 2000])
    def test_class_counts_match_bincount(self, nnz):
        rng = np.random.default_rng(nnz)
        cells = rng.choice(60 * 50, nnz, replace=False)
        mat = OrdinalMatrix(60, 50, 7, cells // 50, cells % 50,
                            rng.integers(1, 8, nnz))
        want = np.bincount(mat.vals, minlength=8)[1:]
        for m in (mat, widened(mat)):
            got = m.class_counts
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want)

    def test_class_counts_copy_no_more_than_a_block(self):
        # bincount copies its input to intp: over all of vals that was
        # nnz * 8 bytes (3.2 MB here); np.add.at indexes by the int32 vals
        # as they are, ~71 KB measured
        rng = np.random.default_rng(8)
        nnz = 400_000
        mat = OrdinalMatrix(nnz, 1, 5, np.arange(nnz), np.zeros(nnz),
                            rng.integers(1, 6, nnz))
        want = np.bincount(mat.vals, minlength=6)[1:]
        tracemalloc.start()
        try:
            got = mat.class_counts
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(got, want)
        assert peak < 2 * nnz

    def test_entry_dtype_per_array_at_2_31(self):
        # int32 while the array's bound (U, I or V) is below 2^31, so the
        # largest index or class still fits; decided for each array alone
        n = 1 << 31
        assert entry_dtype(n - 1) == np.int32
        assert entry_dtype(n) == np.int64
        for shape in ((n - 1, n, n - 1), (n, n - 1, n), (2, 3, 2)):
            U, I, V = shape
            mat = OrdinalMatrix(U, I, V, [0, U - 1], [I - 1, 0], [V, 1])
            assert [a.dtype for a in (mat.rows, mat.cols, mat.vals)] == [
                entry_dtype(bound) for bound in shape]
            assert [a.tolist() for a in (mat.rows, mat.cols, mat.vals)] == [
                [0, U - 1], [I - 1, 0], [V, 1]]

    def test_cell_keys_allocate_only_the_keys(self):
        # computed in uint64 ufunc loops that cast a buffer at a time; three
        # uint64 temporaries (casts, product) took ~2x the keys' 8 bytes
        rng = np.random.default_rng(9)
        nnz = 200_000
        cells = rng.choice(3000 * 2000, size=nnz, replace=False)
        mat = OrdinalMatrix(3000, 2000, 2, cells // 2000, cells % 2000,
                            np.ones(nnz))
        want = (mat.rows.astype(np.uint64) * np.uint64(2000)
                + mat.cols.astype(np.uint64))
        tracemalloc.start()
        try:
            got = data_module._cell_keys(mat.rows, mat.cols, 2000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(got, want)
        assert got.dtype == np.uint64
        assert peak < 1.1 * 8 * nnz

    def test_indptr_copies_no_entries(self):
        # searchsorted casts rows to its needles' dtype: int64 needles made
        # a full int64 copy of int32 rows (1.6 MB here), where indptr and
        # the needles take 36 KB
        nnz = 200_000
        mat = OrdinalMatrix(3000, 100, 1, np.arange(nnz) // 100,
                            np.arange(nnz) % 100, np.ones(nnz))
        tracemalloc.start()
        try:
            indptr = mat.indptr
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(indptr, np.minimum(
            np.arange(3001) * 100, nnz))
        assert peak < nnz

    @settings(max_examples=300, deadline=None)
    @given(row_blocks())
    # no entries; the last user, repeated and out of order, and an empty user
    @example((np.zeros((3, 4), dtype=np.int64), [2, 0, 2]))
    @example((np.array([[0, 2, 0], [0, 0, 0], [1, 0, 2]]), [2, 1, 0, 2]))
    def test_block_entries_match_dense_matrix(self, case):
        dense, users = case
        mat = make_matrix(dense, n_classes=2)
        row, at = mat.block_entries(users)
        assert row.dtype == at.dtype == np.int64
        # each block row's entries, in CSR order, and no other entry
        assert np.all(np.diff(row) >= 0)
        assert np.all(np.diff(at)[np.diff(row) == 0] > 0)
        np.testing.assert_array_equal(mat.rows[at],
                                      np.asarray(users, dtype=np.int64)[row])
        got = np.zeros((len(users), mat.n_items), dtype=np.int64)
        got[row, mat.cols[at]] = mat.vals[at]
        np.testing.assert_array_equal(
            got, np.asarray(dense)[np.asarray(users, dtype=np.int64)])
        assert row.size == np.count_nonzero(got)
        # the same lists from int64 entry arrays
        for wide, narrow in zip(widened(mat).block_entries(users), (row, at)):
            np.testing.assert_array_equal(wide, narrow)
            assert wide.dtype == np.int64

    @settings(max_examples=300, deadline=None)
    @given(cell_blocks())
    # no entries; one entry, so that misses fall before and after it
    @example((np.zeros((2, 3), dtype=np.int64), [1, 0],
              np.array([[2, 0], [1, 1]])))
    @example((np.array([[0, 0, 0], [0, 2, 0], [0, 0, 0]]), [0, 1, 2],
              np.array([[0, 2], [1, 0], [0, 2]])))
    def test_classes_at_matches_dense_lookup(self, case):
        dense, users, items = case
        users = np.asarray(users, dtype=np.int64)
        mat = make_matrix(dense, n_classes=2)
        U, I = dense.shape
        for m in (mat, widened(mat)):
            # a block of users broadcast against a block of items per user
            got = m.classes_at(users[:, None], items)
            np.testing.assert_array_equal(got, dense[users[:, None], items])
            assert got.shape == items.shape
            # every cell, those before the first stored one and after the
            # last included
            np.testing.assert_array_equal(
                m.classes_at(np.arange(U)[:, None], np.arange(I)), dense)

    def test_classes_at_builds_its_table_once(self, monkeypatch):
        # the stored cells' keys are formed on the first lookup only, each
        # lookup's own cells' keys every time
        dense = np.array([[0, 2, 1], [1, 0, 2]])
        mat = make_matrix(dense, n_classes=2)
        formed = []
        real = data_module._cell_keys

        def spy(rows, cols, n_items):
            formed.append(rows is mat.rows)
            return real(rows, cols, n_items)
        monkeypatch.setattr(data_module, "_cell_keys", spy)
        for _ in range(3):
            np.testing.assert_array_equal(
                mat.classes_at(np.arange(2)[:, None], np.arange(3)), dense)
        assert formed == [True, False, False, False]

    @pytest.mark.parametrize("mine, theirs, shared", [
        ([[1, 2], [0, 1]], [[0, 0], [0, 0]], None),  # nothing in theirs
        ([[1, 2], [0, 1]], [[2, 0], [1, 0]], (0, 0)),  # at our first entry
        ([[1, 2], [0, 1]], [[0, 0], [2, 1]], (1, 1)),  # at our last entry
        ([[0, 2, 1], [1, 1, 2]], [[2, 0, 1], [1, 2, 2]], (0, 2)),  # several
    ], ids=["none-in-other", "first", "last", "several"])
    def test_first_shared_entry_cases(self, mine, theirs, shared):
        mine, theirs = make_matrix(mine, 2), make_matrix(theirs, 2)
        assert mine.first_shared_entry(theirs) == shared
        assert first_shared_bruteforce(mine, theirs) == shared

    def test_first_shared_entry_far_corner(self):
        # cell keys near 2^64 must neither wrap nor collide
        n = (1 << 32) - 1
        mine = OrdinalMatrix(n, n, 2, [0, n - 1, n - 1], [n - 1, 0, n - 1],
                             [1, 2, 1])
        theirs = OrdinalMatrix(n, n, 2, [n - 1, n - 2], [n - 1, n - 1], [2, 2])
        assert mine.first_shared_entry(theirs) == (n - 1, n - 1)
        assert theirs.first_shared_entry(mine) == (n - 1, n - 1)

    @settings(max_examples=200, deadline=None)
    @given(matrix_pairs(), st.sampled_from([inference.GATHER_CELLS, 3]))
    def test_first_shared_entry_matches_bruteforce(self, pair, block):
        # 3-entry blocks put the first shared entry in any block
        mine, theirs = pair
        shared = first_shared_bruteforce(mine, theirs)
        with mock.patch.object(inference, "GATHER_CELLS", block):
            assert mine.first_shared_entry(theirs) == shared
            # the same with int64 entry arrays on either side
            assert widened(mine).first_shared_entry(theirs) == shared
            assert mine.first_shared_entry(widened(theirs)) == shared

    def test_first_shared_entry_scratch_is_a_block(self):
        # 400k entries of other, none shared, are looked up a block at a
        # time: beyond the table it keeps, the lookup's peak is a block's,
        # where all at once it would be ~29 bytes per entry, 11.6 MB
        rng = np.random.default_rng(5)
        n_users = n_items = 2000
        cells = np.sort(rng.choice(n_users * n_items, 500_000, replace=False))
        mine, theirs = (OrdinalMatrix(n_users, n_items, 1, part // n_items,
                                      part % n_items, np.ones_like(part))
                        for part in (cells[::5], np.delete(cells, np.s_[::5])))
        mine.classes_at(0, 0)  # builds the kept table
        tracemalloc.start()
        try:
            assert mine.first_shared_entry(theirs) is None
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 64 * inference.GATHER_CELLS

    def test_binary_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        mat = make_matrix(rng.integers(0, 5, size=(7, 4)), n_classes=4)
        path = tmp_path / "m.ordmat"
        mat.save(path)
        back = OrdinalMatrix.load(path)
        assert (back.n_users, back.n_items, back.n_classes) == (7, 4, 4)
        np.testing.assert_array_equal(back.rows, mat.rows)
        np.testing.assert_array_equal(back.cols, mat.cols)
        np.testing.assert_array_equal(back.vals, mat.vals)

    def test_save_load_byte_identical_for_both_dtypes(self, tmp_path):
        # int32 arrays for a 4 x 4 matrix, int64 rows and cols for 2^32 - 1
        # users and items; either way the file holds int64
        first, second = tmp_path / "a.ordmat", tmp_path / "b.ordmat"
        for n, dtype in ((4, np.int32), ((1 << 32) - 1, np.int64)):
            mat = OrdinalMatrix(n, n, 3, [0, 0, 2], [1, 3, 0], [1, 3, 2])
            mat.save(first)
            back = OrdinalMatrix.load(first)
            back.save(second)
            assert first.read_bytes() == second.read_bytes() == ordmat_bytes(
                mat)
            widened(mat).save(second)
            assert second.read_bytes() == first.read_bytes()
            for got, want in zip((back.rows, back.cols, back.vals),
                                 (mat.rows, mat.cols, mat.vals)):
                np.testing.assert_array_equal(got, want)
                assert got.dtype == want.dtype
            assert back.rows.dtype == back.cols.dtype == dtype

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\0" * 32)
        with pytest.raises(DataError):
            OrdinalMatrix.load(path)

    @pytest.mark.parametrize("kind, message", [
        ("short-header", "truncated header"),
        ("huge-nnz", "28 bytes, but a header with nnz = 1099511627776 "
                     "needs 26388279066652"),
        ("trailing-bytes", "77 bytes, but a header with nnz = 2 needs 76"),
        ("index-out-of-range", "user index out of range"),
        ("duplicate", "duplicate entry for (user=0, item=1)"),
    ])
    def test_damaged_file_names_path(self, tmp_path, kind, message):
        path = tmp_path / f"{kind}.ordmat"
        path.write_bytes(damaged_ordmat(kind))
        with pytest.raises(DataError) as info:
            OrdinalMatrix.load(path)
        assert str(info.value) == f"{path}: {message}"

    def test_load_memory_independent_of_shape(self, tmp_path):
        # a header can name up to 2^32 - 1 users; only nnz sizes the load
        path = tmp_path / "wide.ordmat"
        n = (1 << 32) - 1
        OrdinalMatrix(n, n, 2, [0, 5], [1, 2], [1, 2]).save(path)
        tracemalloc.start()
        try:
            back = OrdinalMatrix.load(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (back.n_users, back.n_items, back.nnz) == (n, n, 2)
        assert peak < 1 << 20

    def test_load_peak_within_twice_the_arrays(self, tmp_path):
        # a file in CSR order is neither sorted nor gathered, and each
        # int64 array read is cast to int32 before the next is read, or
        # kept when int64 is its dtype: the stored arrays plus one key per
        # entry, ~1.75x of their 12 bytes per entry measured, and ~1.45x
        # of 20 (int64 rows and cols, 2^32 - 1 users and items).
        # Read whole as int64 it was ~1.67x of 24 bytes (the bound was 2x
        # of those), and the argsort and three gathers took ~2.67x
        rng = np.random.default_rng(7)
        nnz = 200_000
        cells = np.sort(rng.choice(2000 * 1500, size=nnz, replace=False))
        path = tmp_path / "csr.ordmat"
        for shape in ((2000, 1500), ((1 << 32) - 1, (1 << 32) - 1)):
            OrdinalMatrix(*shape, 5, cells // 1500, cells % 1500,
                          rng.integers(1, 6, nnz)).save(path)
            tracemalloc.start()
            try:
                back = OrdinalMatrix.load(path)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert back.nnz == nnz
            stored = sum(a.nbytes for a in (back.rows, back.cols, back.vals))
            assert stored == (12 if shape[0] == 2000 else 20) * nnz
            assert peak < 2 * stored

    @settings(max_examples=300, deadline=None, suppress_health_check=[
        HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_truncated_or_flipped_file_loads_or_names_path(self, tmp_path,
                                                           data):
        path = tmp_path / "m.ordmat"
        make_matrix([[1, 0, 2], [0, 3, 3]], n_classes=3).save(path)
        raw = bytearray(path.read_bytes())
        if data.draw(st.booleans(), label="truncate"):
            raw = raw[:data.draw(st.integers(0, len(raw) - 1), label="len")]
        else:
            at = data.draw(st.integers(0, len(raw) - 1), label="at")
            raw[at] ^= data.draw(st.integers(1, 255), label="xor")
        path.write_bytes(bytes(raw))
        try:
            OrdinalMatrix.load(path)
        except DataError as exc:
            assert str(path) in str(exc)

    def test_index_map_roundtrip(self, tmp_path):
        path = tmp_path / "map.txt"
        write_index_map(path, ["u1", "u9", "u3"])
        assert path.read_text() == "u1\t0\nu9\t1\nu3\t2\n"


class TestTrainTestSplit:
    def make(self):
        rng = np.random.default_rng(4)
        dense = np.zeros((5, 4), dtype=int)
        idx = rng.choice(20, size=10, replace=False)
        dense.flat[idx] = rng.integers(1, 4, size=10)
        return make_matrix(dense, n_classes=3)

    def test_sizes(self):
        train, test = train_test_split(self.make(), 0.2, seed=0)
        assert train.nnz == 8 and test.nnz == 2
        assert (train.n_users, train.n_items) == (5, 4)
        assert (test.n_users, test.n_items) == (5, 4)

    def test_partition(self):
        mat = self.make()
        train, test = train_test_split(mat, 0.3, seed=1)
        assert train.nnz + test.nnz == mat.nnz
        pairs_train = set(zip(train.rows.tolist(), train.cols.tolist()))
        pairs_test = set(zip(test.rows.tolist(), test.cols.tolist()))
        assert not pairs_train & pairs_test

    def test_deterministic(self):
        mat = self.make()
        a = train_test_split(mat, 0.2, seed=7)
        b = train_test_split(mat, 0.2, seed=7)
        np.testing.assert_array_equal(a[1].rows, b[1].rows)
        np.testing.assert_array_equal(a[1].cols, b[1].cols)

    def test_minimum_one_test_entry(self):
        mat = make_matrix([[1, 2]])
        train, test = train_test_split(mat, 0.05, seed=0)
        assert test.nnz == 1

    def test_errors(self):
        mat = make_matrix([[1]])
        with pytest.raises(DataError):
            train_test_split(mat, 0.2, seed=0)
        with pytest.raises(ConfigError):
            train_test_split(self.make(), 1.2, seed=0)
