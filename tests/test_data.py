"""Ingestion, quantization, splitting, and the binary format."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ordnmf.data import (OrdinalMatrix, QuantizationScheme, load_triplets,
                         quantize_counts, train_test_split, write_index_map)
from ordnmf.errors import ConfigError, DataError, OrdnmfError, ParseError

from oracles import damaged_ordmat

PLAYCOUNT_BOUNDARIES = [1, 2, 5, 10, 20, 50, 100, 200, 500]
# pieces of triplet fields, valid and not: ids, digits, signs, exponents,
# a byte that is not UTF-8 and a UTF-8 Arabic-Indic digit
FIELD_PIECES = [b"a", b"b", b"1", b"30", b"0", b"-", b".", b"e", b"_", b"inf",
                b"\xff", b"\xd9\xa3", b" ", b"\r"]
FIELD = (st.lists(st.sampled_from(FIELD_PIECES), max_size=4).map(b"".join)
         | (st.integers(-2**64, 2**64) | st.integers(2**63 - 2, 2**63 + 1)).map(
             lambda n: str(n).encode())
         | st.floats().map(lambda x: repr(x).encode()))


def make_matrix(dense, n_classes=None):
    dense = np.asarray(dense)
    rows, cols = np.nonzero(dense)
    return OrdinalMatrix(dense.shape[0], dense.shape[1],
                         n_classes or int(dense.max()), rows, cols,
                         dense[rows, cols])


class TestLoadTriplets:
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
        ("1e30", "value '1e30' exceeds the int64 range"),
        ("9223372036854775808", "value '9223372036854775808' exceeds the "
                                "int64 range"),
        ("three", "non-numeric value 'three'"),
        ("1_000", "non-numeric value '1_000'"),
        ("1_0.0", "non-numeric value '1_0.0'"),
        ("\u0663", "non-numeric value '\u0663'"),  # Arabic-Indic 3
        ("\uff15", "non-numeric value '\uff15'"),  # fullwidth 5
        # a whole line 2: the tab would split the user's index map line
        ("b\tc,y,3", "user id 'b\\tc' holds a tab"),
        ("b,y\tz,3", "item id 'y\\tz' holds a tab"),
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
        p.write_text("a,x,3.0\na,y,4\nb,x,1e2\nb,y,9223372036854775807\n")
        t = load_triplets(p, delimiter=",")
        assert t.counts.tolist() == [3, 4, 100, 2**63 - 1]

    def test_header_skip_and_whitespace_delimiter(self, tmp_path):
        p = tmp_path / "ws.txt"
        p.write_text("user item count\na x 3\nb y 4\n")
        t = load_triplets(p, skip_header=True)
        assert t.n_users == 2 and t.counts.tolist() == [3, 4]

    @settings(max_examples=300, deadline=None, suppress_health_check=[
        HealthCheck.function_scoped_fixture])
    @given(st.data(), st.sampled_from([None, ","]))
    def test_random_lines_load_or_name_path_and_line(self, tmp_path, data,
                                                     delimiter):
        sep = data.draw(st.sampled_from([b" ", b"\t"]) if delimiter is None
                        else st.just(b","))
        fields = st.lists(FIELD, min_size=3, max_size=3) | st.lists(FIELD)
        lines = data.draw(st.lists(fields.map(sep.join) | st.binary(),
                                   max_size=4))
        p = tmp_path / "fuzz.csv"
        p.write_bytes(b"\n".join([sep.join([b"a", b"x", b"3"]), *lines]))
        try:
            load_triplets(p, delimiter=delimiter)
        except OrdnmfError as exc:
            assert str(exc).startswith(f"{p}: line ")


class TestQuantization:
    scheme = QuantizationScheme(PLAYCOUNT_BOUNDARIES)

    def test_count_35_maps_to_class_6(self):
        assert self.scheme.class_of(35) == 6

    def test_first_boundary(self):
        assert self.scheme.class_of(1) == 1

    def test_open_top_class(self):
        # 9 boundaries plus the open top bucket give 10 non-zero classes
        assert self.scheme.n_classes == 10
        assert self.scheme.class_of(501) == 10

    def test_invalid_schemes(self):
        with pytest.raises(ConfigError):
            QuantizationScheme([1, 1, 2])
        with pytest.raises(ConfigError):
            QuantizationScheme([0, 2])
        with pytest.raises(DataError):
            self.scheme.class_of(0)

    def test_monotone_over_random_schemes(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            bounds = np.unique(rng.integers(1, 1000, size=rng.integers(1, 12)))
            scheme = QuantizationScheme(bounds)
            counts = np.sort(rng.integers(1, 2000, size=100))
            classes = scheme.class_of(counts)
            assert np.all(np.diff(classes) >= 0)

    def test_quantize_counts_builds_matrix(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("a,x,35\na,y,1\nb,x,501\n")
        mat = quantize_counts(load_triplets(p, delimiter=","), self.scheme)
        assert mat.n_classes == 10
        assert sorted(mat.vals.tolist()) == [1, 6, 10]


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

    def test_class_counts(self):
        mat = make_matrix([[1, 0, 2], [0, 2, 3]], n_classes=3)
        assert mat.class_counts.tolist() == [1, 2, 1]
        assert mat.class_counts.sum() == mat.nnz

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
