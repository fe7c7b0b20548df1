import pickle
import warnings

import numpy as np
import pytest

from ufrank import (Dataset, IngestionError, Nominal, Numeric, compute_stats,
                    load_csv, write_csv)


def small_mixed():
    """4 rows: one numeric column [0,1,2,3], one nominal with codes
    [0,0,1,2] over a 3-label domain."""
    X = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 1.0], [3.0, 2.0]])
    return Dataset("mixed", ("num", "col"),
                   (Numeric(), Nominal(("a", "b", "c"))), X)


class TestKinds:
    def test_nominal_requires_domain(self):
        with pytest.raises(ValueError):
            Nominal(())

    def test_nominal_rejects_duplicate_labels(self):
        with pytest.raises(ValueError):
            Nominal(("a", "a"))


class TestDataset:
    def test_matrix_is_read_only(self):
        d = small_mixed()
        with pytest.raises(ValueError):
            d.X[0, 0] = 9.0
        np.testing.assert_array_equal(d.numeric_mask, [True, False])
        with pytest.raises(ValueError):
            d.numeric_mask[0] = False

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Dataset("bad", ("a",), (Numeric(),), np.zeros((2, 2)))

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Dataset("bad", ("a", "a"), (Numeric(), Numeric()), np.zeros((2, 2)))

    def test_one_dimensional_matrix_rejected(self):
        with pytest.raises(ValueError, match="2-dimensional"):
            Dataset("bad", ("a",), (Numeric(),), np.zeros(3))

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError, match="at least one example"):
            Dataset("bad", ("a",), (Numeric(),), np.zeros((0, 1)))

    def test_non_finite_rejected(self):
        X = np.array([[np.nan, 0.0]])
        with pytest.raises(ValueError):
            Dataset("bad", ("a", "b"), (Numeric(), Numeric()), X)

    def test_nominal_codes_validated(self):
        X = np.array([[3.0], [0.0]])  # domain has 2 labels, code 3 invalid
        with pytest.raises(ValueError):
            Dataset("bad", ("a",), (Nominal(("x", "y")),), X)
        X = np.array([[0.5]])  # non-integral code
        with pytest.raises(ValueError):
            Dataset("bad", ("a",), (Nominal(("x", "y")),), X)

    def test_target_length_checked(self):
        with pytest.raises(ValueError):
            Dataset("bad", ("a",), (Numeric(),), np.zeros((3, 1)),
                    target=np.zeros(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_target_rejected(self, bad):
        with pytest.raises(ValueError, match="target contains non-finite"):
            Dataset("bad", ("a",), (Numeric(),), np.zeros((3, 1)),
                    target=np.array([0.0, bad, 1.0]))

    def test_nominal_target_codes_checked(self):
        X = np.zeros((3, 1))
        with pytest.raises(ValueError, match="the target holds codes outside"):
            Dataset("bad", ("a",), (Numeric(),), X, target=[0.0, 2.0, 1.0],
                    target_kind=Nominal(("x", "y")))
        d = Dataset("ok", ("a",), (Numeric(),), X, target=[0.0, 1.0, 1.0],
                    target_kind=Nominal(("x", "y")))
        assert d.restrict_rows(np.array([1, 2])).target_kind == Nominal(
            ("x", "y"))

    def test_without_target_drops_only_target(self):
        d = small_mixed()
        dt = Dataset(d.name, d.attr_names, d.kinds, d.X,
                     target=np.arange(4.0))
        view = dt.without_target()
        assert view.target is None
        assert view.X is dt.X

    def test_restrict_rows_subsets_and_keeps_kinds(self):
        d = small_mixed()
        sub = d.restrict_rows(np.array([1, 3]))
        assert sub.m == 2
        assert sub.kinds == d.kinds
        np.testing.assert_array_equal(sub.X, d.X[[1, 3]])

    def test_restrict_rows_validates(self):
        d = small_mixed()
        with pytest.raises(ValueError):
            d.restrict_rows(np.array([4]))
        with pytest.raises(ValueError):
            d.restrict_rows(np.array([], dtype=np.intp))
        # float rows are not truncated, and a boolean mask is not read as
        # the indices 0 and 1
        with pytest.raises(ValueError, match="integer"):
            d.restrict_rows([0.5, 1.7])
        with pytest.raises(ValueError, match="integer"):
            d.restrict_rows(np.array([True, False, True, False]))
        assert d.restrict_rows(np.array([1, 3], dtype=np.uint8)).m == 2


class TestComputeStats:
    def test_hand_computed_values(self):
        # numeric [0,1,2,3]: mean 1.5, population variance 1.25, range 3
        # nominal counts (2,1,1)/4: gini 1 - (4+1+1)/16 = 0.625
        d = small_mixed()
        s = compute_stats(d)
        assert s.denominator[0] == pytest.approx(1.25, abs=0)
        assert s.denominator[1] == pytest.approx(0.625, abs=0)
        assert s.value_range[0] == 3.0
        assert np.isnan(s.value_range[1])  # no range on a nominal column

    def test_nominal_gini_is_zero_on_a_constant_subset(self):
        d = small_mixed()
        s = compute_stats(d.restrict_rows(np.array([0, 1])))  # codes 0,0 only
        assert s.denominator[1] == 0.0  # constant on the subset

    def test_multiplicity_counts(self):
        # row 0 twice: stats equal those of an explicitly duplicated matrix
        d = small_mixed()
        dup = Dataset("dup", d.attr_names, d.kinds,
                      d.X[np.array([0, 0, 1])])
        a = compute_stats(d.restrict_rows(np.array([0, 0, 1])))
        b = compute_stats(dup)
        np.testing.assert_array_equal(a.denominator, b.denominator)
        np.testing.assert_array_equal(a.value_range, b.value_range)

    def test_dataset_stats_are_compute_stats_kept(self):
        d = small_mixed()
        s = d.stats
        want = compute_stats(d)
        for name in ("denominator", "value_range"):
            assert getattr(s, name).tobytes() == getattr(want, name).tobytes()
        assert d.stats is s
        # a row subset is a new dataset with its own rows' statistics
        sub = d.restrict_rows(np.array([0, 1]))
        np.testing.assert_array_equal(sub.stats.denominator,
                                      compute_stats(sub).denominator)
        assert sub.stats.denominator[1] == 0.0 != s.denominator[1]
        # a dataset pickled after the access carries them
        back = pickle.loads(pickle.dumps(d))
        assert "stats" in vars(back)
        assert back.stats.denominator.tobytes() == s.denominator.tobytes()

    def test_overflowing_variance_is_inf_without_a_warning(self):
        # column a alternates +-1e160: finite values whose squares overflow
        rng = np.random.default_rng(0)
        X = np.column_stack([(-1.0) ** np.arange(12) * 1e160,
                             rng.normal(size=12), rng.normal(size=12)])
        d = Dataset("huge", ("a", "b", "c"), (Numeric(),) * 3, X)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = compute_stats(d)
        assert s.denominator[0] == np.inf
        assert np.isfinite(s.denominator[1:]).all()
        assert s.value_range[0] == 2e160


class TestCsv:
    def write(self, tmp_path, text, name="t.csv"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return path

    def test_numeric_and_nominal_inference(self, tmp_path):
        path = self.write(tmp_path, "x,color\n1.5,red\n2.5,blue\n3.5,red\n")
        d = load_csv(path)
        assert isinstance(d.kinds[0], Numeric)
        assert isinstance(d.kinds[1], Nominal)
        # first-appearance domain order
        assert d.kinds[1].domain == ("red", "blue")
        np.testing.assert_array_equal(d.X[:, 1], [0.0, 1.0, 0.0])

    def test_target_extraction(self, tmp_path):
        path = self.write(tmp_path, "x,y,cls\n1,2,0\n3,4,1\n")
        d = load_csv(path, target_column="cls")
        assert d.attr_names == ("x", "y")
        np.testing.assert_array_equal(d.target, [0.0, 1.0])
        assert d.target_kind == Numeric()

    def test_text_target_keeps_its_kind_and_labels(self, tmp_path):
        path = self.write(tmp_path, "x,cls\n1,red\n2,blue\n3,red\n")
        d = load_csv(path, target_column="cls")
        assert d.target_kind == Nominal(("red", "blue"))
        np.testing.assert_array_equal(d.target, [0.0, 1.0, 0.0])
        out = tmp_path / "back.csv"
        write_csv(d, out)
        assert out.read_text(encoding="utf-8").splitlines()[1:] == [
            "1.0,red", "2.0,blue", "3.0,red"]
        back = load_csv(out, target_column="target")
        assert back.target_kind == d.target_kind
        np.testing.assert_array_equal(back.target, d.target)

    def test_byte_order_mark_is_not_part_of_the_first_name(self, tmp_path):
        # spreadsheet "CSV UTF-8" exports start with EF BB BF
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfa,b\n1,2\n3,4\n")
        assert load_csv(path).attr_names == ("a", "b")
        d = load_csv(path, target_column="a")
        assert d.attr_names == ("b",)
        np.testing.assert_array_equal(d.target, [1.0, 3.0])

    def test_missing_cell_names_line_and_column(self, tmp_path):
        path = self.write(tmp_path, "x,y\n1,\n")
        with pytest.raises(IngestionError) as info:
            load_csv(path)
        assert str(info.value) == "t.csv: missing value at line 2, column 'y'"

    def test_ragged_row_rejected(self, tmp_path):
        path = self.write(tmp_path, "x,y\n1,2\n3\n")
        with pytest.raises(IngestionError) as info:
            load_csv(path)
        assert str(info.value) == "t.csv: line 3 has 1 fields, expected 2"

    def test_duplicate_header_rejected(self, tmp_path):
        path = self.write(tmp_path, "x,x\n1,2\n")
        with pytest.raises(IngestionError) as info:
            load_csv(path)
        assert str(info.value) == "t.csv: duplicate column names in header"

    def test_unknown_target_rejected(self, tmp_path):
        path = self.write(tmp_path, "x,y\n1,2\n")
        with pytest.raises(IngestionError) as info:
            load_csv(path, target_column="nope")
        assert str(info.value) == "t.csv: no column named 'nope'"

    def test_missing_file(self, tmp_path):
        path = tmp_path / "absent.csv"
        with pytest.raises(IngestionError) as info:
            load_csv(path)
        assert str(info.value) == f"no such file: {path}"

    def test_schema_forces_nominal(self, tmp_path):
        path = self.write(tmp_path, "x,y\n1,2\n3,4\n")
        d = load_csv(path, schema=["numeric", "nominal"])
        assert isinstance(d.kinds[1], Nominal)
        assert d.kinds[1].domain == ("2", "4")

    def test_schema_numeric_on_text_fails(self, tmp_path):
        path = self.write(tmp_path, "x\n1\nred\n")
        with pytest.raises(IngestionError) as info:
            load_csv(path, schema=["numeric"])
        assert str(info.value) == ("t.csv: column 'x' declared numeric but "
                                   "line 3 holds 'red'")

    def test_target_schema_entry_is_ignored(self, tmp_path):
        # a "nominal" entry would recode 10, 20, 30 as 0, 1, 2
        path = self.write(tmp_path, "a,b,y\n1,x,10\n2,y,20\n3,x,30\n")
        d = load_csv(path, schema=["numeric", "nominal", "nominal"],
                     target_column="y")
        np.testing.assert_array_equal(d.target, [10.0, 20.0, 30.0])
        assert d.kinds == (Numeric(), Nominal(("x", "y")))

    def test_numeric_schema_entry_on_a_text_target_does_not_raise(self,
                                                                  tmp_path):
        path = self.write(tmp_path, "a,y\n1,red\n2,blue\n3,red\n")
        d = load_csv(path, schema=["numeric", "numeric"], target_column="y")
        np.testing.assert_array_equal(d.target, [0.0, 1.0, 0.0])

    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        X = np.column_stack([rng.uniform(size=6),
                             rng.integers(0, 3, size=6).astype(float)])
        d = Dataset("rt", ("num", "cat"),
                    (Numeric(), Nominal(("a", "b", "c"))), X,
                    target=rng.uniform(size=6))
        out = tmp_path / "rt.csv"
        write_csv(d, out)
        assert out.read_text(encoding="utf-8").startswith("num,cat,target\n")
        back = load_csv(out, schema=["numeric", "nominal", "numeric"],
                        target_column="target")
        assert back.name == "rt"
        # numeric columns and target are bit-exact via repr round-trip;
        # nominal codes are re-assigned by first appearance, so compare
        # the decoded labels instead
        np.testing.assert_array_equal(back.X[:, 0], d.X[:, 0])
        np.testing.assert_array_equal(back.target, d.target)
        labels = [d.kinds[1].domain[int(v)] for v in d.X[:, 1]]
        back_labels = [back.kinds[1].domain[int(v)] for v in back.X[:, 1]]
        assert back_labels == labels

    def test_round_trip_keeps_nominal_codes(self, tmp_path):
        # a declared domain that is not in first-seen order keeps each code
        X = np.array([[2.0, 0.5], [0.0, 1.5], [2.0, 2.5], [1.0, 3.5]])
        d = Dataset("codes", ("cat", "num"),
                    (Nominal(("p", "q", "r")), Numeric()), X)
        out = tmp_path / "codes.csv"
        write_csv(d, out)
        back = load_csv(out, schema=d.kinds)
        assert back.kinds == d.kinds
        np.testing.assert_array_equal(back.X, d.X)

    def test_declared_domain_keeps_its_order(self, tmp_path):
        path = self.write(tmp_path, "x,c\n1,b\n2,a\n3,b\n")
        d = load_csv(path, schema=["numeric", Nominal(("c", "b", "a"))])
        assert d.kinds[1] == Nominal(("c", "b", "a"))
        np.testing.assert_array_equal(d.X[:, 1], [1.0, 2.0, 1.0])

    def test_numeric_kind_entry_is_the_numeric_string(self, tmp_path):
        path = self.write(tmp_path, "x,y\n1,2\n3,4\n")
        d = load_csv(path, schema=[Numeric(), "numeric"])
        assert d.kinds == (Numeric(), Numeric())
        np.testing.assert_array_equal(d.X, [[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(IngestionError, match="declared numeric"):
            load_csv(self.write(tmp_path, "x\n1\nred\n", "text.csv"),
                     schema=[Numeric()])

    def test_nan_cell_makes_an_inferred_column_nominal(self, tmp_path):
        path = self.write(tmp_path, "x,y\n1,2\nnan,4\n")
        d = load_csv(path)
        assert d.kinds == (Nominal(("1", "nan")), Numeric())

    @pytest.mark.parametrize("text, kwargs, message", [
        ("", {}, "t.csv: empty file, expected a header row"),
        ("\n\n", {}, "t.csv: empty file, expected a header row"),
        ("x,y\n", {}, "t.csv: no data rows"),
        ("x,y\n1, \n", {}, "t.csv: missing value at line 2, column 'y'"),
        ("x,y\n1,2\n", {"schema": ["numeric"]},
         "schema length 1 does not match 2 columns"),
        ("y\n1\n", {"target_column": "y"},
         "t.csv: no attribute columns besides the target"),
        ("x,y\n1,2\nnan,4\n", {"schema": ["numeric", "numeric"]},
         "t.csv: column 'x' declared numeric but line 3 holds 'nan'"),
        ("x,c\n1,a\n2,b\n3,z\n",
         {"schema": ["numeric", Nominal(("a", "b"))]},
         "t.csv: line 4, column 'c': value 'z' outside the declared domain"),
        ("x,y\n1,2\n", {"schema": ["numeric", "ordinal"]},
         "schema entries must be 'numeric', 'nominal', or an AttributeKind, "
         "got 'ordinal'"),
    ], ids=["empty", "blank-lines", "header-only", "blank-cell", "schema-length",
            "target-only", "numeric-nan", "outside-domain", "invalid-entry"])
    def test_messages(self, tmp_path, text, kwargs, message):
        with pytest.raises(IngestionError) as info:
            load_csv(self.write(tmp_path, text), **kwargs)
        assert str(info.value) == message

    @pytest.mark.parametrize("content", [
        None, b"x,y\n1,\xff\n", b"x\n" + b"1" * (131072 + 1) + b"\n",
    ], ids=["directory", "not-utf8", "field-over-limit"])
    def test_unreadable_file_is_an_ingestion_error(self, tmp_path, content):
        path = tmp_path / "t.csv"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        with pytest.raises(IngestionError, match=f"cannot read {path}"):
            load_csv(path)
