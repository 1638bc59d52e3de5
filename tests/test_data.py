from dataclasses import asdict

import numpy as np
import pytest

from comet.data import (AnomalySpec, Dataset, SyntheticSpec, TimeSeries,
                        apply_standardization, load_csv, standardize,
                        synthesize, train_statistics, window_offsets, windows,
                        write_csv)
from comet.errors import ConfigError, DataError


class TestLoadCsv:
    def test_small_table(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("a,b\n1,2\n3,4\n5,6\n")
        ts = load_csv(p)
        assert ts.values.shape == (3, 2)
        assert np.array_equal(ts.values, [[1, 2], [3, 4], [5, 6]])
        assert ts.var_names == ["a", "b"]
        assert ts.labels is None

    @pytest.mark.parametrize("header", ['"x","label"', 'x, label'],
                             ids=["quoted", "spaced"])
    def test_label_column_found_by_parsed_header(self, tmp_path, header):
        p = tmp_path / "b.csv"
        p.write_text(f"{header}\n1.5,0\n2.5,1\n")
        ts = load_csv(p, label_column="label")
        assert ts.var_names == ["x"] and ts.labels.tolist() == [0, 1]

    def test_absent_label_column_gives_no_labels(self, tmp_path):
        p = tmp_path / "b.csv"
        p.write_text("x,y\n1.5,0\n2.5,1\n")
        ts = load_csv(p, label_column="label")
        assert ts.labels is None and ts.var_names == ["x", "y"]

    def test_label_column_extracted(self, tmp_path):
        p = tmp_path / "b.csv"
        p.write_text("x,label\n1.5,0\n2.5,1\n")
        ts = load_csv(p, label_column="label")
        assert ts.values.shape == (2, 1)
        assert ts.labels.tolist() == [0, 1]
        assert ts.var_names == ["x"]

    def test_byte_order_mark_skipped(self, tmp_path):
        # a UTF-8 byte-order mark stuck to the first column's name, so its
        # labels went unfound and it was read as a variable
        p = tmp_path / "bom.csv"
        p.write_bytes(b"\xef\xbb\xbflabel,x1,x2\n0,1.5,2\n1,2.5,3\n")
        ts = load_csv(p, label_column="label")
        assert ts.var_names == ["x1", "x2"] and ts.labels.tolist() == [0, 1]
        assert np.array_equal(ts.values, [[1.5, 2], [2.5, 3]])

    @pytest.mark.parametrize("cell", ["2", "0.5", "-1", "nan"])
    def test_non_binary_label_names_row_and_column(self, tmp_path, cell):
        # said only "label column must contain only 0/1"
        p = tmp_path / "e.csv"
        p.write_text(f"x,y\n1.5,0\n2.5,1.0\n3.5,{cell}\n4.5,7\n")
        with pytest.raises(DataError, match=f"e.csv: row 3, column 'y': '{cell}' is not 0/1"):
            load_csv(p, label_column="y")

    def test_parse_error_names_row(self, tmp_path):
        p = tmp_path / "c.csv"
        rows = "\n".join("1,2" for _ in range(6))
        p.write_text(f"a,b\n{rows}\nabc,9\n")
        with pytest.raises(DataError, match="row 7"):
            load_csv(p)

    def test_ragged_row_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b\n1,2\n3\n")
        with pytest.raises(DataError, match="row 2"):
            load_csv(p)

    @pytest.mark.parametrize("text", ["\n" * 300, "\n1,2\n3,4\n"],
                             ids=["blank_lines", "blank_header"])
    def test_no_variable_columns_rejected(self, tmp_path, text):
        # a blank header line gave a (rows, 0) table that training crashed on
        p = tmp_path / "blank.csv"
        p.write_text(text)
        with pytest.raises(DataError, match="blank.csv: no variable columns"):
            load_csv(p)

    def test_label_only_table_gives_labels(self, tmp_path):
        p = tmp_path / "labels.csv"
        p.write_text("label\n0\n1\n")
        ts = load_csv(p, label_column="label")
        assert ts.values.shape == (2, 0) and ts.labels.tolist() == [0, 1]

    def test_round_trip_via_write_csv(self, tmp_path):
        rng = np.random.default_rng(0)
        ts = TimeSeries(values=rng.normal(size=(8, 3)),
                        labels=(rng.random(8) < 0.5).astype(np.int64),
                        var_names=["u", "v", "w"])
        p = tmp_path / "e.csv"
        write_csv(p, ts, label_column="label")
        back = load_csv(p, label_column="label")
        assert np.array_equal(back.values, ts.values)
        assert np.array_equal(back.labels, ts.labels)


class TestStandardize:
    def test_train_moments(self):
        rng = np.random.default_rng(1)
        ds = Dataset(
            train=TimeSeries(values=rng.normal(3.0, 2.0, size=(500, 2))),
            test=TimeSeries(values=rng.normal(3.0, 2.0, size=(100, 2))),
        )
        out = standardize(ds)
        assert np.max(np.abs(out.train.values.mean(axis=0))) <= 1e-10
        assert np.max(np.abs(out.train.values.std(axis=0) - 1.0)) <= 1e-6

    def test_constant_variable_zeroed(self):
        ds = Dataset(
            train=TimeSeries(values=np.full((10, 1), 7.0)),
            test=TimeSeries(values=np.full((4, 1), 7.0)),
        )
        out = standardize(ds)
        assert np.array_equal(out.train.values, np.zeros((10, 1)))

    def test_constant_training_variable_is_centred_only(self):
        # std 1 for a variable stuck at 5.0: a 1e-6 test offset stays 1e-6
        rng = np.random.default_rng(4)
        train = np.column_stack([np.full(200, 5.0), rng.normal(size=200)])
        mean, std = train_statistics(train)
        assert mean[0] == 5.0 and std[0] == 1.0
        assert std[1] == train.std(axis=0)[1]  # other variables unchanged
        test = np.array([[5.0 + 1e-6, 0.0]])
        assert apply_standardization(test, mean, std)[0, 0] == pytest.approx(1e-6)
        ds = standardize(Dataset(train=TimeSeries(values=train),
                                 test=TimeSeries(values=test)))
        for split, values in ((ds.train, train), (ds.test, test)):
            assert np.array_equal(split.values, apply_standardization(values, mean, std))
        assert ds.test.values[0, 0] == pytest.approx(1e-6)

    def test_test_uses_train_stats(self):
        train = TimeSeries(values=np.random.default_rng(2).normal(size=(100, 1)))
        shifted = TimeSeries(values=train.values[:20] + 100.0)
        out = standardize(Dataset(train=train, test=shifted))
        # a shifted test set keeps its shift after standardization
        assert out.test.values.mean() > 50.0

    def test_apply_standardization_matches(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=(50, 2))
        mean, std = values.mean(axis=0), values.std(axis=0)
        ds = standardize(Dataset(train=TimeSeries(values=values.copy()),
                                 test=TimeSeries(values=values.copy())))
        direct = apply_standardization(values, mean, std)
        assert np.allclose(ds.train.values, direct)


class TestWindows:
    def test_grid_ends_exactly_at_length(self):
        assert window_offsets(250, 100, 50).tolist() == [0, 50, 100, 150]

    def test_single_window(self):
        assert window_offsets(100, 100, 50).tolist() == [0]

    def test_tail_window_appended(self):
        assert window_offsets(230, 100, 50).tolist() == [0, 50, 100, 130]

    def test_too_short_rejected(self):
        with pytest.raises(DataError):
            window_offsets(99, 100, 50)

    def test_offsets_increasing_and_cover_everything(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            length = int(rng.integers(100, 700))
            offs = window_offsets(length, 100, 50)
            assert np.all(np.diff(offs) > 0)
            covered = np.zeros(length, dtype=bool)
            for o in offs:
                covered[o : o + 100] = True
            assert covered.all()

    def test_windows_values(self):
        series = np.arange(24, dtype=float).reshape(12, 2)
        wins, offs = windows(series, 6, 4)
        assert offs.tolist() == [0, 4, 6]
        assert np.array_equal(wins[1], series[4:10])


class TestSynthesize:
    def test_no_anomalies_all_labels_zero(self):
        spec = SyntheticSpec(n_vars=2, train_length=300, test_length=120, seed=0)
        ds = synthesize(spec)
        assert ds.train.values.shape == (300, 2)
        assert ds.test.values.shape == (120, 2)
        assert ds.test.labels.sum() == 0
        assert ds.train.labels is None

    def test_point_anomaly_label_and_magnitude(self):
        spec = SyntheticSpec(
            n_vars=1, train_length=400, test_length=200, seed=1,
            anomalies=[AnomalySpec("point", 50, 1, 8.0)],
        )
        ds = synthesize(spec)
        assert ds.test.labels.tolist() == [1 if t == 50 else 0 for t in range(200)]
        sigma = ds.train.values.std(axis=0)
        clean = synthesize(SyntheticSpec(n_vars=1, train_length=400,
                                         test_length=200, seed=1))
        bump = ds.test.values[50] - clean.test.values[50]
        assert np.allclose(bump, 8.0 * sigma)

    def test_collective_span_labeled(self):
        spec = SyntheticSpec(
            n_vars=2, train_length=300, test_length=150, seed=2,
            anomalies=[AnomalySpec("collective", 40, 30, 6.0)],
        )
        labels = synthesize(spec).test.labels
        assert labels[40:70].all()
        assert labels.sum() == 30

    def test_contextual_stays_in_range(self):
        spec = SyntheticSpec(
            n_vars=1, train_length=500, test_length=300, seed=3,
            anomalies=[AnomalySpec("contextual", 100, 40, 1.0)],
        )
        ds = synthesize(spec)
        clean = synthesize(SyntheticSpec(n_vars=1, train_length=500,
                                         test_length=300, seed=3))
        seg = ds.test.values[100:140, 0]
        lo, hi = clean.test.values[:, 0].min(), clean.test.values[:, 0].max()
        margin = 0.1 * (hi - lo)
        assert seg.min() >= lo - margin and seg.max() <= hi + margin
        assert not np.allclose(seg, clean.test.values[100:140, 0])

    def test_reproducible_from_spec_and_seed(self):
        spec = SyntheticSpec(
            n_vars=3, train_length=200, test_length=100, seed=4,
            anomalies=[AnomalySpec("point", 10, 1, 6.0)],
        )
        a, b = synthesize(spec), synthesize(spec)
        assert np.array_equal(a.train.values, b.train.values)
        assert np.array_equal(a.test.values, b.test.values)

    def test_drift_ramp(self):
        base = SyntheticSpec(n_vars=1, train_length=300, test_length=200, seed=5)
        drifted = SyntheticSpec(n_vars=1, train_length=300, test_length=200,
                                seed=5, drift_sigma=2.0)
        a, b = synthesize(base), synthesize(drifted)
        sigma = a.train.values.std(axis=0)
        delta = b.test.values - a.test.values
        assert np.allclose(delta[0], 0.0)
        assert np.allclose(delta[-1], 2.0 * sigma * (199 / 200), atol=1e-12)
        assert np.array_equal(a.train.values, b.train.values)

    def test_overlapping_anomalies_rejected(self):
        spec = SyntheticSpec(
            train_length=300, test_length=200,
            anomalies=[AnomalySpec("collective", 10, 30, 5.0),
                       AnomalySpec("point", 20, 1, 5.0)],
        )
        with pytest.raises(ConfigError, match="overlap"):
            spec.validate()

    def test_out_of_bounds_anomaly_rejected(self):
        spec = SyntheticSpec(
            train_length=300, test_length=100,
            anomalies=[AnomalySpec("collective", 90, 30, 5.0)],
        )
        with pytest.raises(ConfigError):
            spec.validate()

    @pytest.mark.parametrize("name,value", [
        ("noise_level", float("nan")), ("drift_sigma", float("inf")),
        ("drift_sigma", float("-inf")),
    ])
    def test_non_finite_spec_field_rejected(self, name, value):
        spec = SyntheticSpec(train_length=300, test_length=100, **{name: value})
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            synthesize(spec)

    @pytest.mark.parametrize("magnitude", [float("nan"), float("inf")])
    def test_non_finite_anomaly_magnitude_rejected(self, magnitude):
        spec = SyntheticSpec(
            train_length=300, test_length=100,
            anomalies=[AnomalySpec("point", 10, 1, magnitude)],
        )
        with pytest.raises(ConfigError, match="magnitude must be finite"):
            synthesize(spec)

    def test_spec_dict_round_trip(self):
        spec = SyntheticSpec(
            n_vars=2, train_length=300, test_length=200, seed=6,
            anomalies=[AnomalySpec("point", 9, 1, 7.0)],
        )
        again = SyntheticSpec.from_dict(asdict(spec))
        assert again == spec
