import numpy as np
import pytest

from tsnorm.data import (CsvFormatError, LabeledDataset, RngState, TimeSeriesBatch,
                         load_csv, minibatch_indices, save_csv)


def make_dataset(n=4, d=2, t=3, seed=0, kind="binary"):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(n, d, t))
    labels = rng.integers(0, 2 if kind == "binary" else 3, size=n)
    return LabeledDataset(TimeSeriesBatch(values), labels, kind)


def test_batch_shape_and_accessors():
    b = TimeSeriesBatch(np.arange(24, dtype=float).reshape(2, 3, 4))
    assert (b.n, b.d, b.t) == (2, 3, 4)
    assert b.series(1).shape == (3, 4)
    assert b.feature(2).shape == (2, 4)
    assert b.pooled(0).shape == (8,)


def test_batch_rejects_nonfinite():
    bad = np.ones((1, 1, 2))
    bad[0, 0, 1] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        TimeSeriesBatch(bad)


def test_batch_is_frozen_and_does_not_freeze_caller():
    src = np.ones((1, 2, 2))
    b = TimeSeriesBatch(src)
    src[0, 0, 0] = 5.0  # caller array stays writable
    assert b.values[0, 0, 0] == 1.0
    with pytest.raises(ValueError):
        b.values[0, 0, 0] = 2.0


def test_labels_validated():
    batch = TimeSeriesBatch(np.zeros((2, 1, 1)))
    with pytest.raises(ValueError):
        LabeledDataset(batch, [0, 2], "binary")
    with pytest.raises(ValueError):
        LabeledDataset(batch, [0], "binary")
    with pytest.raises(ValueError):
        LabeledDataset(batch, [0, 1], "binary", weights=[0.7, 0.7])


def test_minimal_csv_roundtrip(tmp_path):
    path = tmp_path / "mini.csv"
    path.write_text(
        "series_id,timestep,f1,label\n"
        "0,0,1.5,0\n0,1,2.5,0\n"
        "1,0,-1.0,1\n1,1,0.25,1\n"
    )
    ds = load_csv(path)
    assert (ds.batch.n, ds.batch.d, ds.batch.t) == (2, 1, 2)
    assert ds.labels.tolist() == [0, 1]
    assert ds.label_kind == "binary"


def test_ragged_series_rejected(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text(
        "series_id,timestep,f1,label\n"
        "0,0,1.0,0\n0,1,2.0,0\n"
        "1,0,3.0,1\n1,1,4.0,1\n1,2,5.0,1\n"
    )
    with pytest.raises(CsvFormatError, match="ragged"):
        load_csv(path)


def test_duplicate_pair_rejected(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("series_id,timestep,f1,label\n0,0,1.0,0\n0,0,2.0,0\n")
    with pytest.raises(CsvFormatError, match="duplicate"):
        load_csv(path)


def test_non_numeric_feature_reports_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("series_id,timestep,f1,label\n0,0,1.0,0\n0,1,oops,0\n")
    with pytest.raises(CsvFormatError, match="row 3"):
        load_csv(path)


def test_missing_cell_rejected(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("series_id,timestep,f1,label\n0,0,1.0\n")
    with pytest.raises(CsvFormatError, match="row 2"):
        load_csv(path)


def test_inconsistent_label_rejected(tmp_path):
    path = tmp_path / "lbl.csv"
    path.write_text("series_id,timestep,f1,label\n0,0,1.0,0\n0,1,1.0,1\n")
    with pytest.raises(CsvFormatError, match="label"):
        load_csv(path)


def test_save_rejects_zero_features(tmp_path):
    ds = LabeledDataset(TimeSeriesBatch(np.zeros((2, 0, 3))), [0, 1], "binary")
    with pytest.raises(ValueError, match="zero feature"):
        save_csv(ds, tmp_path / "x.csv")


def test_roundtrip_bit_exact(tmp_path):
    # random doubles, including awkward magnitudes, must survive text IO exactly
    rng = np.random.default_rng(42)
    values = rng.normal(size=(5, 3, 4)) * 10.0 ** rng.integers(-8, 8, size=(5, 3, 4))
    ds = LabeledDataset(TimeSeriesBatch(values), rng.integers(0, 2, 5), "binary")
    path = tmp_path / "rt.csv"
    save_csv(ds, path)
    back = load_csv(path)
    assert np.array_equal(back.batch.values, ds.batch.values)
    assert np.array_equal(back.labels, ds.labels)


def test_ternary_labels_roundtrip(tmp_path):
    ds = make_dataset(n=6, kind="ternary", seed=3)
    path = tmp_path / "t.csv"
    save_csv(ds, path)
    back = load_csv(path)
    assert back.label_kind == "ternary"
    assert set(np.unique(back.labels)) <= {0, 1, 2}


def test_minibatch_sizes_and_partition():
    ds = make_dataset(n=5)
    batches = list(minibatch_indices(ds.n, 2, RngState(0).generator()))
    assert [len(b) for b in batches] == [2, 2, 1]
    joined = np.sort(np.concatenate(batches))
    assert joined.tolist() == [0, 1, 2, 3, 4]


def test_minibatch_no_shuffle_identity_order():
    ds = make_dataset(n=6)
    batches = list(minibatch_indices(ds.n, 4, RngState(0).generator(), shuffle=False))
    assert np.concatenate(batches).tolist() == list(range(6))


def test_minibatch_deterministic():
    ds = make_dataset(n=50)
    a = list(minibatch_indices(ds.n, 7, RngState(123).generator()))
    b = list(minibatch_indices(ds.n, 7, RngState(123).generator()))
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_minibatch_rejects_zero_batch():
    ds = make_dataset()
    with pytest.raises(ValueError):
        next(minibatch_indices(ds.n, 0, RngState(0).generator()))


def test_rng_state_children_differ():
    root = RngState(7)
    streams = {root.child(i).generator().integers(0, 1 << 62) for i in range(20)}
    assert len(streams) == 20


def test_subset_renormalizes_weights():
    ds = make_dataset(n=4)
    ds = LabeledDataset(ds.batch, ds.labels, "binary", weights=np.array([0.1, 0.2, 0.3, 0.4]))
    sub = ds.subset(np.array([1, 3]))
    assert abs(sub.weights.sum() - 1.0) < 1e-12
