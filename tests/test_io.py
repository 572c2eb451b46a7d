import json

import numpy as np
import numpy.testing as npt
import pytest

from conftest import deflation_chain, make_instance
from l1kpca import (DatasetFile, FitOptions, ParseError, SchemaError, build_detector,
                    fit, gram, l2_fit, read_csv, read_model, transform, write_csv,
                    write_model)
from l1kpca.io import FORMAT_VERSION


def test_read_plain_numeric_file(tmp_path):
    path = tmp_path / "plain.csv"
    path.write_text("1.5,2.0\n3.0,4.5\n5.0,6.0\n")
    data = read_csv(DatasetFile(str(path)))
    assert data.n_samples == 3 and data.n_features == 2
    assert data.labels is None


def test_read_with_header_and_named_label_column(tmp_path):
    path = tmp_path / "labeled.csv"
    path.write_text("x,y,flag\n1,2,0\n3,4,1\n5,6,normal\n7,8,outlier\n")
    data = read_csv(DatasetFile(str(path), has_header=True, label_column="flag"))
    npt.assert_array_equal(data.labels, [0, 1, 0, 1])
    assert data.n_features == 2


def test_read_with_all_zero_labels(tmp_path):
    path = tmp_path / "zeros.csv"
    path.write_text("1,2,0\n3,4,0\n5,9,0\n")
    data = read_csv(DatasetFile(str(path), label_column=2))
    assert data.labels.sum() == 0


def test_read_reports_parse_positions(tmp_path):
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1,2\n3\n")
    with pytest.raises(ParseError) as info:
        read_csv(DatasetFile(str(ragged)))
    assert info.value.line == 2

    bad_cell = tmp_path / "bad.csv"
    bad_cell.write_text("1,2\n3,abc\n")
    with pytest.raises(ParseError) as info:
        read_csv(DatasetFile(str(bad_cell)))
    assert (info.value.line, info.value.column) == (2, 2)

    bad_label = tmp_path / "badlabel.csv"
    bad_label.write_text("1,2,maybe\n")
    with pytest.raises(ParseError):
        read_csv(DatasetFile(str(bad_label), label_column=2))

    with pytest.raises(ParseError):
        read_csv(DatasetFile(str(tmp_path / "missing.csv")))


def test_csv_round_trip_preserves_values(tmp_path):
    rng = np.random.default_rng(0)
    data, _ = make_instance(0, n=12, d=4)
    path = tmp_path / "round.csv"
    write_csv(str(path), data.values)
    again = read_csv(DatasetFile(str(path)))
    # standardizing already-standardized values is a no-op to rounding
    npt.assert_allclose(again.values, data.values, atol=1e-12)


def test_model_round_trip_reproduces_transform_exactly(tmp_path):
    data, K = make_instance(1, n=10, d=4, family="gaussian", sigma=2.0)
    model = fit(K, 2, FitOptions(starts=8, seed=1), train=data)
    path = tmp_path / "model.json"
    write_model(model, str(path))
    loaded = read_model(str(path))

    query, _ = make_instance(2, n=5, d=4)
    npt.assert_array_equal(transform(loaded, query), transform(model, query))
    for a, b in zip(loaded.components, model.components):
        npt.assert_array_equal(a.sign_vector, b.sign_vector)
        assert a.objective == b.objective
        assert a.report.norm_trace == b.report.norm_trace
        assert a.report.lagrange_multiplier == b.report.lagrange_multiplier
    # the deflated chain rebuilt from the stored data + spec starts at the fit's Gram
    chain = deflation_chain(gram(loaded.spec, loaded.train_ref), loaded)
    assert len(chain) == 3
    npt.assert_allclose(chain[0], K.entries, atol=0)


def test_l2_model_round_trip(tmp_path):
    data, K = make_instance(3, n=8, d=3)
    model = l2_fit(K, 3)
    model.train_ref = data
    path = tmp_path / "l2.json"
    write_model(model, str(path))
    loaded = read_model(str(path))
    npt.assert_array_equal(loaded.eigenvalues, model.eigenvalues)
    npt.assert_array_equal(loaded.coefficient_vectors, model.coefficient_vectors)
    npt.assert_array_equal(loaded.training_scores(), model.training_scores())


def test_detection_model_round_trip(tmp_path):
    data, K = make_instance(4, n=12, d=4)
    det = build_detector(fit(K, 3, FitOptions(starts=8, seed=4), train=data), data)
    path = tmp_path / "det.json"
    write_model(det, str(path))
    loaded = read_model(str(path))
    npt.assert_array_equal(loaded.score_matrix, det.score_matrix)
    npt.assert_array_equal(loaded.variances, det.variances)
    assert loaded.alpha == det.alpha
    assert loaded.retained == det.retained


def test_version_mismatch_raises_schema_error(tmp_path):
    path = tmp_path / "old.json"
    path.write_text(json.dumps({"version": "l1kpca/0", "kind": "l1"}))
    with pytest.raises(SchemaError):
        read_model(str(path))


def test_truncated_file_raises_parse_error(tmp_path):
    data, K = make_instance(5, n=6, d=2)
    model = fit(K, 1, FitOptions(starts=8, seed=5), train=data)
    path = tmp_path / "trunc.json"
    write_model(model, str(path))
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    with pytest.raises(ParseError):
        read_model(str(path))


def test_unknown_kind_raises_schema_error(tmp_path):
    path = tmp_path / "weird.json"
    path.write_text(json.dumps({"version": FORMAT_VERSION, "kind": "mystery"}))
    with pytest.raises(SchemaError):
        read_model(str(path))


def test_model_file_is_compact(tmp_path):
    data, K = make_instance(6, n=8, d=3)
    model = fit(K, 2, FitOptions(starts=8, seed=6), train=data)
    path = tmp_path / "small.json"
    write_model(model, str(path))
    assert path.stat().st_size < 64 * 1024
