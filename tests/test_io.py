import json
import re

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import deflation_chain, instance_rows, make_instance
from l1kpca import (DegenerateComponent, FitOptions, InvalidData, KernelSpec, ParseError,
                    SchemaError, build_detector, fit, gram, l2_fit, read_csv, read_model,
                    transform, write_csv, write_model)
from l1kpca.io import FORMAT_VERSION, read_csv_raw
from l1kpca.kernel import KERNEL_FAMILIES


def test_read_plain_numeric_file(tmp_path):
    path = tmp_path / "plain.csv"
    path.write_text("1.5,2.0\n3.0,4.5\n5.0,6.0\n")
    data = read_csv(str(path))
    assert data.n_samples == 3 and data.n_features == 2
    assert data.labels is None


def test_read_with_header_and_named_label_column(tmp_path):
    path = tmp_path / "labeled.csv"
    path.write_text("x,y,flag\n1,2,0\n3,4,1\n5,6,normal\n7,8,outlier\n")
    data = read_csv(str(path), header=True, label_column="flag")
    npt.assert_array_equal(data.labels, [0, 1, 0, 1])
    assert data.n_features == 2


def test_read_with_all_zero_labels(tmp_path):
    path = tmp_path / "zeros.csv"
    path.write_text("1,2,0\n3,4,0\n5,9,0\n")
    data = read_csv(str(path), label_column=2)
    assert data.labels.sum() == 0


def test_read_reports_parse_positions(tmp_path):
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1,2\n3\n")
    with pytest.raises(ParseError) as info:
        read_csv(str(ragged))
    assert info.value.line == 2

    bad_cell = tmp_path / "bad.csv"
    bad_cell.write_text("1,2\n3,abc\n")
    with pytest.raises(ParseError) as info:
        read_csv(str(bad_cell))
    assert (info.value.line, info.value.column) == (2, 2)

    bad_label = tmp_path / "badlabel.csv"
    bad_label.write_text("1,2,maybe\n")
    with pytest.raises(ParseError):
        read_csv(str(bad_label), label_column=2)

    with pytest.raises(ParseError):
        read_csv(str(tmp_path / "missing.csv"))


_LABEL_VALUES = {"0": 0, "1": 1, "normal": 0, "outlier": 1}


def per_cell_parse(text, has_header, label_idx):
    """Reference parse: float() on every stripped cell, row by row.

    Returns (values, labels) or the (message, line, column) of the first bad cell.
    """
    rows = [(no, line.split(",")) for no, line in enumerate(text.splitlines(), start=1)
            if line.strip() != ""]
    if not rows:
        return "is empty", None, None
    rows = rows[1:] if has_header else rows
    if not rows:
        return "has a header but no data rows", None, None
    width = len(rows[0][1])
    if label_idx is not None and label_idx >= width:
        return f"label column index {label_idx} out of range (row width {width})", None, None
    values, labels = [], []
    for i, row in rows:
        if len(row) != width:
            return f"ragged row: expected {width} cells, found {len(row)}", i, None
        feats = []
        for j, cell in enumerate(row, start=1):
            text = cell.strip()
            if j - 1 == label_idx:
                if text.lower() not in _LABEL_VALUES:
                    return f"unknown label value {text!r}", i, j
                labels.append(_LABEL_VALUES[text.lower()])
                continue
            try:
                feats.append(float(text))
            except ValueError:
                return f"non-numeric feature cell {text!r}", i, j
        values.append(feats)
    return np.array(values, dtype=float), labels


_pads = st.sampled_from(["", " ", "  ", "\t", " \t"])
_number_text = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["1_000", "-0.0", "+3", ".5", "1e-400", "1e400", "nan", "-inf",
                     "Infinity", "NaN", "2.5E3", "0x10", "1__0", "abc", "", "1 2"]))
_label_text = st.sampled_from(["0", "1", "normal", "outlier", "NORMAL", "Outlier", "maybe"])


@settings(derandomize=True, deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), n=st.integers(1, 6), width=st.integers(1, 5),
       has_header=st.booleans(), labelled=st.booleans(),
       ragged=st.sampled_from([None, -1, 1]))
def test_bulk_csv_parse_equals_per_cell_float_parse(tmp_path, data, n, width, has_header,
                                                     labelled, ragged):
    label_idx = data.draw(st.integers(0, width - 1)) if labelled else None
    lines = [",".join(f"x{j}" for j in range(width))] if has_header else []
    for _ in range(n):
        cells = [data.draw(_label_text if j == label_idx else _number_text)
                 for j in range(width)]
        lines.append(",".join(data.draw(_pads) + c + data.draw(_pads) for c in cells))
        lines += data.draw(st.lists(st.sampled_from(["", "   ", "\t"]), max_size=2))
    if ragged is not None:
        row = data.draw(st.integers(len(lines) - n if has_header else 0, len(lines) - 1))
        if lines[row].strip():
            lines[row] = lines[row] + ",1" if ragged > 0 else lines[row].rpartition(",")[0]
    text = "\n".join(lines) + "\n"
    path = tmp_path / "generated.csv"
    path.write_text(text, encoding="utf-8")
    expected = per_cell_parse(text, has_header, label_idx)
    if isinstance(expected[0], str):
        with pytest.raises(ParseError) as info:
            read_csv_raw(str(path), has_header, label_idx)
        assert (info.value.line, info.value.column) == expected[1:]
        assert expected[0] in str(info.value)
        return
    values, labels = read_csv_raw(str(path), has_header, label_idx)
    assert values.shape == expected[0].shape and values.tobytes() == expected[0].tobytes()
    assert (labels is None) == (label_idx is None)
    if labels is not None:
        assert labels.tolist() == expected[1]


def test_csv_round_trip_preserves_values(tmp_path):
    rng = np.random.default_rng(0)
    data, _ = make_instance(0, n=12, d=4)
    path = tmp_path / "round.csv"
    write_csv(str(path), data.values)
    again = read_csv(str(path))
    # standardizing already-standardized values is a no-op to rounding
    npt.assert_allclose(again.values, data.values, atol=1e-12)


def test_model_round_trip_reproduces_transform_exactly(tmp_path):
    data, K = make_instance(1, n=10, d=4, family="gaussian", sigma=2.0)
    model = fit(K, 2, FitOptions(starts=8, seed=1))
    path = tmp_path / "model.json"
    write_model(model, str(path))
    loaded = read_model(str(path))

    query = instance_rows(2, 5, 4)
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
    path = tmp_path / "l2.json"
    write_model(model, str(path))
    loaded = read_model(str(path))
    npt.assert_array_equal(loaded.eigenvalues, model.eigenvalues)
    npt.assert_array_equal(loaded.coefficient_vectors, model.coefficient_vectors)
    npt.assert_array_equal(loaded.training_scores(), model.training_scores())
    assert loaded.spec == model.spec


# Values every family's KernelSpec takes, whatever number type holds them, and
# values it refuses for every family: model files store all three fields and
# read back finite numbers only, never a boolean, with a whole-number degree.
SPEC_VALUES_KEPT = [("sigma", 2), ("sigma", np.float32(0.5)), ("degree", 3), ("degree", 4.0),
                    ("degree", np.int64(2)), ("offset", 0), ("offset", np.float64(2.5))]
# The polynomial family refuses -5 and overflows at 2**53; the others keep both.
SPEC_VALUES_KEPT_OFF_POLYNOMIAL = [("degree", 2**53), ("degree", -5)]
SPEC_VALUES_REFUSED = [("degree", 2.5), ("degree", np.inf), ("degree", 1e300), ("degree", 2**53 + 1),
                       ("degree", True), ("sigma", True), ("sigma", np.True_), ("offset", False)]


@pytest.mark.parametrize("family, field, value, kept", [
    *[(fam, f, v, True) for fam in KERNEL_FAMILIES for f, v in SPEC_VALUES_KEPT],
    *[(fam, f, v, True) for fam in ("linear", "gaussian") for f, v in SPEC_VALUES_KEPT_OFF_POLYNOMIAL],
    *[(fam, f, v, False) for fam in KERNEL_FAMILIES for f, v in SPEC_VALUES_REFUSED]])
def test_every_accepted_kernel_spec_round_trips_through_a_model_file(tmp_path, family, field,
                                                                     value, kept):
    if not kept:
        with pytest.raises(InvalidData, match=f"{field} must be"):
            KernelSpec(family, **{field: value})
        return
    spec = KernelSpec(family, **{field: value})
    data, _ = make_instance(5, n=10, d=3)
    model = l2_fit(gram(spec, data), 2)
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    write_model(model, str(first))
    loaded = read_model(str(first))
    assert loaded.spec == spec
    assert [type(getattr(loaded.spec, f)) for f in ("sigma", "degree", "offset")] == \
        [type(getattr(spec, f)) for f in ("sigma", "degree", "offset")] == [float, int, float]
    write_model(loaded, str(second))
    assert second.read_bytes() == first.read_bytes()


# Values KernelSpec refuses by a family's rule, and a family it does not know.
SPEC_VALUES_REFUSED_BY_FAMILY = [("gaussian", "sigma", 0), ("gaussian", "sigma", -1.0),
                                 ("polynomial", "offset", -1), ("polynomial", "degree", 0),
                                 ("linear", "family", "mystery")]


def _model_file_with_spec_value(tmp_path, family, field, value):
    """A model file of the family's default spec whose spec field was rewritten
    to value as the JSON reader returns it (numpy scalars become plain numbers)."""
    data, _ = make_instance(5, n=10, d=3)
    path = tmp_path / "model.json"
    write_model(l2_fit(gram(KernelSpec(family), data), 2), str(path))
    payload = json.loads(path.read_text())
    payload["spec"][field] = value.item() if isinstance(value, np.generic) else value
    path.write_text(json.dumps(payload))
    return path, json.loads(path.read_text())["spec"][field]


@pytest.mark.parametrize("family, field, value, kept", [
    *[(fam, f, v, True) for fam in KERNEL_FAMILIES for f, v in SPEC_VALUES_KEPT],
    *[(fam, f, v, True) for fam in ("linear", "gaussian") for f, v in SPEC_VALUES_KEPT_OFF_POLYNOMIAL],
    *[(fam, f, v, False) for fam in KERNEL_FAMILIES for f, v in SPEC_VALUES_REFUSED],
    *[(fam, f, v, False) for fam, f, v in SPEC_VALUES_REFUSED_BY_FAMILY]])
def test_model_file_spec_values_follow_kernel_spec(tmp_path, family, field, value, kept):
    # read_model hands the file's raw spec values to KernelSpec: what it keeps
    # loads unchanged, and what it refuses is a SchemaError with its message.
    path, written = _model_file_with_spec_value(tmp_path, family, field, value)
    fields = {"family": family, field: written}  # field may be the family itself
    if not kept:
        with pytest.raises(InvalidData) as refused:
            KernelSpec(**fields)
        message = re.escape(str(refused.value))
        with pytest.raises(SchemaError, match=f"^malformed model file: {message}$"):
            read_model(str(path))
        return
    loaded = read_model(str(path))
    assert loaded.spec == KernelSpec(**fields) == KernelSpec(family, **{field: value})
    assert [type(getattr(loaded.spec, f)) for f in ("sigma", "degree", "offset")] == \
        [float, int, float]


def test_write_model_refuses_detection_model(tmp_path):
    data, K = make_instance(4, n=12, d=4)
    det = build_detector(fit(K, 3, FitOptions(starts=8, seed=4)))
    path = tmp_path / "det.json"
    with pytest.raises(InvalidData, match="unsupported model type DetectionModel"):
        write_model(det, str(path))
    assert not path.exists()


def test_model_file_from_before_the_single_stopping_rule_still_loads(tmp_path):
    # Earlier versions could end a solve on a quadratic-form rule and wrote
    # terminated_by "quadratic_form_zero" into the report.
    data, K = make_instance(5, n=10, d=4, family="gaussian", sigma=2.0)
    model = fit(K, 2, FitOptions(starts=8, seed=5))
    path = tmp_path / "old.json"
    write_model(model, str(path))
    payload = json.loads(path.read_text())
    payload["components"][1]["report"]["terminated_by"] = "quadratic_form_zero"
    path.write_text(json.dumps(payload))
    loaded = read_model(str(path))
    assert loaded.components[1].report.terminated_by == "quadratic_form_zero"
    raw = instance_rows(5, 10, 4)
    npt.assert_array_equal(transform(loaded, raw), transform(model, raw))


def _rewritten_l1_model(tmp_path, path, value):
    """An L1 model file whose entry at path (a key or index per level) holds value."""
    data, K = make_instance(8, n=10, d=4, family="gaussian", sigma=2.0)
    model_path = tmp_path / "model.json"
    write_model(fit(K, 2, FitOptions(starts=8, seed=8)), str(model_path))
    payload = json.loads(model_path.read_text())
    target = payload
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    model_path.write_text(json.dumps(payload))
    return str(model_path)


@pytest.mark.parametrize("path, value, form", [
    (("components", 0, "sign_vector", 0), "1", "a list of finite numbers"),
    (("components", 1, "sign_vector", 3), None, "a list of finite numbers"),
    (("components", 0, "objective"), "7.5", "a finite number"),
    (("components", 0, "objective"), 10**400, "a finite number"),
    (("components", 1, "train_scores", 2), False, "a list of finite numbers"),
    (("train", "values", 1), [1.0], "a matrix of finite numbers"),
    (("train", "column_means"), [[0.0] * 4], "a list of finite numbers"),
    (("train", "column_stds", 0), float("inf"), "a list of finite numbers"),
], ids=["sign-string", "sign-null", "objective-string", "objective-past-float-range",
        "score-false", "values-ragged", "means-nested", "std-inf"])
def test_model_numbers_are_read_as_finite_json_numbers(tmp_path, path, value, form):
    field = [key for key in path if isinstance(key, str)][-1]
    with pytest.raises(SchemaError, match=f"^field '{field}' must be {form}$"):
        read_model(_rewritten_l1_model(tmp_path, path, value))


def test_model_label_past_the_integer_range_is_a_schema_error(tmp_path):
    path = _rewritten_l1_model(tmp_path, ("train", "labels"), [10**400] * 10)
    with pytest.raises(SchemaError, match="^malformed model file: "):
        read_model(path)


def test_l2_model_past_the_kernel_rank_loads_and_refuses_scoring(tmp_path):
    data, K = make_instance(9, n=12, d=3)  # standardized linear: rank 3
    model = l2_fit(K, 5)
    path = tmp_path / "l2.json"
    write_model(model, str(path))
    loaded = read_model(str(path))
    npt.assert_array_equal(loaded.eigenvalues[3:], 0.0)
    with pytest.raises(DegenerateComponent):
        transform(loaded, instance_rows(9, 12, 3))
    payload = json.loads(path.read_text())
    payload["eigenvalues"][4] = -1e-300
    path.write_text(json.dumps(payload))
    with pytest.raises(SchemaError, match="^eigenvalues must not be negative$"):
        read_model(str(path))


@pytest.mark.parametrize("field", ["family", "sigma", "degree", "offset"])
def test_model_spec_missing_a_field_raises_schema_error(tmp_path, field):
    data, K = make_instance(6, n=10, d=4, family="gaussian", sigma=2.0)
    path = tmp_path / "model.json"
    write_model(fit(K, 1, FitOptions(starts=8, seed=6)), str(path))
    payload = json.loads(path.read_text())
    del payload["spec"][field]
    path.write_text(json.dumps(payload))
    with pytest.raises(SchemaError, match=f"^model file lacks field '{field}'$"):
        read_model(str(path))


def test_version_mismatch_raises_schema_error(tmp_path):
    path = tmp_path / "old.json"
    path.write_text(json.dumps({"version": "l1kpca/0", "kind": "l1"}))
    with pytest.raises(SchemaError):
        read_model(str(path))


def test_truncated_file_raises_parse_error(tmp_path):
    data, K = make_instance(5, n=6, d=2)
    model = fit(K, 1, FitOptions(starts=8, seed=5))
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
    model = fit(K, 2, FitOptions(starts=8, seed=6))
    path = tmp_path / "small.json"
    write_model(model, str(path))
    assert path.stat().st_size < 64 * 1024
