import json
import re
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from l1kpca import (DeflatedGram, FitOptions, GramMatrix, KernelSpec, build_detector, deflate,
                    fit, gram, kernel, l1, l2_fit, pr_auc, read_csv, write_model)
from l1kpca.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def make_synth_files(tmp_path, capsys, n=40, d=4, rank=2, r=10, seed=7):
    noisy = tmp_path / "noisy.csv"
    normal = tmp_path / "normal.csv"
    code, out, _ = run_cli(capsys, "synth", "--n", str(n), "--d", str(d), "--rank", str(rank),
                           "--r", str(r), "--seed", str(seed),
                           "--out-noisy", str(noisy), "--out-normal", str(normal))
    assert code == 0
    return noisy, normal


def test_synth_then_fit_then_transform_reproduces_train_scores(tmp_path, capsys):
    noisy, normal = make_synth_files(tmp_path, capsys)
    model_path = tmp_path / "model.json"
    code, out, _ = run_cli(capsys, "fit", "--data", str(noisy), "--label-column", "4",
                           "--kernel", "linear", "--components", "2",
                           "--model", str(model_path))
    assert code == 0
    fit_payload = json.loads(out)
    assert fit_payload["config"]["command"] == "fit"
    assert len(fit_payload["objectives"]) == 2

    code, out, _ = run_cli(capsys, "transform", "--model", str(model_path),
                           "--data", str(noisy), "--label-column", "4")
    assert code == 0
    scores = np.array(json.loads(out)["scores"])

    from l1kpca import read_model
    model = read_model(str(model_path))
    expected = np.column_stack([c.train_scores for c in model.components])
    npt.assert_allclose(scores, expected, atol=1e-9)


def test_oracle_two_point_instance_reports_zero_gap(tmp_path, capsys):
    # rows (1, 0) and (1, 1) produce the Gram [[1,1],[1,2]] under "no
    # standardization": emulate by writing pre-standardized values whose
    # restandardization keeps the optimum assignment; instead check gap on
    # a small seeded file where enumeration is exact
    rng = np.random.default_rng(0)
    path = tmp_path / "small.csv"
    rows = rng.standard_normal((8, 3))
    path.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in rows) + "\n")
    code, out, _ = run_cli(capsys, "oracle", "--data", str(path), "--kernel", "linear",
                           "--starts", "16")
    assert code == 0
    payload = json.loads(out)
    assert payload["gap"] == 0.0
    assert payload["oracle_objective"] == payload["solver_objective"]


def test_detect_emits_auc_and_is_deterministic(tmp_path, capsys):
    noisy, _ = make_synth_files(tmp_path, capsys, n=60, d=5, rank=2, r=15, seed=9)
    outputs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "detect", "--data", str(noisy), "--label-column", "5",
                               "--kernel", "gaussian", "--seed", "9")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]  # byte-identical
    payload = json.loads(outputs[0])
    assert "auc" in payload and 0.0 <= payload["auc"] <= 1.0
    assert payload["alpha"] > 0
    assert len(payload["scores"]) == 60


def test_detect_reproduces_committed_golden_auc(tmp_path, capsys):
    # frozen from the first verified run of this exact command sequence
    noisy, _ = make_synth_files(tmp_path, capsys, n=60, d=5, rank=2, r=15, seed=9)
    code, out, _ = run_cli(capsys, "detect", "--data", str(noisy), "--label-column", "5",
                           "--kernel", "linear", "--seed", "9")
    assert code == 0
    assert json.loads(out)["auc"] == 0.928030303030303


@pytest.mark.parametrize("seed", [0, 1])
def test_detect_default_component_count_fits_more_features_than_samples(tmp_path, capsys,
                                                                       seed):
    # Standardized data has rank at most n - 1 under the linear kernel, so
    # the default keeps n - 1 = 29 components of the 30 x 40 file.
    noisy, _ = make_synth_files(tmp_path, capsys, n=30, d=40, rank=5, seed=seed)
    code, out, err = run_cli(capsys, "detect", "--data", str(noisy), "--label-column", "40",
                             "--seed", str(seed))
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert len(payload["variances"]) == 29
    assert len(payload["scores"]) == 30


def test_robustness_subcommand_emits_rows(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "robustness", "--grid", "10,20", "--seeds", "2",
                           "--n", "30", "--d", "4", "--rank", "2", "--p", "2",
                           "--kernel", "linear", "--seed", "3")
    assert code == 0
    payload = json.loads(out)
    rows = payload["results"]
    assert [row["r_percent"] for row in rows] == [10.0, 20.0]
    for row in rows:
        assert 0.0 <= row["tev_l1"] <= 100.0 + 1e-6
        assert 0.0 <= row["tev_l2"] <= 100.0 + 1e-6


def test_bench_subcommand(tmp_path, capsys):
    noisy, _ = make_synth_files(tmp_path, capsys, n=30, d=4)
    code, out, _ = run_cli(capsys, "bench", "--data", str(noisy), "--label-column", "4",
                           "--kernels", "linear", "--components", "3")
    assert code == 0
    rows = json.loads(out)["results"]
    assert {row["method"] for row in rows} == {"l1", "l2"}


def test_bench_default_component_count_fits_wide_data(tmp_path, capsys):
    # n = 30 <= d = 40: standardized data has rank n - 1 = 29 under the linear kernel.
    noisy, _ = make_synth_files(tmp_path, capsys, n=30, d=40, rank=5, seed=1)
    code, out, err = run_cli(capsys, "bench", "--data", str(noisy), "--label-column", "40")
    assert (code, err) == (0, "")
    rows = json.loads(out)["results"]
    assert len(rows) == 2
    assert all(row["p"] == 29 for row in rows)


def test_bench_seeds_the_l1_fit(tmp_path, capsys, monkeypatch):
    noisy, _ = make_synth_files(tmp_path, capsys, n=30, d=4)
    seeds = []
    real_fit = l1.fit

    def recording_fit(K, p, options=None, **kwargs):
        seeds.append(options.seed)
        return real_fit(K, p, options, **kwargs)

    monkeypatch.setattr(l1, "fit", recording_fit)
    code, _, _ = run_cli(capsys, "bench", "--data", str(noisy), "--label-column", "4",
                         "--kernels", "linear,gaussian", "--components", "2", "--seed", "5")
    assert code == 0
    assert seeds == [5, 5]


def test_bench_resolves_gaussian_sigma_per_dataset(tmp_path, capsys):
    rng = np.random.default_rng(5)
    paths = {}
    for d in (4, 9):
        path = tmp_path / f"d{d}.csv"
        np.savetxt(path, rng.standard_normal((15, d)), delimiter=",")
        paths[str(path)] = d
    code, out, _ = run_cli(capsys, "bench", "--data", *paths, "--kernels", "gaussian",
                           "--components", "2", "--starts", "2")
    assert code == 0
    rows = json.loads(out)["results"]
    assert len(rows) == 4
    for row in rows:
        assert row["kernel"]["sigma"] == float(paths[row["dataset"]])


def test_transform_standardizes_raw_query_once_with_training_statistics(tmp_path, capsys):
    # column means up to 1e4 and stds near 2500: a standardize/destandardize
    # round trip of the query would perturb some of its entries in the last bit
    rng = np.random.default_rng(11)
    offsets = np.array([1e4, -3e3, 250.0])
    train_path, query_path = tmp_path / "train.csv", tmp_path / "query.csv"
    np.savetxt(train_path, rng.standard_normal((30, 3)) * 2500.0 + offsets, delimiter=",")
    np.savetxt(query_path, rng.standard_normal((20, 3)) * 2500.0 + offsets, delimiter=",")
    for command in ("fit", "fit-l2"):
        model_path = tmp_path / f"{command}.json"
        code, _, _ = run_cli(capsys, command, "--data", str(train_path), "--kernel", "gaussian",
                             "--components", "2", "--model", str(model_path))
        assert code == 0
        code, out, _ = run_cli(capsys, "transform", "--model", str(model_path),
                               "--data", str(query_path))
        assert code == 0

        from l1kpca import cross_gram, read_model, standardize_with, transform
        model = read_model(str(model_path))
        train = model.train_ref
        raw = np.loadtxt(query_path, delimiter=",")
        query = standardize_with(raw, train.column_means, train.column_stds)
        expected = model.scores(cross_gram(model.spec, train, query))
        npt.assert_array_equal(transform(model, raw), expected)
        npt.assert_array_equal(np.array(json.loads(out)["scores"]), expected)


def test_transform_rejects_detection_model_with_data_error(tmp_path, capsys):
    # A hand-written file of the "detection" kind that earlier versions of
    # the format accepted: it is refused as an unknown kind.
    from l1kpca.io import FORMAT_VERSION
    det_path = tmp_path / "det.json"
    det_path.write_text(json.dumps({"version": FORMAT_VERSION, "kind": "detection",
                                    "score_matrix": [[1.0], [-1.0]], "variances": [1.0],
                                    "alpha": 1.0, "retained": [0], "threshold": None}))
    query = tmp_path / "q.csv"
    query.write_text("1.0,2.0\n3.0,4.0\n")
    code, out, err = run_cli(capsys, "transform", "--model", str(det_path), "--data", str(query))
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("l1kpca: ") and "unknown model kind 'detection'" in err


def _without(key):
    return lambda payload: {k: v for k, v in payload.items() if k != key}


def _set(value, *path):
    """Mutation that sets payload[path[0]][path[1]]... to value."""
    def mutate(payload):
        target = payload
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return payload
    return mutate


def _as_strings(*path):
    """Mutation that writes each entry of the list at payload[path[0]][path[1]]... as a string."""
    def mutate(payload):
        target = payload
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = [str(x) for x in target[path[-1]]]
        return payload
    return mutate


def _drop_last(*path):
    """Mutation that removes the last entry of the list at payload[path[0]][path[1]]..."""
    def mutate(payload):
        target = payload
        for key in path:
            target = target[key]
        target.pop()
        return payload
    return mutate


@pytest.mark.parametrize("command, mutate", [
    ("fit", _without("components")),
    ("fit", _without("spec")),
    ("fit-l2", _without("eigenvalues")),
    ("fit", lambda payload: [payload]),
    ("fit", _drop_last("train", "values")),
    ("fit", lambda payload: {**payload, "components": []}),
    ("fit-l2", _drop_last("eigenvalues")),
    ("fit", _drop_last("train", "column_stds")),
    ("fit-l2", _without("spec")),
    ("fit", _set("x", "components", 0, "objective")),
    ("fit", _set(-4.0, "components", 0, "objective")),
    ("fit", _set(7, "components", 1, "sign_vector", 3)),
    ("fit", _set(0.0, "train", "column_stds", 2)),
    ("fit-l2", _set(float("nan"), "eigenvalues", 0)),
    ("fit", _set(float("nan"), "components", 1, "train_scores", 4)),
    ("fit", _set(float("inf"), "train", "values", 3, 1)),
    ("fit", lambda payload: {**payload, "spec": _without("sigma")(payload["spec"])}),
    ("fit", _as_strings("components", 0, "sign_vector")),
    ("fit", _set(True, "components", 0, "sign_vector", 2)),
    ("fit", _set(True, "components", 1, "objective")),
    ("fit", _as_strings("train", "values", 5)),
    ("fit-l2", _as_strings("coefficient_vectors", 3)),
    ("fit-l2", _set(-1.0, "eigenvalues", 0)),
    ("fit", _set(True, "spec", "sigma")),
    ("fit", _set("4", "spec", "sigma")),
    ("fit", _set(None, "spec", "sigma")),
    ("fit", _set(True, "spec", "degree")),
    ("fit", _set(2.5, "spec", "degree")),
    ("fit", _set("1", "spec", "offset")),
], ids=["l1-without-components", "l1-without-spec", "l2-without-eigenvalues",
        "top-level-list", "training-rows-differ-from-sign-vectors", "l1-no-components",
        "l2-fewer-eigenvalues-than-vectors", "training-statistics-differ-in-width",
        "l2-without-spec", "l1-objective-not-a-number", "l1-objective-negative",
        "l1-sign-entry-not-unit", "training-std-zero", "l2-eigenvalue-nan",
        "l1-train-score-nan", "train-value-inf", "spec-without-sigma",
        "l1-sign-entries-as-strings", "l1-sign-entry-true", "l1-objective-true",
        "train-value-row-as-strings", "l2-eigenvector-row-as-strings", "l2-eigenvalue-negative",
        "spec-sigma-true", "spec-sigma-as-string", "spec-sigma-null", "spec-degree-true",
        "spec-degree-not-whole", "spec-offset-as-string"])
def test_transform_rejects_malformed_model_file_with_schema_error(tmp_path, capsys,
                                                                  command, mutate):
    from l1kpca import SchemaError, read_model
    _, normal = make_synth_files(tmp_path, capsys)
    model_path = tmp_path / "model.json"
    code, _, _ = run_cli(capsys, command, "--data", str(normal), "--components", "2",
                         "--model", str(model_path))
    assert code == 0
    model_path.write_text(json.dumps(mutate(json.loads(model_path.read_text()))))
    with pytest.raises(SchemaError):
        read_model(str(model_path))
    code, out, err = run_cli(capsys, "transform", "--model", str(model_path),
                             "--data", str(normal))
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("l1kpca: ")


@pytest.mark.parametrize("kernel_flags, field, value, message", [
    (("--kernel", "gaussian"), "sigma", -1, "gaussian width must be positive, got -1"),
    (("--kernel", "gaussian"), "sigma", 0, "gaussian width must be positive, got 0"),
    (("--kernel", "poly"), "offset", -1, "polynomial offset must be non-negative, got -1"),
    (("--kernel", "poly"), "degree", 0, "polynomial degree must be a positive integer, got 0"),
    ((), "family", "mystery", "unknown kernel family 'mystery'"),
], ids=["gaussian-sigma-negative", "gaussian-sigma-zero", "poly-offset-negative",
        "poly-degree-zero", "unknown-family"])
def test_transform_refuses_a_model_spec_that_kernel_spec_refuses(tmp_path, capsys, kernel_flags,
                                                                 field, value, message):
    from l1kpca import SchemaError, read_model
    noisy, normal = make_synth_files(tmp_path, capsys)
    model_path = tmp_path / "model.json"
    code, _, _ = run_cli(capsys, "fit", "--data", str(noisy), "--label-column", "4",
                         *kernel_flags, "--components", "2", "--model", str(model_path))
    assert code == 0
    payload = json.loads(model_path.read_text())
    payload["spec"][field] = value
    model_path.write_text(json.dumps(payload))
    with pytest.raises(SchemaError):
        read_model(str(model_path))
    code, out, err = run_cli(capsys, "transform", "--model", str(model_path),
                             "--data", str(normal))
    assert (code, out) == (3, "")
    assert err == f"l1kpca: malformed model file: {message}\n"


@pytest.mark.parametrize("command", ["fit", "fit-l2", "detect"])
def test_negative_polynomial_offset_is_a_data_error(tmp_path, capsys, command):
    noisy, _ = make_synth_files(tmp_path, capsys)
    model_path = tmp_path / "model.json"
    model_flags = () if command == "detect" else ("--model", str(model_path))
    code, out, err = run_cli(capsys, command, "--data", str(noisy), "--label-column", "4",
                             "--kernel", "poly", "--offset", "-1", *model_flags)
    assert (code, out) == (3, "")
    assert err == "l1kpca: polynomial offset must be non-negative, got -1.0\n"
    assert not model_path.exists()


NON_FINITE_GRAM = "the {} kernel gives non-finite Gram entries on this data"


@pytest.mark.parametrize("command", ["fit", "fit-l2", "detect", "robustness"])
@pytest.mark.parametrize("flags, message", [
    (("--kernel", "gaussian", "--sigma", "1e-200"), NON_FINITE_GRAM.format("gaussian")),
    # An infinite offset is refused with the spec, before any Gram is built.
    (("--kernel", "poly", "--offset", "inf"), "kernel offset must be a finite number, got inf"),
    (("--kernel", "poly", "--offset", "1e300", "--degree", "3"),
     NON_FINITE_GRAM.format("polynomial")),
    # Model files store sigma and offset whatever the family, and a model
    # file holding NaN or Infinity cannot be read back.
    (("--kernel", "linear", "--sigma", "nan"), "kernel sigma must be a finite number, got nan"),
    (("--kernel", "linear", "--offset", "inf"), "kernel offset must be a finite number, got inf"),
    (("--kernel", "poly", "--sigma", "inf"), "kernel sigma must be a finite number, got inf"),
], ids=["gaussian-width-underflows", "poly-offset-inf", "poly-overflows", "linear-sigma-nan",
        "linear-offset-inf", "poly-sigma-inf"])
def test_kernel_with_non_finite_gram_is_a_data_error(tmp_path, capsys, command, flags, message):
    noisy, _ = make_synth_files(tmp_path, capsys)
    model_path = tmp_path / "model.json"
    if command == "robustness":  # generates its own data
        data_flags = ("--grid", "10", "--seeds", "1", "--n", "24", "--d", "4", "--rank", "2",
                      "--p", "2")
    else:
        data_flags = ("--data", str(noisy), "--label-column", "4")
    model_flags = () if command in ("detect", "robustness") else ("--model", str(model_path))
    code, out, err = run_cli(capsys, command, *data_flags, *flags, *model_flags)
    assert (code, out) == (3, "")
    assert err == f"l1kpca: {message}\n"
    assert not model_path.exists()


@pytest.mark.parametrize("command", ["fit", "oracle", "synth"])
def test_unwritable_output_path_is_a_data_error(tmp_path, capsys, command):
    small, _ = make_synth_files(tmp_path, capsys, n=12)
    target = tmp_path / "missing-dir" / "out"
    argv = {
        "fit": ("fit", "--data", str(small), "--label-column", "4", "--model", str(target)),
        "oracle": ("oracle", "--data", str(small), "--label-column", "4", "--output", str(target)),
        "synth": ("synth", "--n", "12", "--d", "4", "--rank", "2", "--out-noisy", str(target),
                  "--out-normal", str(tmp_path / "normal-out.csv")),
    }[command]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert len(err.splitlines()) == 1
    assert err.startswith(f"l1kpca: cannot write {target}: ")


def test_robustness_refuses_n_over_the_gram_cap_before_any_product(monkeypatch, capsys):
    def no_product(*args):
        raise AssertionError("kernel product built past the cap")

    monkeypatch.setattr(kernel, "MAX_GRAM_SIZE", 10)
    monkeypatch.setattr(kernel, "_pairwise", no_product)
    for family in ("linear", "gaussian", "poly"):
        code, out, err = run_cli(capsys, "robustness", "--kernel", family, "--grid", "10",
                                 "--seeds", "1", "--n", "24", "--d", "4", "--rank", "2",
                                 "--p", "2")
        assert (code, out) == (3, "")
        assert err == "l1kpca: n=24 exceeds the dense Gram cap of 10\n"


def refuse_kernel_products(monkeypatch):
    """Make every kernel evaluation raise, the explicit-difference gaussian included."""
    def no_product(*args):
        raise AssertionError("kernel product built")

    monkeypatch.setattr(kernel, "_pairwise", no_product)
    monkeypatch.setattr(kernel, "_gaussian", no_product)


def test_linear_l1_detect_builds_no_gram_and_has_no_gram_cap(tmp_path, capsys, monkeypatch):
    noisy, _ = make_synth_files(tmp_path, capsys, n=24)
    monkeypatch.setattr(kernel, "MAX_GRAM_SIZE", 10)
    refuse_kernel_products(monkeypatch)
    data_flags = ("--data", str(noisy), "--label-column", "4")
    code, out, err = run_cli(capsys, "detect", *data_flags, "--kernel", "linear")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert len(payload["scores"]) == 24 and 0.0 <= payload["auc"] <= 1.0
    for flags in (("--kernel", "gaussian"), ("--kernel", "poly"),
                  ("--kernel", "linear", "--method", "l2")):
        code, out, err = run_cli(capsys, "detect", *data_flags, *flags)
        assert (code, out) == (3, "")
        assert err == "l1kpca: n=24 exceeds the dense Gram cap of 10\n"


@pytest.mark.parametrize("kernel_name, family", [("gaussian", "gaussian"), ("poly", "polynomial")])
def test_nonlinear_l1_detect_deflates_implicitly_and_matches_the_dense_path(
        tmp_path, capsys, monkeypatch, kernel_name, family):
    noisy, _ = make_synth_files(tmp_path, capsys, n=60, d=5, rank=2, r=15, seed=9)
    forms = []

    def recording_deflate(gram_matrix, c):
        forms.append(type(gram_matrix))
        return deflate(gram_matrix, c)

    monkeypatch.setattr(l1, "deflate", recording_deflate)
    code, out, err = run_cli(capsys, "detect", "--data", str(noisy), "--label-column", "5",
                             "--kernel", kernel_name)
    assert (code, err) == (0, "")
    # detect's default p = min(n - 1, d, 50) = 5 components: four deflations.
    assert forms == [DeflatedGram] * 4
    payload = json.loads(out)
    data = read_csv(str(noisy), label_column=5)
    dense = build_detector(fit(gram(KernelSpec(family, sigma=5.0), data), 5, FitOptions()))
    assert payload["retained"] == dense.retained
    assert payload["auc"] == pr_auc(dense.scores, data.labels).auc
    npt.assert_allclose(payload["scores"], dense.scores, rtol=1e-10, atol=0)


@pytest.mark.parametrize("command", ["fit", "fit-l2", "detect", "bench"])
@pytest.mark.parametrize("kernel_name", ["linear", "gaussian"])
@pytest.mark.parametrize("count", ["0", "41"])
def test_component_count_outside_one_to_n_is_refused_before_any_gram(tmp_path, capsys,
                                                                     monkeypatch, command,
                                                                     kernel_name, count):
    noisy, _ = make_synth_files(tmp_path, capsys, n=40)
    refuse_kernel_products(monkeypatch)
    model_path = tmp_path / "model.json"
    kernel_flags = (("--kernels", kernel_name) if command == "bench"
                    else ("--kernel", kernel_name))
    model_flags = ("--model", str(model_path)) if command in ("fit", "fit-l2") else ()
    code, out, err = run_cli(capsys, command, "--data", str(noisy), "--label-column", "4",
                             *kernel_flags, "--components", count, *model_flags)
    assert (code, out) == (3, "")
    assert err == f"l1kpca: component count {count} not in [1, 40]\n"
    assert not model_path.exists()


@pytest.mark.parametrize("flags, message", [
    (("--grid", "5,abc"), "--grid '5,abc' is not a comma-separated list of numbers"),
    (("--seeds", "0"), "seed count 0 must be at least 1"),
    (("--seeds", "-2"), "seed count -2 must be at least 1"),
    (("--grid", ""), "the r grid must hold at least one value"),
    (("--grid", ","), "the r grid must hold at least one value"),
], ids=["non-numeric-grid", "zero-seeds", "negative-seeds", "empty-grid", "comma-only-grid"])
def test_robustness_rejects_bad_grid_or_seed_count_with_data_error(capsys, flags, message):
    for fmt in ("json", "csv"):
        code, out, err = run_cli(capsys, "robustness", *flags, "--n", "24", "--d", "4",
                                 "--rank", "2", "--p", "2", "--format", fmt)
        assert code == 3
        assert out == ""
        assert err == f"l1kpca: {message}\n"


def test_transform_refuses_a_model_without_training_data_with_the_library_message(tmp_path,
                                                                                  capsys):
    noisy, normal = make_synth_files(tmp_path, capsys)
    K = gram(KernelSpec("linear"), read_csv(str(noisy), label_column=4))
    hand_built = GramMatrix(entries=K.entries, spec=K.spec)  # carries no dataset
    for model in (fit(hand_built, 2, FitOptions(starts=8, seed=0)), l2_fit(hand_built, 2)):
        model_path = tmp_path / "no-train.json"
        write_model(model, str(model_path))
        code, out, err = run_cli(capsys, "transform", "--model", str(model_path),
                                 "--data", str(normal))
        assert (code, out) == (3, "")
        assert err == "l1kpca: model carries no training data; cannot score new samples\n"


@pytest.mark.parametrize("fit_command", ["fit", "fit-l2"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_transform_refuses_a_query_on_which_the_kernel_overflows(tmp_path, capsys, fit_command,
                                                                 fmt):
    noisy, normal = make_synth_files(tmp_path, capsys)
    model_path, out_path = tmp_path / "model.json", tmp_path / "scores.out"
    code, _, _ = run_cli(capsys, fit_command, "--data", str(noisy), "--label-column", "4",
                         "--kernel", "poly", "--degree", "3", "--components", "2",
                         "--model", str(model_path))
    assert code == 0
    rows = normal.read_text().splitlines()
    rows[0] = "1e200," + rows[0].partition(",")[2]
    query = tmp_path / "query.csv"
    query.write_text("\n".join(rows) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "transform", "--model", str(model_path),
                                 "--data", str(query), "--format", fmt, "--output", str(out_path))
    assert (code, out) == (3, "")
    assert err == "l1kpca: the polynomial kernel gives non-finite values on this query data\n"
    assert not out_path.exists()


def test_fit_l2_and_transform(tmp_path, capsys):
    noisy, _ = make_synth_files(tmp_path, capsys)
    model_path = tmp_path / "l2.json"
    code, out, _ = run_cli(capsys, "fit-l2", "--data", str(noisy), "--label-column", "4",
                           "--components", "2", "--model", str(model_path))
    assert code == 0
    code, out, _ = run_cli(capsys, "transform", "--model", str(model_path),
                           "--data", str(noisy), "--label-column", "4")
    assert code == 0
    scores = np.array(json.loads(out)["scores"])
    assert scores.shape == (40, 2)


def test_csv_output_format(tmp_path, capsys):
    noisy, _ = make_synth_files(tmp_path, capsys)
    model_path = tmp_path / "m.json"
    run_cli(capsys, "fit", "--data", str(noisy), "--label-column", "4",
            "--components", "1", "--model", str(model_path))
    code, out, _ = run_cli(capsys, "transform", "--model", str(model_path),
                           "--data", str(noisy), "--label-column", "4",
                           "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# ")  # config echo
    assert lines[1] == "score_0"
    assert len(lines) == 2 + 40


def test_jsonl_output_format(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "robustness", "--grid", "10,20", "--seeds", "1",
                           "--n", "24", "--d", "4", "--rank", "2", "--p", "2",
                           "--format", "jsonl")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3  # config echo + one line per grid cell
    header = json.loads(lines[0])
    assert header["config"]["command"] == "robustness"
    rows = [json.loads(line) for line in lines[1:]]
    assert [row["r_percent"] for row in rows] == [10.0, 20.0]

    # transform and detect: one object per CSV row, keyed like the CSV header,
    # holding the CSV's values.
    noisy, normal = make_synth_files(tmp_path, capsys)
    model_path = tmp_path / "model.json"
    run_cli(capsys, "fit", "--data", str(noisy), "--label-column", "4", "--components", "2",
            "--model", str(model_path))
    commands = {"transform": ("--model", str(model_path), "--data", str(normal)),
                "detect": ("--data", str(noisy), "--label-column", "4")}
    for command, flags in commands.items():
        code, out, _ = run_cli(capsys, command, *flags, "--format", "jsonl")
        assert code == 0
        header, *rows = [json.loads(line) for line in out.strip().splitlines()]
        assert header["config"]["command"] == command
        code, out, _ = run_cli(capsys, command, *flags, "--format", "csv")
        assert code == 0
        csv_lines = out.strip().splitlines()[1:]
        keys = csv_lines[0].split(",")
        assert len(rows) == len(csv_lines) - 1 > 1
        for row, line in zip(rows, csv_lines[1:]):
            assert list(row) == keys
            assert [str(v) for v in row.values()] == line.split(",")


@pytest.mark.parametrize("threshold", [None, "5"], ids=["no-threshold", "threshold"])
def test_detect_table_formats_carry_the_flags_of_a_threshold(tmp_path, capsys, threshold):
    noisy, _ = make_synth_files(tmp_path, capsys, n=60, d=6)
    flags = ("--data", str(noisy), "--label-column", "6")
    if threshold is not None:
        flags += ("--threshold", threshold)
    outputs = {}
    for fmt in ("json", "csv", "jsonl"):
        code, outputs[fmt], _ = run_cli(capsys, "detect", *flags, "--format", fmt)
        assert code == 0
    payload = json.loads(outputs["json"])
    header, *csv_rows = outputs["csv"].strip().splitlines()[1:]
    jsonl_rows = [json.loads(line) for line in outputs["jsonl"].strip().splitlines()[1:]]
    assert len(csv_rows) == len(jsonl_rows) == len(payload["scores"]) == 60
    if threshold is None:
        assert "flags" not in payload
        assert header == "sample,score"
        assert all(list(row) == ["sample", "score"] for row in jsonl_rows)
        return
    assert header == "sample,score,flag"
    assert 0 < sum(payload["flags"]) < 60
    assert [int(line.split(",")[2]) for line in csv_rows] == payload["flags"]
    assert [row["flag"] for row in jsonl_rows] == payload["flags"]
    assert [row["score"] for row in jsonl_rows] == payload["scores"]


@pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
def test_detect_refuses_a_non_finite_threshold_with_empty_stdout(tmp_path, capsys, monkeypatch,
                                                                 threshold):
    noisy, _ = make_synth_files(tmp_path, capsys, n=30)

    def no_fit(*args, **kwargs):
        raise AssertionError("detect fitted a model for a threshold it refuses")

    # Refused before anything is fitted.
    monkeypatch.setattr(l1, "fit", no_fit)
    # The = form, since argparse reads a bare -inf as an option.
    code, out, err = run_cli(capsys, "detect", "--data", str(noisy), "--label-column", "4",
                             f"--threshold={threshold}")
    assert code == 3
    assert out == ""
    assert err == f"l1kpca: threshold must be a finite number, got {float(threshold)}\n"


def test_detect_reads_a_bare_negative_infinity_threshold_as_an_option(tmp_path, capsys):
    # Documented in --threshold's help: the value is written --threshold=-inf.
    noisy, _ = make_synth_files(tmp_path, capsys, n=30)
    with pytest.raises(SystemExit) as usage:
        main(["detect", "--data", str(noisy), "--label-column", "4", "--threshold", "-inf"])
    assert usage.value.code == 2
    assert "--threshold: expected one argument" in capsys.readouterr().err


def test_output_to_file(tmp_path, capsys):
    noisy, _ = make_synth_files(tmp_path, capsys, n=12)
    out_path = tmp_path / "out.json"
    code, out, _ = run_cli(capsys, "oracle", "--data", str(noisy), "--label-column", "4",
                           "--output", str(out_path))
    assert code == 0 and out == ""
    payload = json.loads(out_path.read_text())
    assert "oracle_objective" in payload


def test_exit_code_3_on_data_errors(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    code, _, err = run_cli(capsys, "fit", "--data", str(missing), "--model",
                           str(tmp_path / "m.json"))
    assert code == 3
    assert "l1kpca:" in err

    noisy, _ = make_synth_files(tmp_path, capsys, n=30)
    code, _, err = run_cli(capsys, "oracle", "--data", str(noisy), "--label-column", "4")
    assert code == 3  # n=30 exceeds the enumeration limit


def test_oracle_refuses_past_its_cap_before_any_gram_is_built(tmp_path, capsys, monkeypatch):
    from l1kpca import cli

    calls = []
    monkeypatch.setattr(cli, "gram", lambda *args: calls.append(args))
    noisy, _ = make_synth_files(tmp_path, capsys, n=21)
    code, out, err = run_cli(capsys, "oracle", "--data", str(noisy), "--label-column", "4")
    assert (code, out, err) == (3, "", "l1kpca: n=21 exceeds enumeration limit 20\n")
    assert calls == []


def test_exit_code_4_on_numerical_errors(tmp_path, capsys):
    # rank-1 data cannot produce 3 components
    rng = np.random.default_rng(1)
    path = tmp_path / "rank1.csv"
    col = rng.standard_normal(10)
    rows = np.column_stack([col, 2 * col, -col])
    path.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in rows) + "\n")
    code, _, err = run_cli(capsys, "fit", "--data", str(path), "--components", "3",
                           "--model", str(tmp_path / "m.json"))
    assert code == 4
    assert "component" in err


@pytest.mark.parametrize("starts", ["0", "-3"])
def test_fit_rejects_start_count_below_one_with_data_error(tmp_path, capsys, starts):
    noisy, _ = make_synth_files(tmp_path, capsys)
    model_path = tmp_path / "m.json"
    code, out, err = run_cli(capsys, "fit", "--data", str(noisy), "--label-column", "4",
                             "--starts", starts, "--model", str(model_path))
    assert code == 3
    assert out == ""
    assert err == f"l1kpca: start count {starts} must be at least 1\n"
    assert not model_path.exists()


@pytest.mark.parametrize("max_iter", ["5", "0", "-3"])
def test_fit_has_no_max_iter_flag(tmp_path, capsys, max_iter):
    # The pass cap is the constant l1.MAX_ITER, so any value is a usage error.
    noisy, _ = make_synth_files(tmp_path, capsys)
    model_path = tmp_path / "m.json"
    with pytest.raises(SystemExit) as info:
        main(["fit", "--data", str(noisy), "--label-column", "4",
              "--max-iter", max_iter, "--model", str(model_path)])
    assert info.value.code == 2
    assert capsys.readouterr().out == ""
    assert not model_path.exists()


NON_TABLE_COMMANDS = {
    "fit": ["--data", "noisy.csv", "--label-column", "4", "--model", "m.json"],
    "fit-l2": ["--data", "noisy.csv", "--label-column", "4", "--model", "m.json"],
    "synth": ["--out-noisy", "noisy2.csv", "--out-normal", "normal2.csv"],
    "oracle": ["--data", "noisy.csv", "--label-column", "4"],
}


@pytest.mark.parametrize("command", sorted(NON_TABLE_COMMANDS))
def test_csv_format_is_a_usage_error_where_output_is_no_table(tmp_path, capsys, monkeypatch,
                                                              command):
    make_synth_files(tmp_path, capsys, n=12)
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.iterdir())
    with pytest.raises(SystemExit) as info:
        main([command, *NON_TABLE_COMMANDS[command], "--format", "csv"])
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "invalid choice: 'csv'" in err
    assert sorted(tmp_path.iterdir()) == before  # no model or data file written


# The spec each --kernel flag gives without other kernel flags on d = 4 features.
CLI_KERNEL_SPECS = {"linear": KernelSpec("linear"), "gaussian": KernelSpec("gaussian", sigma=4.0),
                    "poly": KernelSpec("polynomial", degree=2, offset=1.0)}


@pytest.mark.parametrize("kernel", sorted(CLI_KERNEL_SPECS))
def test_library_model_file_equals_cli_model_file(tmp_path, capsys, kernel):
    spec = CLI_KERNEL_SPECS[kernel]
    noisy, _ = make_synth_files(tmp_path, capsys)
    library = {"fit": lambda K: fit(K, 2, FitOptions(starts=8, seed=3)),
               "fit-l2": lambda K: l2_fit(K, 2)}
    for command, fit_model in library.items():
        cli_path, lib_path = tmp_path / f"cli-{command}.json", tmp_path / f"lib-{command}.json"
        code, _, _ = run_cli(capsys, command, "--data", str(noisy), "--label-column", "4",
                             "--kernel", kernel, "--components", "2", "--seed", "3",
                             "--model", str(cli_path))
        assert code == 0
        write_model(fit_model(gram(spec, read_csv(str(noisy), label_column=4))), str(lib_path))
        assert lib_path.read_bytes() == cli_path.read_bytes()
        code, _, _ = run_cli(capsys, "transform", "--model", str(lib_path), "--data", str(noisy),
                             "--label-column", "4")
        assert code == 0


def test_robustness_has_no_threads_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["robustness", "--grid", "10", "--seeds", "1", "--threads", "2"])
    assert info.value.code == 2


def test_oracle_has_no_limit_flag(tmp_path, capsys):
    noisy, _ = make_synth_files(tmp_path, capsys, n=12)
    with pytest.raises(SystemExit) as info:
        main(["oracle", "--data", str(noisy), "--label-column", "4", "--limit", "200"])
    assert info.value.code == 2


EXIT_CODES = {"L1KpcaError": 3, "InvalidData": 3, "ParseError": 3, "SchemaError": 3,
              "InstanceTooLarge": 3, "DegenerateComponent": 4, "NonConvergence": 4,
              "NumericalFailure": 4}


def test_exit_code_table_covers_every_exported_error():
    import l1kpca
    exported = {name for name in l1kpca.__all__
                if isinstance(getattr(l1kpca, name), type)
                and issubclass(getattr(l1kpca, name), l1kpca.L1KpcaError)}
    assert exported == set(EXIT_CODES)


@pytest.mark.parametrize("name, expected", sorted(EXIT_CODES.items()))
def test_each_error_class_maps_to_its_exit_code(tmp_path, capsys, monkeypatch, name, expected):
    import l1kpca
    from l1kpca import cli

    def fail(args):
        raise getattr(l1kpca, name)("boom")

    monkeypatch.setitem(cli._COMMANDS, "synth", fail)
    code, out, err = run_cli(capsys, "synth", "--out-noisy", str(tmp_path / "a.csv"),
                             "--out-normal", str(tmp_path / "b.csv"))
    assert code == expected
    assert out == ""
    assert err == "l1kpca: boom\n"


def test_usage_error_exit_code(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        main(["fit", "--no-such-flag"])
    assert info.value.code == 2


SEEDED_COMMANDS = {
    "fit": ["--data", "noisy.csv", "--label-column", "4", "--model", "m.json"],
    "fit --starts 1": ["--data", "noisy.csv", "--label-column", "4", "--starts", "1",
                       "--model", "m.json"],
    "detect": ["--data", "noisy.csv", "--label-column", "4", "--output", "scores.json"],
    "oracle": ["--data", "noisy.csv", "--label-column", "4", "--output", "oracle.json"],
    "bench": ["--data", "noisy.csv", "--label-column", "4", "--output", "bench.json"],
    "robustness": ["--grid", "10", "--seeds", "1", "--n", "12", "--d", "4", "--rank", "2",
                   "--p", "2", "--output", "sweep.json"],
    "synth": ["--out-noisy", "noisy2.csv", "--out-normal", "normal2.csv"],
}


@pytest.mark.parametrize("command", sorted(SEEDED_COMMANDS))
def test_negative_seed_is_a_data_error_before_any_output(tmp_path, capsys, monkeypatch, command):
    make_synth_files(tmp_path, capsys, n=12)
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.iterdir())
    code, out, err = run_cli(capsys, *command.split(), *SEEDED_COMMANDS[command], "--seed", "-1")
    assert code == 3
    assert out == ""
    assert err == "l1kpca: seed -1 must be at least 0\n"
    assert sorted(tmp_path.iterdir()) == before  # no model, output or data file written


def test_commands_that_never_read_the_seed_accept_a_negative_one(tmp_path, capsys):
    noisy, normal = make_synth_files(tmp_path, capsys, n=12)
    model_path = tmp_path / "m.json"
    code, _, _ = run_cli(capsys, "fit-l2", "--data", str(noisy), "--label-column", "4",
                         "--model", str(model_path), "--seed", "-1")
    assert code == 0
    code, _, _ = run_cli(capsys, "transform", "--model", str(model_path), "--data", str(normal),
                         "--seed", "-1")
    assert code == 0


# One call of every command, in order, in a working directory of its own; the
# files each writes there are compared along with its output.
EVERY_COMMAND = [
    (["synth", "--n", "12", "--d", "4", "--rank", "2", "--seed", "7",
      "--out-noisy", "noisy.csv", "--out-normal", "normal.csv"], ["noisy.csv", "normal.csv"]),
    (["fit", "--data", "noisy.csv", "--label-column", "4", "--components", "2",
      "--model", "l1.json", "--format", "jsonl"], ["l1.json"]),
    (["fit-l2", "--data", "noisy.csv", "--label-column", "4", "--components", "2",
      "--model", "l2.json"], ["l2.json"]),
    (["transform", "--model", "l1.json", "--data", "normal.csv", "--format", "csv"], []),
    (["detect", "--data", "noisy.csv", "--label-column", "4", "--kernel", "gaussian",
      "--threshold", "1.5"], []),
    (["robustness", "--grid", "10,20", "--seeds", "1", "--n", "12", "--d", "4", "--rank", "2",
      "--p", "2", "--format", "csv", "--output", "sweep.csv"], ["sweep.csv"]),
    (["bench", "--data", "noisy.csv", "--label-column", "4", "--kernels", "linear,poly",
      "--components", "2"], []),
    (["oracle", "--data", "noisy.csv", "--label-column", "4", "--kernel", "poly"], []),
]


def test_main_builds_one_parser_and_repeats_every_command_byte_for_byte(tmp_path, capsys,
                                                                        monkeypatch):
    from l1kpca import cli

    builds = []

    def counting_build_parser():
        builds.append(1)
        return real_build_parser()

    real_build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    monkeypatch.chdir(tmp_path)
    rounds = []
    for _ in range(2):
        seen = []
        for argv, written in EVERY_COMMAND:
            code, out, err = run_cli(capsys, *argv)
            assert code == 0, err
            if argv[0] == "bench":
                out = re.sub(r'"seconds": [0-9.e-]+', '"seconds": 0', out)
            seen.append((out, err, {name: (tmp_path / name).read_bytes() for name in written}))
        rounds.append(seen)
    assert rounds[0] == rounds[1]
    assert len(builds) == 1


@pytest.mark.parametrize("argv", [["fit", "--data", "noisy.csv", "--model", "m.json",
                                   "--format", "csv"],
                                  ["fit", "--no-such-flag"],
                                  ["--help"]])
def test_a_shared_parser_answers_usage_errors_and_help_as_a_fresh_one(tmp_path, capsys,
                                                                      monkeypatch, argv):
    from l1kpca import cli

    def exit_of(argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        return info.value.code, capsys.readouterr()

    cli._parser.cache_clear()
    first = exit_of(argv)
    make_synth_files(tmp_path, capsys, n=12)  # a successful call on the same parser
    assert exit_of(argv) == first
    assert first[0] == (0 if argv == ["--help"] else 2)
    if argv == ["--help"]:
        for command in cli._COMMANDS:
            assert command in first[1].out


def test_flags_of_one_call_do_not_carry_into_the_next(tmp_path, capsys):
    noisy, normal = make_synth_files(tmp_path, capsys, n=12)
    model_path, scores_path = tmp_path / "m.json", tmp_path / "scores.csv"
    code, _, _ = run_cli(capsys, "fit", "--data", str(noisy), "--label-column", "4",
                         "--model", str(model_path))
    assert code == 0
    code, out, _ = run_cli(capsys, "transform", "--model", str(model_path), "--data", str(normal),
                           "--format", "csv", "--output", str(scores_path))
    assert code == 0
    assert out == ""
    assert scores_path.read_text().startswith("# ")
    code, out, _ = run_cli(capsys, "transform", "--model", str(model_path), "--data", str(normal))
    assert code == 0
    config = json.loads(out)["config"]
    assert (config["format"], config["output"]) == ("json", "-")
