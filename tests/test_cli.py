import json

import numpy as np
import numpy.testing as npt
import pytest

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
                               "--kernel", "gaussian", "--auto-sigma-d", "--seed", "9")
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

        from l1kpca import read_model, standardize_with, transform
        model = read_model(str(model_path))
        train = model.train_ref
        raw = np.loadtxt(query_path, delimiter=",")
        expected = transform(model, standardize_with(raw, train.column_means, train.column_stds))
        npt.assert_array_equal(np.array(json.loads(out)["scores"]), expected)


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


def test_jsonl_output_format(capsys):
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


def test_usage_error_exit_code(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        main(["fit", "--no-such-flag"])
    assert info.value.code == 2
