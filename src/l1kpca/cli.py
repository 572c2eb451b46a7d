"""Command-line interface.

Subcommands: fit, fit-l2, transform, detect, synth, robustness, bench,
oracle. Every run echoes its resolved configuration into the output
header; identical argv (and seed) produce byte-identical output, except
for bench's wall-clock fields. Exit codes: 0 success, 2 usage error,
otherwise the raised error's exit_code (3 data error, 4 numerical error).

main may be called many times in one process; the calls share one parser,
built on the first call. argparse keeps nothing between parse_args calls
(each fills a fresh Namespace), so a call's output does not depend on the
calls before it.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import __version__, detect, experiments, l1, l2
from . import io as model_io
from .errors import InvalidData, L1KpcaError
from .kernel import DeflatedGram, KernelSpec, LinearFactor, _gram, gram
from .oracle import _require_enumerable, enumerate_sign_vectors

# The commands whose output is a table of rows: only they offer --format csv.
TABLE_COMMANDS = ("transform", "detect", "robustness", "bench")


def _add_data_flags(parser):
    parser.add_argument("--data", required=True, help="CSV file of samples")
    parser.add_argument("--header", action="store_true", help="first CSV row is a header")
    parser.add_argument("--label-column", default=None,
                        help="column (name or 0-based index) holding 0/1 or normal/outlier labels")


def _add_kernel_flags(parser):
    parser.add_argument("--kernel", choices=["linear", "gaussian", "poly"], default="linear")
    parser.add_argument("--sigma", type=float, default=None,
                        help="gaussian width (default: the feature count)")
    parser.add_argument("--degree", type=int, default=2, help="polynomial degree")
    parser.add_argument("--offset", type=float, default=1.0,
                        help="polynomial offset, at least 0 (a negative one exits 3)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="l1kpca",
                                     description="Robust L1-norm kernel PCA toolkit")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--output", default="-", help="output path, or - for stdout")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=argparse.ArgumentParser)

    def add_parser(name, help):
        p = sub.add_parser(name, help=help, parents=[common])
        formats = ["json", "jsonl", "csv"] if name in TABLE_COMMANDS else ["json", "jsonl"]
        p.add_argument("--format", choices=formats, default="json")
        return p

    p = add_parser("fit", help="fit an L1 model")
    _add_data_flags(p)
    _add_kernel_flags(p)
    p.add_argument("--components", type=int, default=1)
    p.add_argument("--starts", type=int, default=l1.DEFAULT_STARTS)
    p.add_argument("--model", required=True, help="where to write the fitted model")

    p = add_parser("fit-l2", help="fit the L2 baseline")
    _add_data_flags(p)
    _add_kernel_flags(p)
    p.add_argument("--components", type=int, default=1)
    p.add_argument("--model", required=True)

    p = add_parser("transform", help="score samples with a fitted model")
    _add_data_flags(p)
    p.add_argument("--model", required=True)

    p = add_parser("detect", help="outlier scores (and PR-AUC when labels are present)")
    _add_data_flags(p)
    _add_kernel_flags(p)
    p.add_argument("--method", choices=["l1", "l2"], default="l1")
    p.add_argument("--components", type=int, default=None,
                   help="component cap before the 80%% retention rule (default "
                        "max(1, min(n - 1, d, 50)); data of lower rank, such as a file "
                        "with a constant column, exits 4)")
    p.add_argument("--starts", type=int, default=l1.DEFAULT_STARTS)
    p.add_argument("--threshold", type=float, default=None,
                   help="also emit 0/1 flags at this finite score threshold (NaN or inf "
                        "exits 3); a bare -inf or -1e-3 reads as an option, so write "
                        "such a value as --threshold=-inf")

    p = add_parser("synth", help="generate a corrupted low-rank dataset")
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--d", type=int, default=20)
    p.add_argument("--rank", type=int, default=5)
    p.add_argument("--r", type=float, default=10.0, help="percent of rows to corrupt")
    p.add_argument("--noise-scale", type=float, default=5.0)
    p.add_argument("--dense-noise", type=float, default=0.1)
    p.add_argument("--out-noisy", required=True)
    p.add_argument("--out-normal", required=True)

    p = add_parser("robustness", help="explained-variation sweep over corruption levels")
    _add_kernel_flags(p)
    p.add_argument("--grid", default="5,10,15,20,25,30", help="comma-separated r values")
    p.add_argument("--seeds", type=int, default=10, help="instances per grid cell")
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--d", type=int, default=20)
    p.add_argument("--rank", type=int, default=5)
    p.add_argument("--p", type=int, default=4)
    p.add_argument("--noise-scale", type=float, default=5.0)
    p.add_argument("--starts", type=int, default=l1.DEFAULT_STARTS)

    p = add_parser("bench", help="wall-clock comparison of full L1 and L2 fits")
    p.add_argument("--data", nargs="+", required=True, help="CSV files")
    p.add_argument("--header", action="store_true")
    p.add_argument("--label-column", default=None)
    p.add_argument("--kernels", default="linear", help="comma-separated kernel families")
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--components", type=int, default=None,
                   help="components of every fit (default max(1, min(n - 1, d)))")
    p.add_argument("--starts", type=int, default=l1.DEFAULT_STARTS)

    p = add_parser("oracle", help="exhaustive optimum vs multi-start solver (n <= 20)")
    _add_data_flags(p)
    _add_kernel_flags(p)
    p.add_argument("--starts", type=int, default=l1.DEFAULT_STARTS)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser main() builds per process and reuses on every call."""
    return build_parser()


def _label_column(args) -> str | int | None:
    """--label-column as read_csv takes it: digits are a 0-based index, else a header name."""
    label = args.label_column
    return int(label) if label is not None and label.lstrip("-").isdigit() else label


def _spec(kernel: str, sigma: float | None, n_features: int,
          degree: int = 2, offset: float = 1.0) -> KernelSpec:
    """Kernel spec from CLI values; the gaussian width defaults to the feature count."""
    family = {"poly": "polynomial"}.get(kernel, kernel)
    if family == "gaussian" and sigma is None:
        sigma = float(n_features)
    return KernelSpec(family=family, sigma=sigma if sigma is not None else 1.0,
                      degree=degree, offset=offset)


def _kernel_spec(args, n_features: int) -> KernelSpec:
    return _spec(args.kernel, args.sigma, n_features, args.degree, args.offset)


def _read_data(args, components: int | None = None):
    """The standardized --data file, after checking a component count against its rows.

    A count outside [1, n] is refused here, before any Gram is built.
    """
    data = model_io.read_csv(args.data, args.header, _label_column(args))
    if components is not None:
        l1._require_count(components, data.n_samples)
    return data


def _gram_of_file(args, components: int | None = None):
    """gram() of the standardized --data file under the kernel flags; .data is the file."""
    data = _read_data(args, components)
    return gram(_kernel_spec(args, data.n_features), data)


def _config_echo(args) -> dict:
    cfg = {k.replace("_", "-"): v for k, v in sorted(vars(args).items())}
    return {"tool": f"l1kpca {__version__}", "config": cfg}


def _emit(args, payload: dict, csv_rows=None, csv_header=None, jsonl_rows=None) -> None:
    # csv_rows and jsonl_rows may be generators: each is consumed only for its own format.
    if args.format == "csv":
        lines = ["# " + json.dumps(_config_echo(args))]
        if csv_header:
            lines.append(",".join(csv_header))
        lines.extend(",".join(str(x) for x in row) for row in csv_rows)
        text = "\n".join(lines) + "\n"
    elif args.format == "jsonl":
        # config echo first, then one line per table row (the payload, for non-table commands)
        lines = [json.dumps(_config_echo(args))]
        lines.extend(json.dumps(row) for row in (jsonl_rows if jsonl_rows is not None else [payload]))
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps({**_config_echo(args), **payload}, indent=2) + "\n"
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with model_io._open_for_writing(args.output) as fh:
            fh.write(text)


def _cmd_fit(args) -> None:
    opts = l1.FitOptions(starts=args.starts, seed=args.seed)
    model = l1.fit(_gram_of_file(args, args.components), args.components, opts)
    model_io.write_model(model, args.model)
    _emit(args, {"model": args.model,
                 "objectives": [c.objective for c in model.components],
                 "iterations": [c.report.iterations for c in model.components]})


def _cmd_fit_l2(args) -> None:
    model = l2.l2_fit(_gram_of_file(args, args.components), args.components)
    model_io.write_model(model, args.model)
    _emit(args, {"model": args.model, "eigenvalues": model.eigenvalues.tolist()})


def _cmd_transform(args) -> None:
    model = model_io.read_model(args.model)
    raw, _ = model_io.read_csv_raw(args.data, args.header, _label_column(args))
    scores = l1.transform(model, raw)
    header = [f"score_{j}" for j in range(scores.shape[1])]
    _emit(args, {"scores": scores.tolist()},
          csv_rows=([repr(float(v)) for v in row] for row in scores), csv_header=header,
          jsonl_rows=(dict(zip(header, row)) for row in scores.tolist()))


def _cmd_detect(args) -> None:
    # Checked before the data is read, so a refused threshold costs no fit.
    if args.threshold is not None:
        detect._check_threshold(args.threshold)
    data = _read_data(args, args.components)
    spec = _kernel_spec(args, data.n_features)
    p = (args.components if args.components is not None
         else min(experiments._max_components(data), 50))
    # detect prints no component's sign, so it fits on the forms whose rounding
    # may settle a +c / -c tie the other way: the linear factor, which builds
    # no Gram and has no n cap, and the one-product Gram, deflated implicitly
    # so that the fit holds no n x n matrix but that Gram.
    if args.method == "l1":
        K = (LinearFactor(values=data.values, spec=spec, data=data) if spec.family == "linear"
             else DeflatedGram(_gram(spec, data)))
        model = l1.fit(K, p, l1.FitOptions(starts=args.starts, seed=args.seed))
    else:
        model = l2.l2_fit(_gram(spec, data), p)
    detector = detect.build_detector(model)
    scores = detector.scores
    payload = {"alpha": detector.alpha, "retained": detector.retained,
               "variances": detector.variances.tolist(), "scores": scores.tolist()}
    header, columns = ["sample", "score"], [range(scores.size), payload["scores"]]
    if args.threshold is not None:
        payload["flags"] = detect.classify(scores, args.threshold).tolist()
        header.append("flag")
        columns.append(payload["flags"])
    if data.labels is not None and data.labels.sum() > 0:
        curve = detect.pr_auc(scores, data.labels)
        payload["pr_curve"] = curve.points
        payload["auc"] = curve.auc
    _emit(args, payload,
          csv_rows=([i, repr(s), *flag] for i, s, *flag in zip(*columns)),
          csv_header=header,
          jsonl_rows=(dict(zip(header, row)) for row in zip(*columns)))


def _cmd_synth(args) -> None:
    cfg = experiments.SynthConfig(n=args.n, d=args.d, rank=args.rank, r_percent=args.r,
                                  noise_scale=args.noise_scale,
                                  dense_noise_std=args.dense_noise, seed=args.seed)
    noisy, normal, mask = experiments.synth_generate(cfg)
    model_io.write_csv(args.out_noisy, noisy.values, labels=mask)
    model_io.write_csv(args.out_normal, normal.values)
    _emit(args, {"noisy": args.out_noisy, "normal": args.out_normal,
                 "n_corrupted": int(mask.sum())})


def _cmd_robustness(args) -> None:
    try:
        r_values = [float(tok) for tok in args.grid.split(",") if tok.strip() != ""]
    except ValueError:
        raise InvalidData(f"--grid {args.grid!r} is not a comma-separated list of numbers") from None
    spec = _kernel_spec(args, args.d)
    cfg = experiments.SynthConfig(n=args.n, d=args.d, rank=args.rank,
                                  noise_scale=args.noise_scale, seed=args.seed)
    rows = experiments.robustness_sweep(r_values, spec, cfg=cfg, p=args.p,
                                        n_seeds=args.seeds, starts=args.starts)
    _emit(args, {"results": rows},
          csv_rows=[[r["r_percent"], r["kernel"]["family"], repr(r["tev_l1"]), repr(r["tev_l2"]),
                     r["p"]] for r in rows],
          csv_header=["r_percent", "kernel", "tev_l1", "tev_l2", "p"],
          jsonl_rows=rows)


def _cmd_bench(args) -> None:
    datasets = {path: model_io.read_csv(path, args.header, _label_column(args))
                for path in args.data}
    # Every file's count is checked before the first Gram is built.
    if args.components is not None:
        for data in datasets.values():
            l1._require_count(args.components, data.n_samples)
    rows = []
    for path, data in datasets.items():
        # sigma defaults to each dataset's own feature count
        specs = [_spec(fam.strip(), args.sigma, data.n_features) for fam in args.kernels.split(",")]
        rows += experiments.runtime_bench(path, data, specs, p=args.components,
                                          starts=args.starts, seed=args.seed)
    _emit(args, {"results": rows},
          csv_rows=[[r["dataset"], r["kernel"]["family"], r["method"], r["p"],
                     f"{r['seconds']:.6f}"] for r in rows],
          csv_header=["dataset", "kernel", "method", "p", "seconds"],
          jsonl_rows=rows)


def _cmd_oracle(args) -> None:
    data = _read_data(args)
    # Checked before the Gram is built, which past the cap may be gigabytes.
    _require_enumerable(data.n_samples)
    K = gram(_kernel_spec(args, data.n_features), data)
    best = enumerate_sign_vectors(K)
    model = l1.fit(K, 1, l1.FitOptions(starts=args.starts, seed=args.seed))
    solver_obj = model.components[0].objective
    _emit(args, {"oracle_objective": best.best_objective,
                 "solver_objective": solver_obj,
                 "gap": best.best_objective - solver_obj,
                 "oracle_sign": [int(x) for x in best.best_sign]})


_COMMANDS = {"fit": _cmd_fit, "fit-l2": _cmd_fit_l2, "transform": _cmd_transform,
             "detect": _cmd_detect, "synth": _cmd_synth, "robustness": _cmd_robustness,
             "bench": _cmd_bench, "oracle": _cmd_oracle}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _COMMANDS[args.command](args)
    except L1KpcaError as exc:
        print(f"l1kpca: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
