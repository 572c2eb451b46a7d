"""Workloads, the timed closed loop, the traced run and the result line.

One client runs the ops of a workload one after another, in process,
through ``l1kpca.cli.main``; each op is timed by wall clock around that
call. Every workload runs every op, so every metric exists on every
workload; the sizes decide which layer dominates. Outputs are checked
after timing (see checks.py) and a failed op or check counts in
``failed``.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections.abc import Callable
from dataclasses import dataclass
from itertools import zip_longest
from pathlib import Path

import numpy as np

import checks
from inputs import Recipe, corrupted_low_rank, write_csv

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"

OPS = ("fit", "fit-l2", "transform", "detect", "robustness", "oracle")
COMPONENTS = 10
SETUP_SAMPLES = 7
SETUP_CODE = ("import numpy as np, l1kpca; a = np.ones((256, 256)); a @ a; "
              "np.linalg.eigh(a[:64, :64]); print('ready', flush=True)")
SWEEP = ("--n", "200", "--d", "20", "--rank", "5", "--p", "4", "--sigma", "20.0")


@dataclass(frozen=True)
class Workload:
    family: str   # kernel of every op
    data: Recipe  # the dataset of fit, fit-l2, transform and detect


GRID = ("10", "15", "20", "25")  # one robustness call per corruption level
SWEEP_SEEDS = 5                  # instances per corruption level
ORACLES = 4                      # oracle instances per pass
ORACLE_RECIPE = Recipe(n=17, d=6, rank=2, noise_scale=5.0)

# Outlier noise scales are set so that `auc` is a steady quality signal across
# seeds. At the program's default of 5 the AUC is low and moves by a fifth
# between seeds, and at 10 it still spans 0.70-0.89. At the scales below it
# is 0.87-0.99 and moves by a few percent.
WORKLOADS = {
    # n x n x d difference tensor: the gaussian Gram is about half the data ops.
    "gauss-1200": Workload("gaussian", Recipe(n=1200, d=40, rank=8, noise_scale=12.0)),
    # Cheap Gram: sign iteration, deflation, full eigh and model JSON I/O.
    "linear-2k": Workload("linear", Recipe(n=2000, d=50, rank=10, noise_scale=15.0)),
}
# The traced run repeats this workload once with BLAS pinned to the CPU count.
THREADED_WORKLOAD = "linear-2k"


@dataclass
class Job:
    op: str
    argv: list[str]
    files: list[Path]  # written by the op; hashed after every pass
    check: Callable[[], tuple[list[str], dict]]  # -> (failure messages, observed values)


def _kernel_flags(family: str, d: int) -> list[str]:
    return ["--kernel", family] + (["--sigma", repr(float(d))] if family == "gaussian" else [])


def make_jobs(workload: Workload, seed: int, work: Path) -> tuple[list[Job], dict]:
    """Generate the workload's input files from the seed and the ops that read them."""
    rng = np.random.default_rng(seed)
    digests = {}
    common = ["--seed", str(seed)]
    recipe, family = workload.data, workload.family
    X, mask = corrupted_low_rank(recipe, rng)
    noisy, normal = work / "noisy.csv", work / "normal.csv"
    digests[noisy.name] = write_csv(noisy, X, mask)
    digests[normal.name] = write_csv(normal, X[mask == 0])
    data = ["--data", str(noisy), "--label-column", str(recipe.d)]
    kern = _kernel_flags(family, recipe.d)
    sigma = float(recipe.d)
    comps = ["--components", str(COMPONENTS)]
    model, l2model = work / "model.json", work / "l2model.json"
    out = {op: work / f"{op}.json" for op in ("fit", "fit-l2", "transform", "detect")}
    raw, query = X, X[mask == 0]

    def fit_check(model=model, out=out["fit"], raw=raw, family=family, sigma=sigma):
        payload = checks.load(out)
        return (checks.check_fit(model, payload, raw, family, sigma),
                {"fit_objectives": payload["objectives"]})

    def l2_check(model=l2model, out=out["fit-l2"], raw=raw, family=family, sigma=sigma):
        payload = checks.load(out)
        return (checks.check_fit_l2(model, payload, raw, family, sigma),
                {"fit_l2_eigenvalues": payload["eigenvalues"]})

    def transform_check(model=model, out=out["transform"], query=query):
        payload = checks.load(out)
        scores = np.asarray(payload["scores"])
        return (checks.check_transform(model, payload, query),
                {"transform_checksum": [float(scores.sum()), float((scores * scores).sum())]})

    def detect_check(model=model, out=out["detect"], mask=mask):
        payload = checks.load(out)
        return checks.check_detect(model, payload, mask), {"auc": payload["auc"]}

    jobs = [
        Job("fit", ["fit", *data, *kern, *comps, *common, "--model", str(model),
                    "--output", str(out["fit"])], [out["fit"], model], fit_check),
        Job("fit-l2", ["fit-l2", *data, *kern, *comps, *common, "--model", str(l2model),
                       "--output", str(out["fit-l2"])], [out["fit-l2"], l2model], l2_check),
        Job("transform", ["transform", "--data", str(normal), "--model", str(model),
                          "--output", str(out["transform"])], [out["transform"]],
            transform_check),
        Job("detect", ["detect", *data, *kern, *comps, *common,
                       "--output", str(out["detect"])], [out["detect"]], detect_check),
    ]

    sweeps, oracles = [], []
    for r in GRID:
        out = work / f"robustness{r}.json"

        def robustness_check(out=out):
            payload = checks.load(out)
            return (checks.check_robustness(payload, 1),
                    {"tev_l1": [row["tev_l1"] for row in payload["results"]]})

        sweeps.append(Job("robustness", ["robustness", "--grid", r, "--kernel", family,
                                         "--seeds", str(SWEEP_SEEDS), *SWEEP, *common,
                                         "--output", str(out)], [out], robustness_check))

    for k in range(ORACLES):
        X, _ = corrupted_low_rank(ORACLE_RECIPE, rng)
        path, out = work / f"oracle{k}.csv", work / f"oracle{k}.json"
        digests[path.name] = write_csv(path, X)

        def oracle_check(out=out, raw=X, sigma=float(ORACLE_RECIPE.d)):
            payload = checks.load(out)
            return (checks.check_oracle(payload, raw, family, sigma),
                    {"oracle_objectives": payload["oracle_objective"],
                     "solver_objectives": payload["solver_objective"]})

        oracles.append(Job("oracle", ["oracle", "--data", str(path),
                                      *_kernel_flags(family, ORACLE_RECIPE.d), *common,
                                      "--output", str(out)], [out], oracle_check))
    extras = [job for pair in zip_longest(sweeps, oracles) for job in pair if job is not None]
    return spread_out(jobs, extras), digests


def spread_out(jobs: list[Job], extras: list[Job]) -> list[Job]:
    """Place the short jobs evenly between the dataset jobs.

    Load from other tenants of the machine comes and goes over seconds, so a
    short op timed in one stretch of the pass can read 30% off; split into
    several calls spread over the pass, its per-pass sum averages over that
    load.
    """
    out, k = [], 0
    step = len(jobs) / len(extras)
    for i, job in enumerate(jobs, start=1):
        out.append(job)
        while k < len(extras) and (k + 1) * step <= i:
            out.append(extras[k])
            k += 1
    return out + extras[k:]


def run_op(argv: list[str]) -> int:
    """One CLI call; an exception or argparse exit counts as a failed op, not a harness crash."""
    from l1kpca import cli
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:  # the program crashed; record it and keep the loop running
        traceback.print_exc()
        return -1


def _digest(paths: list[Path]) -> list[str | None]:
    return [hashlib.sha256(p.read_bytes()).hexdigest() if p.exists() else None for p in paths]


def one_pass(jobs: list[Job], failures: dict[int, list[str]], timer=None) -> dict[str, float]:
    """Run every job once; return wall seconds summed per op."""
    walls = dict.fromkeys(OPS, 0.0)
    for idx, job in enumerate(jobs):
        if timer is None:
            t0 = time.perf_counter()
            rc = run_op(job.argv)
            wall = time.perf_counter() - t0
        else:
            rc, wall = timer(job.op.replace("-", "_"), run_op, job.argv)
        walls[job.op] += wall
        if rc != 0:
            failures.setdefault(idx, []).append(f"exit code {rc}")
    return walls


def timed_passes(jobs: list[Job], seconds: float, failures: dict[int, list[str]],
                 setup: list[float]):
    """Closed loop: an untimed warm-up pass, then whole passes that fit in `seconds`.

    The warm-up carries first-call costs and brings memory into use; on a
    virtual machine, memory the guest has not touched lately costs a host
    fault per page on first use. At least one pass is timed; another is not
    started when the longest pass so far would carry the run past
    `seconds`. After each timed pass one set-up sample is added to `setup`,
    so set-up time is sampled across the whole run.
    """
    one_pass(jobs, failures)
    first = [_digest(job.files) for job in jobs]
    samples, longest = [], 0.0
    start = time.perf_counter()
    while not samples or time.perf_counter() - start + longest <= seconds:
        t0 = time.perf_counter()
        samples.append(one_pass(jobs, failures))
        digests = [_digest(job.files) for job in jobs]
        longest = max(longest, time.perf_counter() - t0)
        for idx, (a, b) in enumerate(zip(first, digests)):
            if a != b:
                failures.setdefault(idx, []).append("output differs between passes")
        setup += measure_setup(1)
    return samples


def measure_setup(samples: int) -> list[float]:
    """Seconds from process start to `import l1kpca` done and BLAS warmed, per fresh process."""
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE], stdout=subprocess.PIPE,
                                text=True, cwd=ROOT)
        try:
            line = proc.stdout.readline().strip()
            times.append(time.perf_counter() - t0)
            proc.stdout.close()
            code = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if code != 0 or line != "ready":
            raise RuntimeError("set-up probe failed: cannot import l1kpca")
    return times


def warm_blas() -> None:
    a = np.ones((256, 256))
    a @ a
    np.linalg.eigh(a[:64, :64])


def _git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def metadata(threads: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(), "node": platform.node(),
            "system": platform.system(), "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": threads,
            "numpy": np.__version__, "python": platform.python_version(),
            "commit": _git_commit()}


def run_checks(jobs: list[Job], failures: dict[int, list[str]]) -> dict[str, list]:
    """Untimed output checks; returns, per reference key, one observed value per job."""
    observed: dict[str, list] = {}
    for idx, job in enumerate(jobs):
        if idx in failures:
            continue
        try:
            errors, values = job.check()
        except (OSError, ValueError, KeyError, TypeError) as exc:
            errors, values = [f"unreadable output: {exc!r}"], {}
        if errors:
            failures.setdefault(idx, []).extend(errors)
        for key, value in values.items():
            observed.setdefault(key, []).append(value)
    return observed


def quality(observed: dict[str, list]) -> dict[str, tuple[float, str]]:
    """auc, tev_l1 and oracle_ratio means; 0 when a failed op left nothing to average."""
    def mean(values):
        return statistics.mean(values) if values else 0.0

    tev = [t for cells in observed.get("tev_l1", []) for t in cells]
    ratios = [s / o for s, o in zip(observed.get("solver_objectives", []),
                                    observed.get("oracle_objectives", []))]
    return {"auc": (mean(observed.get("auc", [])), "1"), "tev_l1": (mean(tev), "%"),
            "oracle_ratio": (mean(ratios), "1")}


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def expected_metrics(trace: int) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def _traced_pass(jobs, failures, memory: bool):
    from spans import Tracer
    tracer = Tracer(memory=memory)
    tracer.install()
    try:
        walls = one_pass(jobs, failures, timer=tracer.op_span)
    finally:
        tracer.uninstall()
    return walls, tracer.totals


def traced_run(jobs, failures, seed, workload_name) -> tuple[dict, dict]:
    """An untraced pass, a traced pass for spans and counts, and one for memory peaks."""
    from spans import LAYERS, MEM_LAYERS
    untraced = one_pass(jobs, failures)
    traced, totals = _traced_pass(jobs, failures, memory=False)
    _, mem_totals = _traced_pass(jobs, failures, memory=True)

    metrics, per_op = {}, {}
    for op in OPS:
        key = op.replace("-", "_")
        layers = {name: dict(row) for (o, name), row in totals.items() if o == key}
        self_sum = sum(row["self_s"] for row in layers.values())
        if abs(self_sum - traced[op]) > 1e-6 * max(1.0, traced[op]):
            raise RuntimeError(f"{op}: self times sum to {self_sum}, traced wall is {traced[op]}")
        for (o, name), row in mem_totals.items():
            if o == key and name in MEM_LAYERS:
                layers[name]["peak_bytes"] = row["peak_bytes"]
        per_op[op] = {"untraced_s": untraced[op], "traced_s": traced[op],
                      "overhead_s": traced[op] - untraced[op], "layers": layers}
        metrics[f"cli.{key}.self_s"] = _metric(layers[f"cli.{key}"]["self_s"], "s")
    for layer, counts in LAYERS.items():
        rows = [row for (o, name), row in totals.items() if name == layer]
        metrics[f"{layer}.self_s"] = _metric(sum(r["self_s"] for r in rows), "s")
        metrics[f"{layer}.calls"] = _metric(int(sum(r["calls"] for r in rows)), "count")
        if layer in MEM_LAYERS:
            peak = max(row["peak_bytes"] for (o, name), row in mem_totals.items()
                       if name == layer)
            metrics[f"{layer}.peak_mb"] = _metric(peak / 2**20, "MB")
        for count in counts or ():
            unit = "B" if count == "bytes" else "count"
            metrics[f"{layer}.{count}"] = _metric(int(sum(r[count] for r in rows)), unit)

    report = {"per_op": per_op}
    if workload_name == THREADED_WORKLOAD:
        report["threaded"] = threaded_baseline(seed)
    return metrics, report


def threaded_baseline(seed: int) -> dict:
    """The same workload, untraced, one pass, with BLAS pinned to the CPU count."""
    nproc = len(os.sched_getaffinity(0))
    argv = [sys.executable, str(HERE / "run.py"), "--workload", THREADED_WORKLOAD,
            "--seed", str(seed), "--seconds", "0", "--trace", "0", "--threads", str(nproc)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170,
                          check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{nproc}-thread baseline failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"correct": result["correct"],
            "threads": nproc, "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def _reference_check(workload: str, seed: int, observed: dict):
    """Compare with (or, when asked and correct, store) this seed's reference values."""
    refs = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
    reference = refs.get(workload, {}).get(str(seed))
    if reference is None:
        return [], "absent"
    errors, exact = checks.check_reference(observed, reference)
    return errors, "exact" if exact else ("within tolerance" if not errors else "differs")


def _record_reference(workload: str, seed: int, observed: dict) -> None:
    refs = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
    refs.setdefault(workload, {})[str(seed)] = observed
    REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def _failed_calls(failures: dict[int, list[str]], n_passes: int) -> int:
    # A failed exit fails that call; a failed check fails every call of the job,
    # since outputs are byte-identical across passes.
    return sum(n_passes if any(not m.startswith("exit code") for m in msgs) else len(msgs)
               for msgs in failures.values())


def run(args, threads: int) -> int:
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    expected = expected_metrics(args.trace)
    setup = measure_setup(SETUP_SAMPLES)
    import l1kpca
    if Path(l1kpca.__file__).resolve().parent != ROOT / "src" / "l1kpca":
        raise RuntimeError(f"imported l1kpca from {l1kpca.__file__}, not from {ROOT / 'src'}")
    warm_blas()

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    failures: dict[int, list[str]] = {}
    samples, report, derived = [], {}, {}
    try:
        jobs, digests = make_jobs(workload, args.seed, work)
        if args.trace:
            metrics, report = traced_run(jobs, failures, args.seed, args.workload)
            n_passes = 3
        else:
            samples = timed_passes(jobs, args.seconds, failures, setup)
            n_passes = len(samples) + 1  # with the warm-up
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        observed = run_checks(jobs, failures)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not args.trace:
        metrics = {f"{op.replace('-', '_')}_s": _metric(statistics.median(s[op] for s in samples),
                                                       "s") for op in OPS}
        metrics["setup_s"] = _metric(statistics.median(setup), "s")
        metrics["peak_rss_mb"] = _metric(peak_rss_mb, "MB")
        metrics.update({k: _metric(v, u) for k, (v, u) in quality(observed).items()})
        fit_s, fit_l2_s = metrics["fit_s"]["value"], metrics["fit_l2_s"]["value"]
        derived["fit_s/fit_l2_s"] = {"value": fit_s / fit_l2_s, "fit_s": fit_s,
                                     "fit_l2_s": fit_l2_s}
    if sorted(metrics) != sorted(expected):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(expected))} do not match "
                           "BENCHMARK.json")

    ref_errors, ref_state = _reference_check(args.workload, args.seed, observed)
    for idx, msgs in sorted(failures.items()):
        print(f"perfbench: {jobs[idx].op} {jobs[idx].argv}: {'; '.join(msgs)}", file=sys.stderr)
    for msg in ref_errors:
        print(f"perfbench: reference: {msg}", file=sys.stderr)
    correct = not failures and not ref_errors
    if args.record_reference and correct:
        _record_reference(args.workload, args.seed, observed)

    attempted = n_passes * len(jobs)
    result = {"correct": correct, "attempted": attempted,
              "failed": min(_failed_calls(failures, n_passes), attempted), "metrics": metrics}
    meta = metadata(threads)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "meta": meta, "inputs_sha256": digests,
              "setup_samples_s": setup, "passes": samples, "derived": derived,
              "reference": ref_state, "trace_report": report, "result": result}
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-threads{threads}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"# {args.workload} seed={args.seed} passes={n_passes} threads={threads} "
          f"reference={ref_state} record={path.relative_to(ROOT)}")
    print("# meta " + json.dumps(meta))
    for key, d in derived.items():
        print(f"# {key} = {d['value']:.4f} (fit_s {d['fit_s']:.4f} s, fit_l2_s {d['fit_l2_s']:.4f} s)")
    for op, row in report.get("per_op", {}).items():
        print(f"# {op}: traced {row['traced_s']:.4f} s, untraced {row['untraced_s']:.4f} s, "
              f"overhead {row['overhead_s']:+.4f} s")
    print(json.dumps(result))
    return 0
