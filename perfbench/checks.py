"""Output checks, written against plain numpy rather than the program's code.

Each check returns a list of failure messages (empty when the output is
right). They run after timing, untimed. Tolerances are relative to the
scale of the quantity and allow for the rounding difference between the
program's kernels and the ones below (the gaussian Gram here uses the
dot-product expansion, the program explicit differences).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

REL_TOL = 1e-8  # recomputed quantities vs program output
REF_TOL = 1e-9  # program output vs committed reference values


def load(path: Path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def standardize(raw: np.ndarray):
    means = raw.mean(axis=0)
    stds = raw.std(axis=0, ddof=1)
    stds = np.where(stds > 0, stds, 1.0)
    return (raw - means) / stds, means, stds


def kernel(family: str, sigma: float, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    if family == "linear":
        return A @ B.T
    sq = (A * A).sum(1)[:, None] + (B * B).sum(1)[None, :] - 2.0 * (A @ B.T)
    return np.exp(-np.maximum(sq, 0.0) / (2.0 * sigma**2))


def _close(a, b, tol, scale=None) -> bool:
    try:
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    except (TypeError, ValueError):  # missing or ragged values
        return False
    if a.shape != b.shape:
        return False
    scale = np.max(np.abs(b)) if scale is None else scale
    return bool(np.all(np.abs(a - b) <= tol * max(scale, 1e-300)))


def _model_train(model: dict, raw: np.ndarray, errors: list[str]) -> np.ndarray:
    X, _, _ = standardize(raw)
    if not _close(model["train"]["values"], X, REL_TOL):
        errors.append("model training values differ from the standardized input")
    return X


def check_fit(model_path: Path, output: dict, raw: np.ndarray, family: str,
              sigma: float) -> list[str]:
    """Objectives and train scores recomputed on the dense deflated Gram; fixed points."""
    errors: list[str] = []
    model = load(model_path)
    X = _model_train(model, raw, errors)
    K = kernel(family, sigma, X, X)
    n = K.shape[0]
    comps = model["components"]
    if output["objectives"] != [c["objective"] for c in comps]:
        errors.append("fit output objectives differ from the model file")
    for j, comp in enumerate(comps):
        c = np.asarray(comp["sign_vector"], dtype=float)
        v = K @ c
        s = float(c @ v)
        if not _close(s, comp["objective"], REL_TOL):
            errors.append(f"component {j}: objective {comp['objective']!r} != c'Kc {s!r}")
        band = 1e-10 * n * float(np.abs(K).max())
        if np.any(c * v < -band):
            errors.append(f"component {j}: sign vector is not a fixed point of its deflated Gram")
        if not _close(comp["train_scores"], v / np.sqrt(s), REL_TOL):
            errors.append(f"component {j}: train scores differ from Kc/sqrt(c'Kc)")
        K -= np.outer(v, v) / s
    return errors


def check_fit_l2(model_path: Path, output: dict, raw: np.ndarray, family: str,
                 sigma: float) -> list[str]:
    """Eigenvalues against numpy's eigvalsh and eigenpair residuals."""
    errors: list[str] = []
    model = load(model_path)
    X = _model_train(model, raw, errors)
    K = kernel(family, sigma, X, X)
    mu = np.asarray(model["eigenvalues"])
    if output["eigenvalues"] != model["eigenvalues"]:
        errors.append("fit-l2 output eigenvalues differ from the model file")
    expected = np.linalg.eigvalsh(K)[::-1][:mu.size]
    if not _close(mu, np.maximum(expected, 0.0), REL_TOL, scale=expected[0]):
        errors.append("eigenvalues differ from numpy's eigvalsh")
    U = np.asarray(model["coefficient_vectors"])
    if not _close(K @ U, U * mu, REL_TOL, scale=expected[0]):
        errors.append("coefficient vectors are not eigenvectors")
    return errors


def transform_scores(model_path: Path, query_raw: np.ndarray) -> np.ndarray:
    """Out-of-sample scores by replaying the deflation identity on the cross-Gram."""
    model = load(model_path)
    train = model["train"]
    X = np.asarray(train["values"])
    Q = (query_raw - np.asarray(train["column_means"])) / np.asarray(train["column_stds"])
    spec = model["spec"]
    G = kernel(spec["family"], spec["sigma"], Q, X)
    cols = []
    for comp in model["components"]:
        q = (G @ np.asarray(comp["sign_vector"], dtype=float)) / np.sqrt(comp["objective"])
        cols.append(q)
        G -= np.outer(q, comp["train_scores"])
    return np.column_stack(cols)


def check_transform(model_path: Path, output: dict, query_raw: np.ndarray) -> list[str]:
    expected = transform_scores(model_path, query_raw)
    if not _close(output["scores"], expected, REL_TOL):
        return ["transform scores differ from the cross-Gram deflation replay"]
    return []


def average_precision(scores: np.ndarray, labels: np.ndarray) -> float:
    """Average precision with tied scores taken as one step (the program's definition)."""
    order = np.argsort(-scores, kind="stable")
    s, y = scores[order], labels[order]
    total, tp, ap, i = int(labels.sum()), 0, 0.0, 0
    while i < len(s):
        j = i
        while j + 1 < len(s) and s[j + 1] == s[i]:
            j += 1
        step = int(y[i:j + 1].sum())
        tp += step
        ap += step * tp / (j + 1)
        i = j + 1
    return ap / total


def check_detect(fit_model_path: Path, output: dict, labels: np.ndarray) -> list[str]:
    """Scores from the fit model's training scores (same data, seed and starts) and the AUC."""
    errors: list[str] = []
    model = load(fit_model_path)
    Y = np.column_stack([c["train_scores"] for c in model["components"]])
    lam = Y.var(axis=0)
    alpha = max(a for a in lam if lam[lam >= a].sum() >= 0.8 * lam.sum())
    keep = (lam >= alpha) & (lam > 1e-12 * lam.max())
    expected = (Y[:, keep] ** 2 / lam[keep]).sum(axis=1)
    scores = np.asarray(output["scores"])
    if not _close(scores, expected, REL_TOL):
        errors.append("detect scores differ from the fit model's variance-scaled scores")
    if not _close(output["auc"], average_precision(scores, labels), 1e-12, scale=1.0):
        errors.append("detect auc differs from the average precision of its scores")
    return errors


def check_robustness(output: dict, n_cells: int) -> list[str]:
    rows = output["results"]
    if len(rows) != n_cells:
        return [f"robustness returned {len(rows)} rows, expected {n_cells}"]
    tevs = [r[key] for r in rows for key in ("tev_l1", "tev_l2")]
    if not all(0.0 < t <= 100.0 * (1 + 1e-9) for t in tevs):
        return ["an explained-variation value lies outside (0, 100]"]
    return []


def brute_force_max(K: np.ndarray) -> float:
    """max c'Kc over sign vectors with c_0 = +1, by direct enumeration."""
    n = K.shape[0]
    codes = np.arange(1 << (n - 1))
    C = np.ones((codes.size, n))
    C[:, 1:] = 1.0 - 2.0 * ((codes[:, None] >> np.arange(n - 1)) & 1)
    return float(np.max(np.einsum("ij,ij->i", C @ K, C)))


def check_oracle(output: dict, raw: np.ndarray, family: str, sigma: float) -> list[str]:
    errors: list[str] = []
    X, _, _ = standardize(raw)
    K = kernel(family, sigma, X, X)
    best = brute_force_max(K)
    oracle, solver = output["oracle_objective"], output["solver_objective"]
    if not _close(oracle, best, REL_TOL):
        errors.append(f"oracle objective {oracle!r} != enumerated maximum {best!r}")
    c = np.asarray(output["oracle_sign"], dtype=float)
    if not _close(float(c @ K @ c), oracle, REL_TOL):
        errors.append("oracle sign vector does not attain the oracle objective")
    if solver > oracle * (1 + REL_TOL):
        errors.append(f"solver objective {solver!r} exceeds the oracle {oracle!r}")
    return errors


def check_reference(observed: dict, reference: dict) -> tuple[list[str], bool]:
    """Compare observed values to the committed reference; return (errors, exact)."""
    errors, exact = [], True
    for key, ref in reference.items():
        got = observed.get(key)
        if got != ref:
            exact = False
            if not _close(got, ref, REF_TOL):
                errors.append(f"{key}: {got!r} differs from reference {ref!r}")
    return errors, exact
