"""CSV ingestion and JSON model persistence.

CSV files are comma-separated UTF-8, optionally with a header row and a
label column ({0,1} or {normal,outlier}); read_csv_raw returns the values
as written and read_csv standardizes them with their own statistics.
Model files are versioned JSON ("l1kpca/1") holding the training data,
kernel spec and per-component vectors; Gram matrices are never persisted,
so files stay O(n*d + n*p) instead of O(n^2).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import InvalidData, ParseError, SchemaError
from .kernel import Dataset, KernelSpec, standardize
from . import detect, l1, l2

FORMAT_VERSION = "l1kpca/1"

_LABEL_STRINGS = {"0": 0, "1": 1, "normal": 0, "outlier": 1}


@dataclass(frozen=True)
class DatasetFile:
    """How to read a CSV: path, header flag, optional label column (name or index)."""

    path: str
    has_header: bool = False
    label_column: str | int | None = None


def read_csv_raw(file: DatasetFile) -> tuple[np.ndarray, np.ndarray | None]:
    """Parse a numeric CSV into (raw feature matrix, labels or None).

    Raises ParseError with 1-based line/column positions for ragged rows,
    non-numeric feature cells, or unknown label values.
    """
    try:
        with open(file.path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ParseError(f"cannot read {file.path}: {exc}") from exc

    rows = [(no, line.split(",")) for no, line in enumerate(lines, start=1)
            if line.strip() != ""]
    if not rows:
        raise ParseError(f"{file.path} is empty")

    header: list[str] | None = None
    if file.has_header:
        header = [cell.strip() for cell in rows[0][1]]
        rows = rows[1:]
        if not rows:
            raise ParseError(f"{file.path} has a header but no data rows")

    width = len(rows[0][1])
    label_idx: int | None = None
    if file.label_column is not None:
        if isinstance(file.label_column, int):
            label_idx = file.label_column
            if not 0 <= label_idx < width:
                raise ParseError(f"label column index {label_idx} out of range (row width {width})")
        else:
            if header is None:
                raise ParseError(f"label column {file.label_column!r} needs a header row")
            try:
                label_idx = header.index(file.label_column)
            except ValueError:
                raise ParseError(f"label column {file.label_column!r} not in header {header}") from None

    values, labels = [], []
    for i, row in rows:
        if len(row) != width:
            raise ParseError(f"ragged row: expected {width} cells, found {len(row)}", line=i)
        feats = []
        for j, cell in enumerate(row, start=1):
            text = cell.strip()
            if label_idx is not None and j - 1 == label_idx:
                key = text.lower()
                if key not in _LABEL_STRINGS:
                    raise ParseError(f"unknown label value {text!r}", line=i, column=j)
                labels.append(_LABEL_STRINGS[key])
                continue
            try:
                feats.append(float(text))
            except ValueError:
                raise ParseError(f"non-numeric feature cell {text!r}", line=i, column=j) from None
        values.append(feats)

    return (np.asarray(values, dtype=float),
            None if label_idx is None else np.asarray(labels, dtype=int))


def read_csv(file: DatasetFile) -> Dataset:
    """Parse a numeric CSV (see read_csv_raw) into a standardized Dataset."""
    values, labels = read_csv_raw(file)
    data = standardize(values)
    return Dataset(values=data.values, column_means=data.column_means,
                   column_stds=data.column_stds, labels=labels)


def write_csv(path: str, matrix, labels=None, header: list[str] | None = None) -> None:
    """Write a numeric matrix (optionally with a trailing label column) as CSV."""
    matrix = np.asarray(matrix, dtype=float)
    with open(path, "w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(",".join(header) + "\n")
        for i, row in enumerate(matrix):
            cells = [repr(float(x)) for x in row]
            if labels is not None:
                cells.append(str(int(labels[i])))
            fh.write(",".join(cells) + "\n")


def _array(a) -> list:
    return np.asarray(a).tolist()


def _dataset_payload(data: Dataset) -> dict:
    payload = {"values": _array(data.values), "column_means": _array(data.column_means),
               "column_stds": _array(data.column_stds)}
    if data.labels is not None:
        payload["labels"] = _array(data.labels)
    return payload


def _dataset_from(payload: dict) -> Dataset:
    labels = payload.get("labels")
    return Dataset(values=np.asarray(payload["values"], dtype=float),
                   column_means=np.asarray(payload["column_means"], dtype=float),
                   column_stds=np.asarray(payload["column_stds"], dtype=float),
                   labels=None if labels is None else np.asarray(labels, dtype=int))


def _report_payload(rep: l1.ConvergenceReport) -> dict:
    return {"iterations": rep.iterations, "norm_trace": rep.norm_trace,
            "terminated_by": rep.terminated_by, "rate_estimates": rep.rate_estimates,
            "lagrange_multiplier": rep.lagrange_multiplier,
            "zero_band_hits": rep.zero_band_hits}


def _component_payload(comp: l1.ComponentModel) -> dict:
    return {"sign_vector": [int(x) for x in comp.sign_vector],
            "objective": comp.objective,
            "report": _report_payload(comp.report),
            "train_scores": _array(comp.train_scores)}


def write_model(model, path: str) -> None:
    """Persist a fitted model (L1, L2, or detection) as versioned JSON."""
    if isinstance(model, l1.KpcaModel):
        payload = {"version": FORMAT_VERSION, "kind": "l1",
                   "spec": model.spec.to_dict(),
                   "components": [_component_payload(c) for c in model.components]}
        if model.train_ref is not None:
            payload["train"] = _dataset_payload(model.train_ref)
    elif isinstance(model, l2.EigenModel):
        payload = {"version": FORMAT_VERSION, "kind": "l2",
                   "eigenvalues": _array(model.eigenvalues),
                   "coefficient_vectors": _array(model.coefficient_vectors)}
        if model.spec is not None:
            payload["spec"] = model.spec.to_dict()
        if model.train_ref is not None:
            payload["train"] = _dataset_payload(model.train_ref)
    elif isinstance(model, detect.DetectionModel):
        payload = {"version": FORMAT_VERSION, "kind": "detection",
                   "score_matrix": _array(model.score_matrix),
                   "variances": _array(model.variances),
                   "alpha": model.alpha, "retained": model.retained,
                   "threshold": model.threshold}
    else:
        raise InvalidData(f"unsupported model type {type(model).__name__}")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def read_model(path: str):
    """Load a model written by write_model.

    Raises SchemaError on a version mismatch and ParseError on files that
    do not parse as JSON (truncation included).
    """
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid or truncated model file: {exc}") from exc

    version = payload.get("version")
    if version != FORMAT_VERSION:
        raise SchemaError(f"unsupported model version {version!r} (expected {FORMAT_VERSION!r})")

    kind = payload.get("kind")
    if kind == "l1":
        spec = KernelSpec.from_dict(payload["spec"])
        components = []
        for cp in payload["components"]:
            rep = cp["report"]
            report = l1.ConvergenceReport(
                iterations=rep["iterations"], norm_trace=rep["norm_trace"],
                terminated_by=rep["terminated_by"], rate_estimates=rep["rate_estimates"],
                lagrange_multiplier=rep["lagrange_multiplier"],
                zero_band_hits=rep.get("zero_band_hits", 0))
            components.append(l1.ComponentModel(
                sign_vector=np.asarray(cp["sign_vector"], dtype=float),
                objective=cp["objective"], report=report,
                train_scores=np.asarray(cp["train_scores"], dtype=float)))
        train = _dataset_from(payload["train"]) if "train" in payload else None
        return l1.KpcaModel(components=components, spec=spec, train_ref=train)
    if kind == "l2":
        spec = KernelSpec.from_dict(payload["spec"]) if "spec" in payload else None
        train = _dataset_from(payload["train"]) if "train" in payload else None
        return l2.EigenModel(eigenvalues=np.asarray(payload["eigenvalues"], dtype=float),
                             coefficient_vectors=np.asarray(payload["coefficient_vectors"], dtype=float),
                             spec=spec, train_ref=train)
    if kind == "detection":
        return detect.DetectionModel(
            score_matrix=np.asarray(payload["score_matrix"], dtype=float),
            variances=np.asarray(payload["variances"], dtype=float),
            alpha=payload["alpha"], retained=list(payload["retained"]),
            threshold=payload["threshold"])
    raise SchemaError(f"unknown model kind {kind!r}")
