"""CSV ingestion and JSON model persistence.

CSV files are comma-separated UTF-8, optionally with a header row and a
label column ({0,1} or {normal,outlier}); read_csv_raw returns the values
as written and read_csv standardizes them with their own statistics. The
values come from one bulk parse; only when it fails is the file scanned
again, to report the first bad cell's line and column.
Model files are versioned JSON ("l1kpca/1") of kind "l1" or "l2". One
envelope serves both kinds: version, kind and kernel spec, then the
kind's body (L1 components, or L2 eigenvalues and coefficient vectors),
then the optional training data. Gram matrices are never persisted, so
files stay O(n*d + n*p) instead of O(n^2). read_model decodes every
number scoring uses through one typed reader, _numbers, and hands the
kernel spec's raw values to KernelSpec, whose field rules are the only ones.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import asdict
from itertools import chain

import numpy as np

from .errors import InvalidData, ParseError, SchemaError
from .kernel import Dataset, KernelSpec, standardize
from . import l1, l2

FORMAT_VERSION = "l1kpca/1"

_LABEL_STRINGS = {"0": 0, "1": 1, "normal": 0, "outlier": 1}
_NUMBER_FORMS = ("a finite number", "a list of finite numbers", "a matrix of finite numbers")


def read_csv_raw(path: str, header: bool = False,
                 label_column: str | int | None = None) -> tuple[np.ndarray, np.ndarray | None]:
    """Parse a numeric CSV into (raw feature matrix, labels or None).

    label_column is a 0-based index, or a name from the header row.
    Raises ParseError with 1-based line/column positions for ragged rows,
    non-numeric feature cells, or unknown label values.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc

    rows = [(no, line.split(",")) for no, line in enumerate(lines, start=1)
            if line.strip() != ""]
    if not rows:
        raise ParseError(f"{path} is empty")

    names: list[str] | None = None
    if header:
        names = [cell.strip() for cell in rows[0][1]]
        rows = rows[1:]
        if not rows:
            raise ParseError(f"{path} has a header but no data rows")

    width = len(rows[0][1])
    label_idx: int | None = None
    if label_column is not None:
        if isinstance(label_column, int):
            label_idx = label_column
            if not 0 <= label_idx < width:
                raise ParseError(f"label column index {label_idx} out of range (row width {width})")
        else:
            if names is None:
                raise ParseError(f"label column {label_column!r} needs a header row")
            try:
                label_idx = names.index(label_column)
            except ValueError:
                raise ParseError(f"label column {label_column!r} not in header {names}") from None

    try:
        return _parse_bulk(rows, width, label_idx)
    except (KeyError, ValueError):
        _raise_first_error(rows, width, label_idx)
        raise  # never reached while float() and numpy's cast agree


def _parse_bulk(rows: list, width: int, label_idx: int | None):
    """All rows at once: one label lookup per row, one str -> float cast.

    numpy casts each str with float(). Raises KeyError or ValueError on any
    bad row; the caller then locates the first error with _raise_first_error.
    """
    if any(len(row) != width for _, row in rows):
        raise ValueError("ragged row")
    if label_idx is None:
        return np.array([row for _, row in rows], dtype=float), None
    labels = [_LABEL_STRINGS[row[label_idx].strip().lower()] for _, row in rows]
    feats = [row[:label_idx] + row[label_idx + 1:] for _, row in rows]
    return np.array(feats, dtype=float), np.asarray(labels, dtype=int)


def _raise_first_error(rows: list, width: int, label_idx: int | None) -> None:
    """Raise ParseError at the first ragged row, unknown label or non-numeric cell.

    Row by row and cell by cell; a feature cell is bad where float() refuses
    it, the same test numpy's cast in _parse_bulk applies. Builds no values.
    """
    for i, row in rows:
        if len(row) != width:
            raise ParseError(f"ragged row: expected {width} cells, found {len(row)}", line=i)
        for j, cell in enumerate(row, start=1):
            text = cell.strip()
            if j - 1 == label_idx:
                if text.lower() not in _LABEL_STRINGS:
                    raise ParseError(f"unknown label value {text!r}", line=i, column=j)
                continue
            try:
                float(text)
            except ValueError:
                raise ParseError(f"non-numeric feature cell {text!r}", line=i, column=j) from None


def read_csv(path: str, header: bool = False, label_column: str | int | None = None) -> Dataset:
    """Parse a numeric CSV (see read_csv_raw) into a standardized Dataset."""
    values, labels = read_csv_raw(path, header, label_column)
    return standardize(values, labels)


@contextmanager
def _open_for_writing(path: str):
    """Text file at path, opened for writing; an OSError while opening or
    writing it raises InvalidData("cannot write PATH: ...")."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise InvalidData(f"cannot write {path}: {exc}") from exc


def write_csv(path: str, matrix, labels=None) -> None:
    """Write a numeric matrix (optionally with a trailing label column) as CSV."""
    matrix = np.asarray(matrix, dtype=float)
    with _open_for_writing(path) as fh:
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


def _numbers(payload: dict, key: str, ndim: int) -> np.ndarray:
    """payload[key], a JSON number (ndim 0), list of numbers (1) or matrix
    (2, a list of equal-length lists of numbers), as a finite float array.

    Raises SchemaError for anything else: a string, boolean or null entry,
    a ragged list, the wrong nesting depth, NaN or infinity. A missing key
    raises KeyError, which read_model reports as a missing field.
    """
    value = payload[key]
    try:
        a = np.asarray(value)
    except ValueError:  # a ragged list
        a = None
    # numpy reads true / false among numbers as 1 / 0; where a 1 or 0 appears,
    # the entries' types are checked too.
    entries = (value,) if ndim == 0 else value if ndim == 1 else chain.from_iterable(value)
    if (a is None or a.ndim != ndim or a.dtype.kind not in "fiu" or not np.all(np.isfinite(a))
            or (np.any((a == 0) | (a == 1)) and bool in set(map(type, entries)))):
        raise SchemaError(f"field {key!r} must be {_NUMBER_FORMS[ndim]}")
    return a.astype(float, copy=False)


def _dataset_from(payload: dict) -> Dataset:
    labels = payload.get("labels")
    data = Dataset(values=_numbers(payload, "values", 2),
                   column_means=_numbers(payload, "column_means", 1),
                   column_stds=_numbers(payload, "column_stds", 1),
                   labels=None if labels is None else np.asarray(labels, dtype=int))
    if (data.column_means.shape != (data.n_features,)
            or data.column_stds.shape != (data.n_features,)
            or (data.labels is not None and data.labels.shape != (data.n_samples,))):
        raise SchemaError("training data arrays disagree in shape")
    if not np.all(data.column_stds > 0):
        raise SchemaError("training column stds must be positive")
    return data


def _component_payload(comp: l1.ComponentModel) -> dict:
    return {"sign_vector": [int(x) for x in comp.sign_vector],
            "objective": comp.objective,
            "report": asdict(comp.report),
            "train_scores": _array(comp.train_scores)}


def write_model(model, path: str) -> None:
    """Persist a fitted L1 or L2 model as versioned JSON."""
    if isinstance(model, l1.KpcaModel):
        kind, body = "l1", {"components": [_component_payload(c) for c in model.components]}
    elif isinstance(model, l2.EigenModel):
        kind, body = "l2", {"eigenvalues": _array(model.eigenvalues),
                            "coefficient_vectors": _array(model.coefficient_vectors)}
    else:
        raise InvalidData(f"unsupported model type {type(model).__name__}")
    payload = {"version": FORMAT_VERSION, "kind": kind, "spec": model.spec.to_dict(), **body}
    if model.train_ref is not None:
        payload["train"] = _dataset_payload(model.train_ref)
    with _open_for_writing(path) as fh:
        # One C-encoder call; json.dump streams through the pure-Python encoder.
        fh.write(json.dumps(payload))


def read_model(path: str):
    """Load a model written by write_model.

    Raises ParseError on files that do not parse as JSON (truncation
    included) and SchemaError on a version mismatch, a kind other than
    l1 / l2, or a malformed model: a missing or mistyped field (any of
    the kernel spec's four included; none is filled with a default), vectors
    whose lengths disagree with each other or with the stored training rows,
    a sign-vector entry other than -1 / +1, an objective that is not
    positive, a training column std that is not positive, or a negative
    eigenvalue. Every number scoring reads (training values, column means
    and stds; sign vectors, objectives and training scores; eigenvalues and
    eigenvectors) must be a finite JSON number: a string, boolean or null in
    its place, a ragged list, NaN or infinity is a mistyped field. Training
    labels and the convergence reports are not checked this way: scoring
    never reads them.

    The kernel spec is every value KernelSpec takes, and each one it
    refuses is a SchemaError here: an unknown family; a sigma, degree or
    offset (whatever the family) that is not a finite number or is a
    boolean; a degree that is not a whole number of size at most 2**53; a
    gaussian sigma that is not positive; a polynomial degree below 1 or a
    negative polynomial offset.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid or truncated model file: {exc}") from exc
    if not isinstance(payload, dict):
        raise SchemaError(f"model file holds a JSON {type(payload).__name__}, not an object")

    version = payload.get("version")
    if version != FORMAT_VERSION:
        raise SchemaError(f"unsupported model version {version!r} (expected {FORMAT_VERSION!r})")
    try:
        return _model_from(payload)
    except KeyError as exc:
        raise SchemaError(f"model file lacks field {exc.args[0]!r}") from None
    # InvalidData: a value a model type refuses, such as KernelSpec's field rules.
    except (AttributeError, InvalidData, OverflowError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed model file: {exc}") from None


def _model_from(payload: dict):
    kind = payload.get("kind")
    if kind not in ("l1", "l2"):
        raise SchemaError(f"unknown model kind {kind!r}")
    train = _dataset_from(payload["train"]) if "train" in payload else None
    spec_payload = payload["spec"]
    spec = KernelSpec(family=spec_payload["family"], sigma=spec_payload["sigma"],
                      degree=spec_payload["degree"], offset=spec_payload["offset"])
    if kind == "l1":
        components = [l1.ComponentModel(sign_vector=_numbers(cp, "sign_vector", 1),
                                        objective=_numbers(cp, "objective", 0).item(),
                                        report=l1.ConvergenceReport(**cp["report"]),
                                        train_scores=_numbers(cp, "train_scores", 1))
                      for cp in payload["components"]]
        if not components:
            raise SchemaError("model file has no components")
        n = components[0].sign_vector.size if train is None else train.n_samples
        if any(comp.sign_vector.shape != (n,) or comp.train_scores.shape != (n,)
               for comp in components):
            raise SchemaError(f"component sign vectors and training scores must all have length {n}")
        if any(np.any(np.abs(comp.sign_vector) != 1.0) for comp in components):
            raise SchemaError("sign vector entries must be exactly -1 or +1")
        if not all(comp.objective > 0 for comp in components):
            raise SchemaError("component objectives must be positive")
        return l1.KpcaModel(components=components, spec=spec, train_ref=train)
    mu = _numbers(payload, "eigenvalues", 1)
    U = _numbers(payload, "coefficient_vectors", 2)
    if mu.shape != (U.shape[1],) or (train is not None and U.shape[0] != train.n_samples):
        raise SchemaError("eigenvalues, eigenvectors and training rows disagree in shape")
    # l2_fit writes 0.0 inside the zero band and refuses anything more negative.
    if np.any(mu < 0):
        raise SchemaError("eigenvalues must not be negative")
    return l2.EigenModel(eigenvalues=mu, coefficient_vectors=U, spec=spec, train_ref=train)
