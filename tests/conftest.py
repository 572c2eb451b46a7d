import numpy as np
import pytest

from l1kpca import (Dataset, DeflatedGram, GramMatrix, KernelSpec, LinearFactor, deflate, gram,
                    standardize)
from l1kpca import l1
from l1kpca.l1 import ConvergenceReport, _quadratic_form, _zero_band, validate_sign_vector


def instance_rows(seed, n, d):
    """The raw rows that make_instance(seed, n, d) standardizes."""
    return np.random.default_rng(seed).standard_normal((n, d))


def make_instance(seed, n, d, family="linear", sigma=None):
    """Seeded standardized dataset and its Gram matrix."""
    data = standardize(instance_rows(seed, n, d))
    spec = KernelSpec(family, sigma=float(d) if sigma is None else sigma)
    return data, gram(spec, data)


def raw_gram(entries):
    """Wrap a hand-written symmetric matrix as a GramMatrix."""
    return GramMatrix(entries=np.asarray(entries, dtype=float))


def raw_dataset(values):
    """Dataset with given values, identity standardization stats."""
    values = np.asarray(values, dtype=float)
    return Dataset(values=values, column_means=np.zeros(values.shape[1]),
                   column_stds=np.ones(values.shape[1]))


def sign_update(gram_matrix, c):
    """Dense reference step of the fixed-point map: c_i <- sgn((Kc)_i).

    Entries inside the zero band (|(Kc)_i| <= 1e-12 * n * max|K|) keep
    their previous sign.
    """
    c = validate_sign_vector(c, gram_matrix.n)
    v = gram_matrix.entries @ c
    return np.where(np.abs(v) <= _zero_band(gram_matrix), c, np.sign(v))


def train_scores(gram_matrix, c):
    """Dense reference training scores Kc / sqrt(c'Kc); a c'Kc in the zero band is refused."""
    c = validate_sign_vector(c, gram_matrix.n)
    v, s = _quadratic_form(gram_matrix, c, _zero_band(gram_matrix),
                           "objective {:.3e} is numerically zero")
    return v / np.sqrt(s)


def row_sum_start(K, tol_zero):
    """Reference of start 0's first pass: sgn(K 1), with row sums inside the zero band at +1.

    This was fit's deterministic start before every component started from
    the all-ones vector. K 1 is computed on each kernel form's own terms:
    the dense entries' row sums, X (X'1) for a LinearFactor and
    K_0 1 - T (T'1) for a DeflatedGram.
    """
    if isinstance(K, LinearFactor):
        rowsum = K.values @ K.values.sum(axis=0)
    elif isinstance(K, DeflatedGram):
        rowsum = K.base.entries.sum(axis=1) - K.scores @ K.scores.sum(axis=0)
    else:
        rowsum = K.entries.sum(axis=1)
    c = np.sign(rowsum)
    c[np.abs(rowsum) <= tol_zero] = 1.0
    return c


def iterate_batch_reference(gram_matrix, C0, tol_zero, paths=None):
    """Column-at-a-time reference of l1._iterate_batch on a GramMatrix, record for record.

    Each pass visits the active columns in order and works on one column
    at a time: |Kc|, the objective c'Kc, the norm and rate entries, the
    zero band and the flips, then either a row patch of Kc or a place in
    the pass's shared recompute. Reads l1.MAX_ITER at call time. A
    collections.Counter passed as paths counts the "patch" and
    "recompute" column-passes.
    """
    K = gram_matrix.entries
    n, m = C0.shape
    C = C0.copy()
    V = K @ C
    active = list(range(m))
    out = [None] * m
    traces = [[] for _ in range(m)]
    rates = [[] for _ in range(m)]
    band_hits = np.zeros(m, dtype=int)
    incr_cutoff = max(1, n // 8)

    for k in range(l1.MAX_ITER):
        still, recompute = [], []
        for col in active:
            c = C[:, col]
            v = V[:, col]
            abs_v = np.abs(v)
            s = float(c @ v)
            denom = float(abs_v.sum())
            traces[col].append(float(np.sqrt(max(s, 0.0)) / denom) if denom > 0 else 0.0)
            rates[col].append(s / denom if denom > 0 else 0.0)
            in_band = abs_v <= tol_zero
            band_hits[col] += int(in_band.sum())
            c_next = np.where(in_band, c, np.sign(v))
            flipped = np.flatnonzero(c_next != c)

            if flipped.size == 0:
                out[col] = (k + 1, s)
                continue
            if flipped.size <= incr_cutoff:
                V[:, col] = v + (c_next[flipped] - c[flipped]) @ K[flipped]
            else:
                recompute.append(col)
            if paths is not None:
                paths["patch" if flipped.size <= incr_cutoff else "recompute"] += 1
            C[:, col] = c_next
            still.append(col)

        if recompute:
            V[:, recompute] = K @ C[:, recompute]
        active = still
        if not active:
            break

    records = []
    for col in range(m):
        iterations, objective = out[col] or (l1.MAX_ITER, np.nan)
        norm = traces[col][-1] if out[col] else 0.0
        report = ConvergenceReport(
            iterations=iterations, norm_trace=traces[col],
            terminated_by="sign_fixed" if out[col] else "max_iter",
            rate_estimates=rates[col],
            lagrange_multiplier=1.0 / (2.0 * norm) if norm > 0 else np.nan,
            zero_band_hits=int(band_hits[col]))
        records.append((C[:, col].copy(), objective, report))
    return records


def deflation_chain(K, model):
    """Dense reference chain: K followed by K deflated by each component in turn."""
    chain = [K.entries]
    for comp in model.components:
        K = deflate(K, comp.sign_vector)
        chain.append(K.entries)
    return chain


@pytest.fixture
def two_point_gram():
    """Linear Gram of a1=(1,0), a2=(1,1): [[1,1],[1,2]]."""
    return raw_gram([[1.0, 1.0], [1.0, 2.0]])
