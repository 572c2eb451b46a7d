"""Exhaustive ground truth for the sign-vector quadratic maximization.

Evaluates c'Kc for every sign vector with c_0 pinned to +1 (the objective
is invariant under a global flip), a block of vectors at a time: each
block is a +-1 matrix of about one kernel tile (~1 MB), so working memory
is a few block-sized arrays whatever the limit. Used to validate the
fixed-point solver on small instances, together with the max-cut form of
the same objective.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InstanceTooLarge
from .kernel import GramMatrix, _tile_rows
from .l1 import validate_sign_vector

DEFAULT_LIMIT = 20


@dataclass
class OracleResult:
    """Best sign vector and objective over the full enumeration.

    objective_histogram optionally holds all 2^(n-1) objective values in
    code order (see enumerate_sign_vectors).
    """

    best_sign: np.ndarray
    best_objective: float
    objective_histogram: list[float] | None = None


def _sign_block(first: int, stop: int, n: int) -> np.ndarray:
    """Sign vectors of codes first..stop-1, one per row."""
    codes = np.arange(first, stop, dtype=np.int64)
    bits = (codes[:, None] >> np.arange(n - 2, -1, -1)) & 1
    C = np.ones((stop - first, n))
    C[:, 1:] -= 2.0 * bits
    return C


def enumerate_sign_vectors(gram_matrix: GramMatrix, limit: int = DEFAULT_LIMIT,
                           keep_histogram: bool = False) -> OracleResult:
    """Maximize c'Kc over sign vectors by exhaustive blockwise search.

    Code t in [0, 2^(n-1)) stands for the vector with c_0 = +1 and
    c_i = -1 where bit n-1-i of t is set, so rising codes list the
    vectors in lexicographic order with +1 before -1. Codes are evaluated
    in blocks of one kernel tile, each block's objectives as one product;
    exact ties go to the lowest code, the vector whose +1 entries come
    first.
    """
    K = gram_matrix.entries
    n = K.shape[0]
    if n > limit:
        raise InstanceTooLarge(f"n={n} exceeds enumeration limit {limit}")

    total = 1 << (n - 1)
    step = _tile_rows(n)
    best_code, best_obj = 0, -np.inf
    hist = [] if keep_histogram else None
    for first in range(0, total, step):
        C = _sign_block(first, min(total, first + step), n)
        obj = np.einsum("ij,ij->i", C @ K, C)
        if keep_histogram:
            hist.extend(obj.tolist())
        # argmax keeps the first maximum in the block; strict > across blocks.
        i = int(np.argmax(obj))
        if obj[i] > best_obj:
            best_code, best_obj = first + i, obj[i]

    best_c = _sign_block(best_code, best_code + 1, n)[0]
    # Report the winner's value as a gemv and a dot, not its einsum value:
    # those are the bits fit reports for the same vector, so oracle and
    # solver objectives compare exactly.
    best_obj = float(best_c @ (K @ best_c))
    return OracleResult(best_sign=best_c, best_objective=best_obj,
                        objective_histogram=hist)


def maxcut_objective(gram_matrix: GramMatrix, c) -> float:
    """The same quadratic form written as a max-cut value.

    With edge weights -K_ij, the value is sum_ij K_ij plus the weight of
    the cut induced by the sign partition; it equals c'Kc identically.
    """
    K = gram_matrix.entries
    c = validate_sign_vector(c, K.shape[0])
    d = c[:, None] - c[None, :]
    cut = float(np.sum(np.triu(-K * d * d, k=1)))
    return float(K.sum()) + cut
