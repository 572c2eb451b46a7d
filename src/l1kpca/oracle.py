"""Exhaustive ground truth for the sign-vector quadratic maximization.

Evaluates c'Kc for every sign vector with c_0 pinned to +1 (the objective
is invariant under a global flip) through the 2x2 block form of the
objective: with P the leading entries and Q the trailing ones,

    c'Kc = c_P' K_PP c_P + 2 c_P' K_PQ c_Q + c_Q' K_QQ c_Q.

Each half is enumerated once, about 2^(n/2) patterns apiece, with its own
quadratic term as a table; the cross terms of a tile of leading patterns
against all trailing ones are one matrix product. Working memory is one
~1 MB tile of objectives plus the half-size tables, about 1.2 MB at the
n <= MAX_ENUMERATION_SIZE cap.
Used to validate the fixed-point solver on small instances, together with
the max-cut form of the same objective.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InstanceTooLarge
from .kernel import GramMatrix, _tile_rows
from .l1 import validate_sign_vector

# The search visits 2^(n-1) sign vectors; cap n to bound its time (2^19 at the cap).
MAX_ENUMERATION_SIZE = 20


def _require_enumerable(n: int) -> None:
    """Raise InstanceTooLarge when n samples are past MAX_ENUMERATION_SIZE."""
    if n > MAX_ENUMERATION_SIZE:
        raise InstanceTooLarge(f"n={n} exceeds enumeration limit {MAX_ENUMERATION_SIZE}")


@dataclass
class OracleResult:
    """Best sign vector and objective over the full enumeration."""

    best_sign: np.ndarray
    best_objective: float


def _sign_rows(width: int) -> np.ndarray:
    """All 2^width sign patterns of width entries, row t for code t.

    Entry j is -1 where bit width-1-j of t is set, so rising codes list
    the patterns in lexicographic order with +1 before -1.
    """
    codes = np.arange(1 << width, dtype=np.int64)
    bits = (codes[:, None] >> np.arange(width - 1, -1, -1)) & 1
    return 1.0 - 2.0 * bits


def _quadratic_table(rows: np.ndarray, K: np.ndarray) -> np.ndarray:
    """r'Kr for each row r of rows."""
    return np.einsum("ij,ij->i", rows @ K, rows)


def enumerate_sign_vectors(gram_matrix: GramMatrix) -> OracleResult:
    """Maximize c'Kc over sign vectors by exhaustive search on the block split.

    Code t in [0, 2^(n-1)) stands for the vector with c_0 = +1 and
    c_i = -1 where bit n-1-i of t is set, so rising codes list the
    vectors in lexicographic order with +1 before -1.

    The low b = (n-1)//2 bits of t set the last b entries Q and the high
    bits the leading entries P (c_0 included). H holds every leading
    pattern, L every trailing one, and hq, lq their quadratic terms; the
    objectives of a tile of H rows against all of L are then
    H[tile] @ (2 K_PQ L') + hq[tile, None] + lq, rows high codes and
    columns low codes, so each tile is a run of consecutive codes. A tile
    is about one kernel tile (~1 MB) of objectives, and H, L and the
    2 K_PQ L' factor hold about 2^(n/2) * n floats each, so at n = 20
    working memory is about 1.2 MB. Exact ties go to the lowest code, the
    vector whose +1 entries come first.
    """
    K = gram_matrix.entries
    n = K.shape[0]
    _require_enumerable(n)

    b = (n - 1) // 2
    p = n - b
    H = np.ones((1 << (p - 1), p))
    H[:, 1:] = _sign_rows(p - 1)
    L = _sign_rows(b)
    M = 2.0 * (K[:p, p:] @ L.T)
    hq = _quadratic_table(H, K[:p, :p])
    lq = _quadratic_table(L, K[p:, p:])

    step = min(H.shape[0], _tile_rows(L.shape[0]))
    tile = np.empty((step, L.shape[0]))
    best_code, best_obj = 0, -np.inf
    for first in range(0, H.shape[0], step):
        stop = min(H.shape[0], first + step)
        obj = np.matmul(H[first:stop], M, out=tile[:stop - first])
        obj += hq[first:stop, None]
        obj += lq
        # argmax keeps the first maximum in code order; strict > across tiles.
        i = int(np.argmax(obj))
        if obj.flat[i] > best_obj:
            best_code, best_obj = first * L.shape[0] + i, obj.flat[i]

    high, low = divmod(best_code, L.shape[0])
    best_c = np.concatenate((H[high], L[low]))
    # Report the winner's value as a gemv and a dot, not its tile value:
    # those are the bits fit reports for the same vector, so oracle and
    # solver objectives compare exactly.
    best_obj = float(best_c @ (K @ best_c))
    return OracleResult(best_sign=best_c, best_objective=best_obj)


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
