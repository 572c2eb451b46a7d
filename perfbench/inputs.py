"""Seeded input generator owned by the benchmark.

The recipe is the corrupted low-rank model the program's own synth command
uses: a rank-r factor model U V' plus dense N(0, 0.1^2) noise, with
N(0, noise_scale^2) noise added to every entry of a uniformly chosen 10%
of the rows. It is written here rather than imported from the
program, so a change to the program's own generator cannot change what the
benchmark feeds it. The program receives only the CSV files; the sha256 of
each file is recorded in the result so two results can be checked for
identical inputs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DENSE_NOISE = 0.1
CORRUPT_PERCENT = 10.0


@dataclass(frozen=True)
class Recipe:
    n: int
    d: int
    rank: int
    noise_scale: float


def corrupted_low_rank(recipe: Recipe, rng: np.random.Generator):
    """(raw noisy matrix, 0/1 outlier mask) for one instance of the recipe."""
    n, d = recipe.n, recipe.d
    base = rng.standard_normal((n, recipe.rank)) @ rng.standard_normal((d, recipe.rank)).T
    base += DENSE_NOISE * rng.standard_normal((n, d))
    n_corrupt = int(np.ceil(CORRUPT_PERCENT / 100.0 * n))
    rows = rng.choice(n, size=n_corrupt, replace=False)
    base[rows] += recipe.noise_scale * rng.standard_normal((n_corrupt, d))
    mask = np.zeros(n, dtype=int)
    mask[rows] = 1
    return base, mask


def write_csv(path: Path, values: np.ndarray, labels: np.ndarray | None = None) -> str:
    """Write rows as shortest-repr floats (plus a trailing 0/1 label); return the sha256."""
    lines = []
    for i, row in enumerate(values):
        cells = [repr(float(x)) for x in row]
        if labels is not None:
            cells.append(str(int(labels[i])))
        lines.append(",".join(cells))
    data = ("\n".join(lines) + "\n").encode("utf-8")
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()
