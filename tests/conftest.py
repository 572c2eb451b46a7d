import numpy as np
import pytest

from l1kpca import Dataset, GramMatrix, KernelSpec, deflate, gram, standardize
from l1kpca.l1 import _quadratic_form, _zero_band, validate_sign_vector


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
    K = gram_matrix.entries
    c = validate_sign_vector(c, K.shape[0])
    v = K @ c
    return np.where(np.abs(v) <= _zero_band(K), c, np.sign(v))


def train_scores(gram_matrix, c):
    """Dense reference training scores Kc / sqrt(c'Kc); a c'Kc in the zero band is refused."""
    K = gram_matrix.entries
    c = validate_sign_vector(c, K.shape[0])
    v, s = _quadratic_form(K, c, _zero_band(K), "objective {:.3e} is numerically zero")
    return v / np.sqrt(s)


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
