import numpy as np
import pytest

from l1kpca import Dataset, GramMatrix, KernelSpec, deflate, gram, standardize


def make_instance(seed, n, d, family="linear", sigma=None):
    """Seeded standardized dataset and its Gram matrix."""
    rng = np.random.default_rng(seed)
    data = standardize(rng.standard_normal((n, d)))
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
