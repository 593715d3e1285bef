import os

import numpy as np
import pytest
from hypothesis import settings

from entroprec import DensityMatrix, Observable, QuantumChannel

# Property tests draw the same examples on every run (no example database).
settings.register_profile("derandomized", derandomize=True, deadline=None)
settings.load_profile("derandomized")


def _seed() -> int:
    return int(os.environ.get("ENTROPREC_SEED", "20260810"))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(_seed())


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_density(dim: int, rng: np.random.Generator, partition=None) -> DensityMatrix:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = z @ z.conj().T
    return DensityMatrix(m / np.trace(m).real, partition)


def random_observable(dim: int, rng: np.random.Generator) -> Observable:
    return Observable.from_basis(random_unitary(dim, rng))


def random_mixed_unitary_channel(
    dim: int, rng: np.random.Generator, max_terms: int = 4
) -> QuantumChannel:
    k = int(rng.integers(1, max_terms + 1))
    weights = rng.dirichlet(np.ones(k))
    return QuantumChannel.mixed_unitary([random_unitary(dim, rng) for _ in range(k)], weights)
