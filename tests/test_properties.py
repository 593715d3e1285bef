"""Property tests on random instances: mixed-unitary channels acting on
product states diagonal in the measured basis.

Every drawn protocol must satisfy the integral and detailed fluctuation
relations, the bound 0 <= S(rho_fin || rho_tau) <= <sigma>, sub-additivity of
the mean entropy production, and agreement of chi's operator trace form with
the three-step measurement procedure. A second family has local dimensions 2
or 3 and empty initial outcomes; there both chi paths must stay finite and
agree, and the reversibility checks must hold on the supported outcomes.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from entroprec import (
    DensityMatrix,
    Observable,
    QuantumChannel,
    TwoTimeProtocol,
    bipartite_distributions,
    chebyshev_nodes,
    conditional_equality_deviation,
    crooks_check,
    entropy_bound_check,
    ift_deviation,
    moment_generating,
    simulate_measurement_path,
)
from entroprec.experiments import PHI_MAX, PHI_MIN
from conftest import random_mixed_unitary_channel

QUBIT_OBS = Observable.computational(2)
# probabilities bounded away from zero keep every outcome reachable
probabilities = st.floats(0.02, 0.98)
PHIS = np.array([-0.5, 0.3, 1.0])


@st.composite
def protocols(draw) -> TwoTimeProtocol:
    p_a, p_b = draw(probabilities), draw(probabilities)
    rho0 = DensityMatrix.from_diagonal(np.kron([p_a, 1 - p_a], [p_b, 1 - p_b]), partition=(2, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    channel = random_mixed_unitary_channel(4, rng)
    return TwoTimeProtocol.bipartite(rho0, QUBIT_OBS, QUBIT_OBS, QUBIT_OBS, QUBIT_OBS, channel)


@settings(max_examples=40)
@given(protocols())
def test_fluctuation_relations(proto):
    dist_ab = bipartite_distributions(proto)[2]
    assert ift_deviation(dist_ab) <= 1e-10
    assert crooks_check(proto) <= 1e-10


@settings(max_examples=40)
@given(protocols())
def test_entropy_bound_chain(proto):
    bound = entropy_bound_check(proto)
    assert bound.passed
    assert -1e-10 <= bound.relative_entropy <= bound.mean_sigma + 1e-10


@settings(max_examples=40)
@given(protocols())
def test_subadditivity(proto):
    # for a product initial state the gap is the mutual information of the
    # final outcome distribution, so it is never negative
    dist_a, dist_b, dist_ab, _ = bipartite_distributions(proto)
    assert dist_a.moment(1) + dist_b.moment(1) - dist_ab.moment(1) >= -1e-10


@settings(max_examples=25)
@given(protocols())
def test_chi_operator_form_matches_measurement_path(proto):
    for label in ("A", "B", "A-B"):
        operator = moment_generating(proto, label, PHIS)
        for phi, value in zip(PHIS, operator):
            measured = simulate_measurement_path(proto, label, float(phi))
            assert abs(float(value) - measured) <= 1e-10 * max(1.0, abs(measured))


@st.composite
def sparse_protocols(draw) -> TwoTimeProtocol:
    """Local dimensions 2 or 3, a product diagonal state with at least one
    empty local outcome, and either a mixed-unitary channel or a phased
    permutation, which keeps some reference outcomes empty too."""
    factors = []
    for _ in range(2):
        dim = draw(st.sampled_from([2, 3]))
        weights = np.array(draw(st.lists(probabilities, min_size=dim, max_size=dim)))
        empty = draw(st.lists(st.booleans(), min_size=dim, max_size=dim).filter(
            lambda flags: not all(flags)
        ))
        weights[empty] = 0.0
        factors.append(weights / weights.sum())
    assume(np.count_nonzero(factors[0] == 0) + np.count_nonzero(factors[1] == 0) > 0)
    dims = (factors[0].size, factors[1].size)
    rho0 = DensityMatrix.from_diagonal(np.kron(*factors), partition=dims)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = dims[0] * dims[1]
    if draw(st.booleans()):
        channel = random_mixed_unitary_channel(dim, rng)
    else:
        phases = np.exp(2j * np.pi * rng.uniform(size=dim))
        channel = QuantumChannel.unitary(np.eye(dim)[rng.permutation(dim)] * phases)
    local = [Observable.computational(d) for d in dims]
    return TwoTimeProtocol.bipartite(rho0, *local, *local, channel)


NODES = chebyshev_nodes(10, PHI_MIN, PHI_MAX).nodes


@pytest.mark.filterwarnings("ignore::entroprec.DegenerateSupportWarning")
@settings(max_examples=15)
@given(sparse_protocols())
def test_chi_paths_agree_with_empty_outcomes(proto):
    for label in ("A", "B", "A-B"):
        operator = moment_generating(proto, label, NODES)
        assert np.all(np.isfinite(operator))
        for phi, value in zip(NODES, operator):
            measured = simulate_measurement_path(proto, label, float(phi))
            assert math.isfinite(measured)
            assert abs(float(value) - measured) <= 1e-10 * max(1.0, abs(measured))


@pytest.mark.filterwarnings("ignore::entroprec.AbsoluteIrreversibilityWarning")
@settings(max_examples=15)
@given(sparse_protocols())
def test_reversibility_checks_with_empty_outcomes(proto):
    assert conditional_equality_deviation(proto) <= 1e-10
    assert crooks_check(proto) <= 1e-10
