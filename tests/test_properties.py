"""Property tests on random instances: mixed-unitary channels acting on
product states diagonal in the measured basis.

Every drawn protocol must satisfy the integral and detailed fluctuation
relations, the bound 0 <= S(rho_fin || rho_tau) <= <sigma>, sub-additivity of
the mean entropy production, and agreement of chi's operator trace form with
the three-step measurement procedure. A second family has local dimensions 2
or 3 and empty initial outcomes; there both chi paths must stay finite and
agree, and the reversibility checks must hold on the supported outcomes. On
both families chi from the transfer table must match the node-by-node trace
form, and a batch of protocols must give each its lone call's bits, also
where some of them share their state and observables by identity.
"""

import math
import re
import warnings

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
    char_function,
    chebyshev_nodes,
    conditional_equality_deviation,
    crooks_check,
    core,
    entropy_bound_check,
    ift_deviation,
    moment_generating,
    simulate_measurement_path,
    tensor_product,
)
from entroprec.channels import apply_kraus
from entroprec.charfunc import SUBSYSTEMS, _initial_state, _powered_state
from entroprec.experiments import PHI_MAX, PHI_MIN
from entroprec.protocol import _outcome_probs, stack_tables
from conftest import random_mixed_unitary_channel, random_unitary

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


def loop_char_function(proto, subsystem, lam):
    """G_C at each of ``lam`` on one protocol by the operator trace form
    evaluated node by node: the powered initial states (A and B through the
    complex128 Kronecker product) evolved by the Kraus set in extended
    precision and traced against the powered probe, whose A and B factor is
    widened by the identity in complex128 too. Returns the values and the
    dropped count."""
    lam = np.asarray(lam, dtype=complex)
    probe_z, initial_z = -1j * lam, 1 + 1j * lam
    kraus = proto.channel.kraus
    initial, dropped_in = _initial_state(proto, subsystem, initial_z)
    evolved = apply_kraus(kraus, initial)
    if subsystem == "A-B":
        proj_fin = proto.obs_fin.projectors
        p_fin = _outcome_probs(proj_fin, apply_kraus(kraus, proto._rho_in.astype(initial.dtype)))
        probe, dropped_fin = _powered_state(p_fin, proj_fin, probe_z)
    else:
        own = "AB".index(subsystem)
        probe, dropped_fin = _powered_state(
            proto.tables[subsystem].p_ref, proto.bipartite_obs[own + 2].projectors, probe_z
        )
        eye = np.eye(proto.bipartite_obs[3 - own].dim)
        probe = tensor_product(*(probe, eye)[:: 1 if subsystem == "A" else -1])
    return np.trace(probe @ evolved, axis1=-2, axis2=-1), dropped_in + dropped_fin


EXTENDED_RTOL = 64 * np.finfo(core.EXTENDED).eps
any_protocol = st.one_of(protocols(), sparse_protocols())
parameters = st.lists(
    st.builds(complex, st.floats(-2.0, 2.0), st.floats(-1.0, 1.0)), min_size=1, max_size=4
)


def chi_and_dropped(protos, label, lam):
    """char_function and the dropped count its warnings carry."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        values = char_function(protos, label, lam)
    dropped = sum(int(re.search(r"dropped (\d+) zero", str(w.message)).group(1)) for w in caught)
    return values, dropped


@settings(max_examples=30, deadline=None)
@given(any_protocol, parameters)
def test_table_form_matches_node_by_node_trace_form(proto, lam):
    # at complex lambda and at the real phi of the default grid
    for values in (np.array(lam), 1j * NODES):
        for label in SUBSYSTEMS:
            table, dropped = chi_and_dropped(proto, label, values)
            expected, expected_dropped = loop_char_function(proto, label, values)
            assert dropped == expected_dropped
            assert np.all(np.abs(table - expected) <= EXTENDED_RTOL * np.abs(expected))


@settings(max_examples=20, deadline=None)
@given(st.lists(any_protocol, min_size=1, max_size=4), parameters)
def test_mixed_batch_gives_lone_call_bits(protos, lam):
    # the lone calls run on fresh copies, which build their own tables
    for label in SUBSYSTEMS:
        batch, dropped = chi_and_dropped(protos, label, lam)
        lone = [chi_and_dropped(p._on_channel(p.channel), label, lam) for p in protos]
        assert dropped == sum(count for _, count in lone)
        for row, (values, _) in zip(batch, lone):
            for a, b in ((row.real, values.real), (row.imag, values.imag)):
                assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@st.composite
def shared_batches(draw) -> list:
    """A batch of one family's protocols around a drawn one: some are that
    protocol again, some share its rho0 and observables by identity (on
    another channel as a sweep builds them, or with a post-measurement state
    of their own), some carry equal-valued copies of them, all three on
    channels of its Kraus count, so that they stack with it; and some are
    drawn anew, with other observables and possibly another dimension."""
    family = draw(st.sampled_from([protocols, sparse_protocols]))
    base = draw(family())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    copy = lambda obs: Observable(obs.eigenvalues, obs.projectors.copy())
    n_kraus, dim = base.channel.kraus.shape[:2]
    batch = []
    kinds = st.sampled_from(["again", "moved", "shared", "copied", "drawn"])
    for kind in draw(st.lists(kinds, min_size=3, max_size=6)):
        unitaries = [random_unitary(dim, rng) for _ in range(n_kraus)]
        channel = QuantumChannel.mixed_unitary(unitaries, rng.dirichlet(np.ones(n_kraus)))
        if kind == "again":
            batch.append(base)
        elif kind == "moved":
            batch.append(base._on_channel(channel))
        elif kind == "shared":
            fields = (base.rho0, base.obs_in, base.obs_fin, channel, base.bipartite_obs)
            batch.append(TwoTimeProtocol(*fields))
        elif kind == "copied":
            rho0 = DensityMatrix(base.rho0.data.copy(), base.rho0.partition)
            local = [copy(obs) for obs in base.bipartite_obs]
            batch.append(TwoTimeProtocol.bipartite(rho0, *local, channel))
        else:
            batch.append(draw(family()))
    return [base, *batch]


def same_bits(a, b) -> bool:
    """Equal dtype, shape, values and signs of zeros."""
    a, b = np.asarray(a), np.asarray(b)
    parts = lambda x: (x.real, x.imag) if np.iscomplexobj(x) else (x,)
    return a.dtype == b.dtype and a.shape == b.shape and all(
        np.array_equal(x, y, equal_nan=True) and np.array_equal(np.signbit(x), np.signbit(y))
        for x, y in zip(parts(a), parts(b))
    )


@settings(max_examples=25, deadline=None)
@given(shared_batches(), parameters)
def test_shared_operands_give_lone_build_bits(batch, lam):
    # the lone builds run on fresh copies, each alone in its batch; at
    # lambda = 2i the initial weights have exponent -1, so empty initial
    # outcomes are counted as dropped, once for each time a protocol appears
    lone = [p._on_channel(p.channel) for p in batch]
    lam = np.array([*lam, 2j])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        stack_tables(batch)
        chi = {label: chi_and_dropped(batch, label, lam) for label in SUBSYSTEMS}
        for proto, alone in zip(batch, lone):
            for a, b in zip(proto.states, alone.states):
                assert same_bits(a, b)
            tables = [(proto.backward, alone.backward)]
            tables += [(proto.tables[label], alone.tables[label]) for label in alone.tables]
            for a, b in tables:
                assert all(same_bits(x, y) for x, y in zip(vars(a).values(), vars(b).values()))
            assert list(proto.distributions) == list(alone.distributions)
            for a, b in zip(proto.distributions.values(), alone.distributions.values()):
                assert same_bits(a.support, b.support) and same_bits(a.probs, b.probs)
                assert (a.label, a.dropped_outcomes, a.infinite_mass) == (
                    b.label, b.dropped_outcomes, b.infinite_mass
                )
        for label, (values, dropped) in chi.items():
            alone = [chi_and_dropped(p, label, lam) for p in lone]
            assert dropped == sum(count for _, count in alone)
            assert all(same_bits(row, value) for row, (value, _) in zip(values, alone))
        for proto, alone in zip(batch, lone):
            for a, b in zip(proto.transfer, alone.transfer):
                assert same_bits(a, b)
        bounds = entropy_bound_check(batch)
        assert bounds == [entropy_bound_check(p) for p in lone]
