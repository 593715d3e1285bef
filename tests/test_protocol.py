import math

import numpy as np
import pytest

from entroprec import (
    AbsoluteIrreversibilityWarning,
    DensityMatrix,
    EntropyDistribution,
    JointOutcomeTable,
    Observable,
    QuantumChannel,
    TwoTimeProtocol,
    backward_joint,
    bipartite_distributions,
    convolve_distributions,
    correlation_witness,
    crooks_check,
    entropy_samples,
    forward_joint,
    ift_deviation,
    mean_entropy,
    ms_gate,
    second_law_report,
    tensor_product,
    conditional_equality_deviation,
    entropy_bound_check,
    von_neumann_entropy,
)
from entroprec.protocol import _dephase, _local_dephased, bipartite_marginals, merge_support
from conftest import random_density, random_mixed_unitary_channel, random_observable, random_unitary

RHO0 = DensityMatrix.from_diagonal([6 / 25, 9 / 25, 4 / 25, 6 / 25], partition=(2, 2))
QUBIT_OBS = Observable.computational(2)
COMP4 = Observable.computational(4)


def section6_protocol(phi=math.pi / 7):
    return TwoTimeProtocol.bipartite(RHO0, QUBIT_OBS, QUBIT_OBS, QUBIT_OBS, QUBIT_OBS, ms_gate(phi))


def generic_protocol(rng, dim=4):
    return TwoTimeProtocol(
        rho0=random_density(dim, rng),
        obs_in=random_observable(dim, rng),
        obs_fin=random_observable(dim, rng),
        channel=random_mixed_unitary_channel(dim, rng),
    )


class TestForwardJoint:
    def test_identity_channel_diagonal(self):
        proto = TwoTimeProtocol(RHO0, COMP4, COMP4, QuantumChannel.identity(4))
        table = forward_joint(proto)
        assert np.allclose(table.p_fwd, np.diag([6 / 25, 9 / 25, 4 / 25, 6 / 25]))
        assert np.allclose(table.p_in, [6 / 25, 9 / 25, 4 / 25, 6 / 25])

    def test_section6_amplitude_oracle(self):
        # independent path: p_fwd[k, m] = |<k|U|m>|^2 p_in[m] for rank-1
        # computational projectors and a single-unitary channel
        proto = section6_protocol()
        table = forward_joint(proto)
        u = proto.channel.kraus[0]
        p_in = np.diag(RHO0.data).real
        expected = np.abs(u) ** 2 * p_in[None, :]
        assert np.max(np.abs(table.p_fwd - expected)) <= 1e-14

    def test_tables_built_once_and_read_only(self):
        proto = section6_protocol()
        assert proto.forward is proto.forward and proto.backward is proto.backward
        assert proto.marginals is proto.marginals
        assert np.array_equal(proto.backward.p_fwd, proto.forward.p_fwd)
        with pytest.raises(ValueError, match="read-only"):
            proto.forward.p_fwd[0, 0] = 1.0

    def test_maximally_mixed_uniform_marginal(self, rng):
        proto = TwoTimeProtocol(
            DensityMatrix.maximally_mixed(4),
            random_observable(4, rng),
            random_observable(4, rng),
            random_mixed_unitary_channel(4, rng),
        )
        table = forward_joint(proto)
        assert np.max(np.abs(table.p_in - 0.25)) <= 1e-12
        assert np.max(np.abs(table.p_ref - 0.25)) <= 1e-10


class TestBackwardJoint:
    def test_identity_channel_reversible(self):
        proto = TwoTimeProtocol(RHO0, COMP4, COMP4, QuantumChannel.identity(4))
        table = backward_joint(proto)
        assert np.max(np.abs(table.p_bwd - table.p_fwd.T)) <= 1e-12

    def test_section6_conditional_equality(self):
        dev = conditional_equality_deviation(section6_protocol())
        assert dev <= 1e-10

    def test_random_channel_conditional_equality(self, rng):
        for _ in range(20):
            assert conditional_equality_deviation(generic_protocol(rng)) <= 1e-10

    def test_shortcut_matches_reversed_map(self, rng):
        proto = generic_protocol(rng)
        explicit = backward_joint(proto, via="reversed-map")
        shortcut = backward_joint(proto, via="conditional-equality")
        assert np.max(np.abs(explicit.p_bwd - shortcut.p_bwd)) <= 1e-10

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown"):
            backward_joint(section6_protocol(), via="nope")


class TestEntropySamples:
    def test_reversible_delta(self):
        proto = TwoTimeProtocol(RHO0, COMP4, COMP4, QuantumChannel.identity(4))
        dist = entropy_samples(forward_joint(proto))
        assert np.allclose(dist.support, [0.0])
        assert np.allclose(dist.probs, [1.0])

    def test_section6_support_bound(self):
        dist = entropy_samples(forward_joint(section6_protocol()))
        assert len(dist.support) <= 16

    def test_two_level_toy(self):
        # conditionals exactly flip the outcome; marginals stipulated
        table = JointOutcomeTable(
            p_fwd=np.array([[0.0, 0.5], [0.5, 0.0]]),
            p_in=np.array([0.5, 0.5]),
            p_ref=np.array([0.75, 0.25]),
        )
        dist = entropy_samples(table)
        assert np.allclose(dist.support, sorted([math.log(2 / 3), math.log(2)]))
        assert np.allclose(dist.probs, [0.5, 0.5])

    def test_inconsistent_table_raises(self):
        table = JointOutcomeTable(
            p_fwd=np.array([[1.0, 0.0], [0.0, 0.0]]),
            p_in=np.array([0.0, 1.0]),
            p_ref=np.array([1.0, 0.0]),
        )
        with pytest.raises(ValueError, match="inconsistent"):
            entropy_samples(table)

    def test_zero_reference_flagged(self):
        table = JointOutcomeTable(
            p_fwd=np.array([[0.5, 0.25], [0.0, 0.25]]),
            p_in=np.array([0.5, 0.5]),
            p_ref=np.array([0.75, 0.0]),
        )
        with pytest.warns(AbsoluteIrreversibilityWarning):
            dist = entropy_samples(table)
        assert dist.infinite_mass == pytest.approx(0.25)
        assert dist.probs.sum() == pytest.approx(0.75)

    def test_dropped_outcomes_counted(self):
        proto = TwoTimeProtocol(RHO0, COMP4, COMP4, QuantumChannel.identity(4))
        dist = entropy_samples(forward_joint(proto))
        assert dist.dropped_outcomes == 12  # off-diagonal pairs carry no mass


class TestMeanEntropy:
    def test_reversible_zero(self):
        proto = TwoTimeProtocol(RHO0, COMP4, COMP4, QuantumChannel.identity(4))
        assert abs(mean_entropy(proto)) <= 1e-12

    def test_three_way_agreement(self, rng):
        for proto in (section6_protocol(), generic_protocol(rng)):
            by_formula = mean_entropy(proto)
            dist = entropy_samples(forward_joint(proto))
            by_samples = dist.moment(1)
            rho_in = _dephase(proto.obs_in, proto.rho0.data)
            rho_tau = _dephase(proto.obs_fin, proto.channel.apply_matrix(rho_in))
            by_entropies = von_neumann_entropy(rho_tau) - von_neumann_entropy(rho_in)
            assert abs(by_formula - by_samples) <= 1e-10
            assert abs(by_formula - by_entropies) <= 1e-10

    def test_nonnegative(self, rng):
        for _ in range(20):
            assert mean_entropy(generic_protocol(rng)) >= -1e-12


class TestEntropyBound:
    def test_identity_case(self):
        proto = TwoTimeProtocol(RHO0, COMP4, COMP4, QuantumChannel.identity(4))
        result = entropy_bound_check(proto)
        assert abs(result.relative_entropy) <= 1e-12
        assert abs(result.mean_sigma) <= 1e-12
        assert result.passed

    def test_final_eigenbasis_case(self):
        channel = ms_gate(math.pi / 7)
        rho_in = _dephase(COMP4, RHO0.data)
        rho_fin = channel.apply_matrix(rho_in)
        obs_fin = Observable.from_matrix(rho_fin)
        proto = TwoTimeProtocol(RHO0, COMP4, obs_fin, channel)
        result = entropy_bound_check(proto)
        assert result.passed
        assert result.relative_entropy <= 1e-10
        expected = von_neumann_entropy(rho_fin) - von_neumann_entropy(rho_in)
        assert abs(result.mean_sigma - expected) <= 1e-10

    def test_random_protocols(self, rng):
        for _ in range(50):
            result = entropy_bound_check(generic_protocol(rng))
            assert result.passed
            assert -1e-10 <= result.relative_entropy <= result.mean_sigma + 1e-10


class TestCrooks:
    def test_reversible_zero(self):
        proto = TwoTimeProtocol(RHO0, COMP4, COMP4, QuantumChannel.identity(4))
        assert crooks_check(proto) <= 1e-14

    def test_section6_unitary(self):
        assert crooks_check(section6_protocol()) <= 1e-10

    def test_random_channels(self, rng):
        for _ in range(10):
            assert crooks_check(generic_protocol(rng)) <= 1e-10

    def test_rank_deficient_state_flags_unreachable_initial_outcomes(self):
        # the backward process lands on initial outcomes that rho0 never
        # occupies; that mass is split off as absolute irreversibility and
        # the relation holds on the rest
        rho0 = DensityMatrix.from_diagonal([0.5, 0.5, 0.0, 0.0], partition=(2, 2))
        proto = TwoTimeProtocol(rho0, COMP4, COMP4, ms_gate(0.4))
        with pytest.warns(AbsoluteIrreversibilityWarning):
            assert crooks_check(proto) <= 1e-15


class TestIntegralFluctuationTheorem:
    def test_unital_channels(self, rng):
        for _ in range(20):
            dist = entropy_samples(forward_joint(generic_protocol(rng)))
            assert ift_deviation(dist) <= 1e-10


class TestBipartite:
    def test_local_unitary_additivity(self, rng):
        u = tensor_product(random_unitary(2, rng), random_unitary(2, rng))
        proto = TwoTimeProtocol.bipartite(
            RHO0, QUBIT_OBS, QUBIT_OBS, QUBIT_OBS, QUBIT_OBS, QuantumChannel.unitary(u)
        )
        dist_a, dist_b, dist_ab, dist_conv = bipartite_distributions(proto)
        assert abs(dist_ab.moment(1) - dist_conv.moment(1)) <= 1e-12
        aligned = np.max(np.abs(dist_ab.support - dist_conv.support)) <= 1e-9
        assert aligned and np.max(np.abs(dist_ab.probs - dist_conv.probs)) <= 1e-10

    def test_section6_subadditivity(self):
        dist_a, dist_b, dist_ab, dist_conv = bipartite_distributions(section6_protocol())
        assert dist_ab.moment(1) <= dist_a.moment(1) + dist_b.moment(1) + 1e-10
        # correlated outcomes: strictly sub-additive here
        assert dist_a.moment(1) + dist_b.moment(1) - dist_ab.moment(1) > 1e-6

    def test_delta_convolution(self):
        da = EntropyDistribution(np.array([0.3]), np.array([1.0]))
        db = EntropyDistribution(np.array([-1.1]), np.array([1.0]))
        conv = convolve_distributions(da, db)
        assert np.allclose(conv.support, [-0.8])
        assert np.allclose(conv.probs, [1.0])

    def test_convolution_matches_direct_enumeration(self, rng):
        da = EntropyDistribution(np.array([-0.5, 0.7]), np.array([0.25, 0.75]))
        db = EntropyDistribution(np.array([-0.2, 0.1, 0.4]), np.array([0.1, 0.4, 0.5]))
        conv = convolve_distributions(da, db)
        assert conv.probs.sum() == pytest.approx(1.0)
        assert conv.moment(1) == pytest.approx(da.moment(1) + db.moment(1))

    def test_non_product_state_rejected(self):
        correlated = DensityMatrix.from_diagonal([0.5, 0.0, 0.0, 0.5], partition=(2, 2))
        with pytest.raises(ValueError, match="factorise"):
            TwoTimeProtocol.bipartite(
                correlated, QUBIT_OBS, QUBIT_OBS, QUBIT_OBS, QUBIT_OBS, ms_gate(0.3)
            )

    def test_global_table_matches_composite_protocol(self, rng):
        # explicit loop over pair outcomes (m, h) -> (k, l) on product states
        for proto in product_state_protocols(rng):
            _, _, dist_ab, _ = bipartite_distributions(proto)
            assert_same_distribution(dist_ab, product_state_oracle(proto)[2])

    def test_local_tables_match_product_state_formula(self, rng):
        for proto in product_state_protocols(rng):
            dist_a, dist_b, _, _ = bipartite_distributions(proto)
            oracle_a, oracle_b, _ = product_state_oracle(proto)
            assert_same_distribution(dist_a, oracle_a)
            assert_same_distribution(dist_b, oracle_b)


def product_state_protocols(rng):
    """Section-6 gate, random local unitaries and random mixed unitaries,
    each on a random product diagonal state."""
    channels = [ms_gate(math.pi / 7)]
    for _ in range(5):
        u = tensor_product(random_unitary(2, rng), random_unitary(2, rng))
        channels += [QuantumChannel.unitary(u), random_mixed_unitary_channel(4, rng)]
    for channel in channels:
        diag = np.kron(rng.dirichlet([1.0, 1.0]), rng.dirichlet([1.0, 1.0]))
        rho0 = DensityMatrix.from_diagonal(diag, partition=(2, 2))
        yield TwoTimeProtocol.bipartite(rho0, QUBIT_OBS, QUBIT_OBS, QUBIT_OBS, QUBIT_OBS, channel)


def product_state_oracle(proto):
    """dist_A, dist_B and dist_AB from product-state formulas (rank-1 local
    projectors): p_A[k, m] = Tr[(P_k x 1) Phi(P_m x rho_B)] p_A(m), the
    analogue for B, and the global joint of every pair (m, h) -> (k, l)."""
    oa_in, ob_in, oa_fin, ob_fin = proto.bipartite_obs
    marg = bipartite_marginals(proto)
    eye = np.eye(2)
    rho_a_in = _local_dephased(marg.p_a_in, oa_in)
    rho_b_in = _local_dephased(marg.p_b_in, ob_in)
    p_a = np.zeros((oa_fin.n_outcomes, oa_in.n_outcomes))
    for m, pm in enumerate(oa_in.projectors):
        evolved = proto.channel.apply_matrix(tensor_product(pm, rho_b_in))
        for k, pk in enumerate(oa_fin.projectors):
            p_a[k, m] = np.trace(tensor_product(pk, eye) @ evolved).real * marg.p_a_in[m]
    p_b = np.zeros((ob_fin.n_outcomes, ob_in.n_outcomes))
    for h, ph in enumerate(ob_in.projectors):
        evolved = proto.channel.apply_matrix(tensor_product(rho_a_in, ph))
        for l, pl in enumerate(ob_fin.projectors):
            p_b[l, h] = np.trace(tensor_product(eye, pl) @ evolved).real * marg.p_b_in[h]
    dist_a = entropy_samples(JointOutcomeTable(np.clip(p_a, 0, None), marg.p_a_in, marg.p_a_fin))
    dist_b = entropy_samples(JointOutcomeTable(np.clip(p_b, 0, None), marg.p_b_in, marg.p_b_fin))
    p_c_in = np.outer(marg.p_a_in, marg.p_b_in)
    values, masses = [], []
    for m, pm in enumerate(oa_in.projectors):
        for h, ph in enumerate(ob_in.projectors):
            if p_c_in[m, h] <= 1e-15:
                continue
            evolved = proto.channel.apply_matrix(tensor_product(pm, ph))
            for k, pk in enumerate(oa_fin.projectors):
                for l, pl in enumerate(ob_fin.projectors):
                    mass = np.trace(tensor_product(pk, pl) @ evolved).real * p_c_in[m, h]
                    if mass > 1e-15:
                        values.append(math.log(p_c_in[m, h]) - math.log(marg.p_c_fin[k, l]))
                        masses.append(mass)
    dist_ab = EntropyDistribution(*merge_support(np.array(values), np.array(masses)))
    return dist_a, dist_b, dist_ab


def assert_same_distribution(dist, oracle):
    assert dist.support.shape == oracle.support.shape
    assert np.max(np.abs(dist.support - oracle.support)) <= 1e-10
    assert np.max(np.abs(dist.probs - oracle.probs)) <= 1e-12


class TestWitness:
    def test_local_unitary_no_gaps(self, rng):
        u = tensor_product(random_unitary(2, rng), random_unitary(2, rng))
        proto = TwoTimeProtocol.bipartite(
            RHO0, QUBIT_OBS, QUBIT_OBS, QUBIT_OBS, QUBIT_OBS, QuantumChannel.unitary(u)
        )
        _, _, dist_ab, dist_conv = bipartite_distributions(proto)
        result = correlation_witness(dist_ab, dist_conv)
        assert np.max(result.moment_gaps) <= 1e-12
        assert not result.distinct

    def test_section6_gap_pattern(self):
        _, _, dist_ab, dist_conv = bipartite_distributions(section6_protocol())
        result = correlation_witness(dist_ab, dist_conv)
        assert result.distinct
        # low moments nearly coincide, the fourth clearly separates
        assert result.moment_gaps[3] > 1e-3
        assert result.moment_gaps[0] < 0.1 * result.moment_gaps[3]
        assert result.moment_gaps[1] < result.moment_gaps[3]


SECTION6_H = (math.pi / 7 / 50.0) * tensor_product(
    np.array([[0, 1], [1, 0]]), np.array([[0, 1], [1, 0]])
)


class TestSecondLaw:
    def test_identity_channel_zero_work(self):
        proto = TwoTimeProtocol(RHO0, COMP4, COMP4, QuantumChannel.identity(4))
        report = second_law_report(proto, SECTION6_H, SECTION6_H, beta=1.0)
        assert abs(report.mean_work) <= 1e-12
        assert abs(report.free_energy_delta) <= 1e-12

    def test_section6_gate(self):
        proto = section6_protocol()
        report = second_law_report(proto, SECTION6_H, SECTION6_H, beta=1.0)
        assert report.mean_work - report.free_energy_delta >= -1e-10
        assert report.rel_entropy_thermal >= -1e-12

    def test_random_channels(self, rng):
        for _ in range(15):
            proto = generic_protocol(rng)
            h = random_density(4, rng).data  # any Hermitian works as a Hamiltonian
            for beta in (0.1, 1.0, 10.0):
                report = second_law_report(proto, h, h, beta)
                assert report.beta * (report.mean_work - report.free_energy_delta) >= -1e-10

    def test_rejects_nonpositive_beta(self):
        proto = section6_protocol()
        with pytest.raises(ValueError, match="beta"):
            second_law_report(proto, SECTION6_H, SECTION6_H, beta=0.0)


class TestDistributionBasics:
    def test_normalisation_enforced(self):
        with pytest.raises(ValueError, match="sum"):
            EntropyDistribution(np.array([0.0, 1.0]), np.array([0.4, 0.4]))

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            EntropyDistribution(np.array([0.0, 1.0]), np.array([-0.1, 1.1]))

    def test_sorted_support(self):
        dist = EntropyDistribution(np.array([1.0, -1.0]), np.array([0.25, 0.75]))
        assert np.allclose(dist.support, [-1.0, 1.0])
        assert np.allclose(dist.probs, [0.75, 0.25])

    def test_merge_support(self):
        values = np.array([0.0, 1e-12, 1.0])
        masses = np.array([0.2, 0.3, 0.5])
        support, probs = merge_support(values, masses)
        assert len(support) == 2
        assert probs[0] == pytest.approx(0.5)

    def test_mgf_and_moments(self):
        dist = EntropyDistribution(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
        assert dist.moment(1) == pytest.approx(0.0)
        assert dist.moment(2) == pytest.approx(1.0)
        assert dist.mgf(1.0) == pytest.approx(math.cosh(1.0))
