import dataclasses
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entroprec import (
    AbsoluteIrreversibilityWarning,
    DensityMatrix,
    EntropyDistribution,
    JointOutcomeTable,
    Observable,
    QuantumChannel,
    TwoTimeProtocol,
    bipartite_distributions,
    convolve_distributions,
    correlation_witness,
    crooks_check,
    entropy_samples,
    ift_deviation,
    mean_entropy,
    ms_gate,
    second_law_report,
    tensor_product,
    conditional_equality_deviation,
    entropy_bound_check,
    von_neumann_entropy,
)
from entroprec.protocol import EntropyBoundResult, stack_moments
from entroprec import DegenerateSupportWarning, relative_entropy
from entroprec.channels import TimeReversal, _endpoint_channels, time_reversed
from entroprec.reconstruct import rmse_probs
from entroprec.protocol import (
    MASS_DROP_TOL,
    SUPPORT_MERGE_TOL,
    ProtocolStates,
    _dephase,
    _measured_joint,
    _checked_rows,
    _concatenated,
    _distributions_from_rows,
    _merged_rows,
    _outcome_probs,
    _shape_groups,
    merge_support,
    stack_tables,
)
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
        table = proto.forward
        assert np.allclose(table.p_fwd, np.diag([6 / 25, 9 / 25, 4 / 25, 6 / 25]))
        assert np.allclose(table.p_in, [6 / 25, 9 / 25, 4 / 25, 6 / 25])

    def test_section6_amplitude_oracle(self):
        # independent path: p_fwd[k, m] = |<k|U|m>|^2 p_in[m] for rank-1
        # computational projectors and a single-unitary channel
        proto = section6_protocol()
        table = proto.forward
        u = proto.channel.kraus[0]
        p_in = np.diag(RHO0.data).real
        expected = np.abs(u) ** 2 * p_in[None, :]
        assert np.max(np.abs(table.p_fwd - expected)) <= 1e-14

    def test_tables_built_once_and_read_only(self):
        proto = section6_protocol()
        assert proto.forward is proto.forward and proto.backward is proto.backward
        assert proto.tables is proto.tables and proto.states is proto.states
        assert proto.distributions is proto.distributions
        assert proto.tables["A-B"] is proto.forward
        # the backward table has the forward table's form, marginals swapped
        assert np.array_equal(proto.backward.p_in, proto.forward.p_ref)
        assert np.array_equal(proto.backward.p_ref, proto.forward.p_in)
        with pytest.raises(ValueError, match="read-only"):
            proto.forward.p_fwd[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            proto.backward.p_fwd[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            proto.tables["A"].p_ref[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            proto.distributions["A+B"].probs[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            proto.states.rho_tau[0, 0] = 1.0
        with pytest.raises(TypeError):
            proto.tables["A"] = proto.forward
        with pytest.raises(TypeError):
            proto.distributions["A+B"] = proto.distributions["A-B"]

    def test_labels_of_tables_and_distributions(self):
        proto = section6_protocol()
        assert list(proto.tables) == ["A", "B", "A-B"]
        assert list(proto.distributions) == ["A", "B", "A-B", "A+B"]
        assert all(
            a is b for a, b in zip(bipartite_distributions(proto), proto.distributions.values())
        )
        expected = {label: entropy_samples(t, label) for label, t in proto.tables.items()}
        expected["A+B"] = convolve_distributions(expected["A"], expected["B"])
        for label, dist in proto.distributions.items():
            assert dist.label == label
            assert np.array_equal(dist.support, expected[label].support)
            assert np.array_equal(dist.probs, expected[label].probs)

    def test_composite_protocol_has_only_the_global_label(self):
        proto = TwoTimeProtocol(RHO0, COMP4, COMP4, ms_gate(0.3))
        assert list(proto.tables) == ["A-B"] and list(proto.distributions) == ["A-B"]
        with pytest.raises(ValueError, match="bipartite"):
            bipartite_distributions(proto)

    def test_states_follow_their_definitions(self, rng):
        proto = generic_protocol(rng)
        rho_in, rho_fin, rho_tau = proto.states
        evolved = proto.channel.apply_matrix(_dephase(proto.obs_in.projectors, proto.rho0.data))
        assert np.array_equal(rho_in, _dephase(proto.obs_in.projectors, proto.rho0.data))
        assert np.max(np.abs(rho_fin - evolved)) <= 1e-15
        assert np.array_equal(rho_fin, rho_fin.conj().T)
        assert np.array_equal(rho_tau, _dephase(proto.obs_fin.projectors, rho_fin))

    def test_maximally_mixed_uniform_marginal(self, rng):
        proto = TwoTimeProtocol(
            DensityMatrix.maximally_mixed(4),
            random_observable(4, rng),
            random_observable(4, rng),
            random_mixed_unitary_channel(4, rng),
        )
        table = proto.forward
        assert np.max(np.abs(table.p_in - 0.25)) <= 1e-12
        assert np.max(np.abs(table.p_ref - 0.25)) <= 1e-10

    @pytest.mark.parametrize(
        "p_fwd, message",
        [
            ([[0.6, -0.1], [0.3, 0.2]], "nonnegative"),
            ([[0.5, 0.1], [0.3, 0.2]], "sums to"),
            # the marginals must index the table's axes, which sampling reads them by
            ([[0.5, 0.1, 0.1], [0.1, 0.1, 0.1]], "n_in p_in"),
            ([0.5, 0.5], "n_in p_in"),
        ],
        ids=["negative", "unnormalised", "marginal-mismatch", "one-dimensional"],
    )
    def test_table_validated(self, p_fwd, message):
        with pytest.raises(ValueError, match=message):
            JointOutcomeTable(np.array(p_fwd), np.array([0.5, 0.5]), np.array([0.5, 0.5]))


class TestBackwardJoint:
    def test_identity_channel_reversible(self):
        proto = TwoTimeProtocol(RHO0, COMP4, COMP4, QuantumChannel.identity(4))
        table = proto.backward
        assert np.max(np.abs(table.p_fwd - proto.forward.p_fwd.T)) <= 1e-12
        assert np.array_equal(table.p_in, proto.forward.p_ref)
        assert np.array_equal(table.p_ref, proto.forward.p_in)

    def test_section6_conditional_equality(self):
        dev = conditional_equality_deviation(section6_protocol())
        assert dev <= 1e-10

    def test_random_channel_conditional_equality(self, rng):
        for _ in range(20):
            assert conditional_equality_deviation(generic_protocol(rng)) <= 1e-10

    def test_shortcut_matches_reversed_map(self, rng):
        # unital shortcut: the backward p_fwd[m, k] = p(fin k | in m) p_ref[k],
        # forward data only
        proto = generic_protocol(rng)
        fwd = proto.forward
        shortcut = (fwd.p_fwd / fwd.p_in[None, :] * fwd.p_ref[:, None]).T
        assert np.max(np.abs(proto.backward.p_fwd - shortcut)) <= 1e-10

    def test_backward_samples_read_the_swapped_marginals(self, rng):
        # sigma_bwd = ln p_ref[k] - ln p_in[m] on each backward pair (k -> m),
        # so the backward support mirrors the forward one
        proto = generic_protocol(rng)
        fwd, bwd = proto.forward, entropy_samples(proto.backward)
        expected = np.sort((np.log(fwd.p_ref)[None, :] - np.log(fwd.p_in)[:, None]).ravel())
        assert np.max(np.abs(bwd.support - expected)) <= 1e-10
        assert np.max(np.abs(-bwd.support[::-1] - proto.distributions["A-B"].support)) <= 1e-10


class TestEntropySamples:
    def test_reversible_delta(self):
        proto = TwoTimeProtocol(RHO0, COMP4, COMP4, QuantumChannel.identity(4))
        dist = entropy_samples(proto.forward)
        assert np.allclose(dist.support, [0.0])
        assert np.allclose(dist.probs, [1.0])

    def test_section6_support_bound(self):
        dist = entropy_samples(section6_protocol().forward)
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
        dist = entropy_samples(proto.forward)
        assert dist.dropped_outcomes == 12  # off-diagonal pairs carry no mass


class TestMeanEntropy:
    def test_reversible_zero(self):
        proto = TwoTimeProtocol(RHO0, COMP4, COMP4, QuantumChannel.identity(4))
        assert abs(mean_entropy(proto)) <= 1e-12

    def test_three_way_agreement(self, rng):
        for proto in (section6_protocol(), generic_protocol(rng)):
            by_formula = mean_entropy(proto)
            dist = entropy_samples(proto.forward)
            by_samples = dist.moment(1)
            rho_in = _dephase(proto.obs_in.projectors, proto.rho0.data)
            rho_tau = _dephase(proto.obs_fin.projectors, proto.channel.apply_matrix(rho_in))
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
        rho_in = _dephase(COMP4.projectors, RHO0.data)
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


    def test_cross_term_computed_once(self, rng, monkeypatch):
        # both sides come out as relative_entropy and mean_entropy give them
        from entroprec import protocol

        calls = []
        original = protocol.trace_rho_log_sigma
        monkeypatch.setattr(
            protocol, "trace_rho_log_sigma", lambda *a: calls.append(1) or original(*a)
        )
        for _ in range(10):
            proto = generic_protocol(rng)
            calls.clear()
            result = entropy_bound_check(proto)
            assert len(calls) == 1
            _, rho_fin, rho_tau = proto.states
            assert result.relative_entropy == relative_entropy(rho_fin, rho_tau)
            assert result.mean_sigma == mean_entropy(proto)

    def test_support_violation_gives_inf_with_a_warning(self):
        # rho_fin outside the support of rho_tau; no dephasing produces this,
        # so the states are handed over directly
        rho_fin = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        rho_tau = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
        fake = SimpleNamespace(states=ProtocolStates(rho_fin, rho_fin, rho_tau), obs_fin=COMP4)
        with pytest.warns(DegenerateSupportWarning, match="support violation"):
            result = entropy_bound_check(fake)
        assert result.relative_entropy == math.inf == result.mean_sigma
        assert result.passed is False


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

    @staticmethod
    def deviation(fwd_support, fwd_probs, p_in, p_ref):
        """crooks_check of a protocol-like object with this forward A-B
        distribution and a one-row backward table: sigma_bwd = ln p_in[m] -
        ln p_ref[0], with mass p_in[m]."""
        fwd = EntropyDistribution(np.array(fwd_support), np.array(fwd_probs))
        backward = JointOutcomeTable(np.array([p_in]), np.array(p_in), np.array(p_ref))
        return crooks_check(SimpleNamespace(distributions={"A-B": fwd}, backward=backward))

    def test_points_within_the_merge_tolerance_are_one_g(self):
        # sigma_bwd = -ln 2 with mass 1 and a forward point 5e-11 above ln 2:
        # one G, whose masses cancel down to |exp(-g) - 1| (apart, the
        # deviation would be the whole backward mass, 1)
        g = math.log(2.0) + 5e-11
        assert self.deviation([g], [1.0], [1.0], [2.0]) == abs(math.exp(-g) - 1.0)

    def test_unmatched_points_on_either_side(self):
        # backward values ln 0.25 and ln 0.75 (masses 0.25 and 0.75); the
        # forward point -ln 0.25 matches the first, 5 and -3 match nothing.
        # In the first call the backward-only G = -ln 0.75 decides (0.75
        # against 0.2 at ln 4 and exp(-5) 0.8 at 5), in the second the
        # forward-only G = -3
        p_in = [0.25, 0.75]
        assert self.deviation([-math.log(0.25), 5.0], [0.2, 0.8], p_in, [1.0]) == 0.75
        deviation = self.deviation([-3.0, -math.log(0.25)], [0.2, 0.8], p_in, [1.0])
        assert deviation == math.exp(3.0) * 0.2

    def test_all_backward_mass_infinite(self):
        # every backward pair lands on a reference outcome of probability 0:
        # no finite sigma_bwd, so each G weighs exp(-G) P(G)
        with pytest.warns(AbsoluteIrreversibilityWarning):
            deviation = self.deviation([0.5, 1.0], [0.4, 0.6], [1.0], [0.0])
        assert deviation == math.exp(-0.5) * 0.4


class TestIntegralFluctuationTheorem:
    def test_unital_channels(self, rng):
        for _ in range(20):
            dist = entropy_samples(generic_protocol(rng).forward)
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

    def test_marginals_match_kronecker_traces(self, rng):
        # random product states, random local bases (not computational) and
        # random channels against Tr[(P_k x 1) rho] and friends
        for _ in range(20):
            rho0 = DensityMatrix(
                np.kron(random_density(2, rng).data, random_density(2, rng).data), (2, 2)
            )
            local = [random_observable(2, rng) for _ in range(4)]
            proto = TwoTimeProtocol.bipartite(rho0, *local, random_mixed_unitary_channel(4, rng))
            oracle = kronecker_trace_tables(proto)
            assert list(proto.tables) == list(oracle)
            for label, table in proto.tables.items():
                for name in ("p_fwd", "p_in", "p_ref"):
                    diff = getattr(table, name) - getattr(oracle[label], name)
                    assert np.max(np.abs(diff)) <= 1e-14

    def test_inconsistent_local_observables_rejected(self, rng):
        other = random_observable(2, rng)
        mismatched = [
            (QUBIT_OBS, QUBIT_OBS, QUBIT_OBS, other),  # obs_fin is not comp x other
            (other, QUBIT_OBS, QUBIT_OBS, QUBIT_OBS),  # obs_in is not other x comp
        ]
        for local in mismatched:
            with pytest.raises(ValueError, match="tensor products"):
                TwoTimeProtocol(RHO0, COMP4, COMP4, ms_gate(0.3), bipartite_obs=local)
        # same projectors, B x A order instead of A x B
        swapped = other.tensor(QUBIT_OBS)
        with pytest.raises(ValueError, match="tensor products"):
            TwoTimeProtocol(
                RHO0, swapped, COMP4, ms_gate(0.3), (QUBIT_OBS, other, QUBIT_OBS, QUBIT_OBS)
            )

    def test_unequal_local_dimensions(self, rng):
        qutrit = random_observable(3, rng)
        rho0 = DensityMatrix.from_diagonal(np.kron([0.3, 0.7], [0.2, 0.5, 0.3]), partition=(2, 3))
        proto = TwoTimeProtocol.bipartite(
            rho0, QUBIT_OBS, Observable.computational(3), QUBIT_OBS, qutrit,
            QuantumChannel.identity(6),
        )
        assert proto.obs_fin.n_outcomes == 6
        with pytest.raises(ValueError, match="tensor products"):
            TwoTimeProtocol(
                rho0, proto.obs_in, proto.obs_in, QuantumChannel.identity(6), proto.bipartite_obs
            )

    @pytest.mark.parametrize(
        "args, message",
        [
            ((RHO0, QUBIT_OBS, COMP4, ms_gate(0.3)), "dimensions must agree"),
            ((RHO0, COMP4, COMP4, QuantumChannel.identity(2)), "dimensions must agree"),
            (
                (DensityMatrix(RHO0.data), COMP4, COMP4, ms_gate(0.3), (QUBIT_OBS,) * 4),
                "require a partitioned rho0",
            ),
            (
                (RHO0, COMP4, COMP4, ms_gate(0.3), (COMP4, QUBIT_OBS, QUBIT_OBS, QUBIT_OBS)),
                "must match the partition",
            ),
        ],
        ids=["observable-dim", "channel-dim", "no-partition", "local-dim"],
    )
    def test_mismatched_parts_refused(self, args, message):
        with pytest.raises(ValueError, match=message):
            TwoTimeProtocol(*args)

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


def kronecker_trace_tables(proto):
    """The A, B and A-B forward tables as traces against Kronecker products of
    the local projectors with identities: the local tables are
    p_A[k, m] = sum_h Tr[(P_k x 1) Phi(Q_mh rho0 Q_mh)] with Q_mh = P_m x P_h,
    the reference marginals are read off rho_fin."""
    oa_in, ob_in, oa_fin, ob_fin = proto.bipartite_obs
    rho0 = proto.rho0.data
    rho_fin = proto.channel.apply_matrix(_dephase(proto.obs_in.projectors, rho0))
    eye = np.eye(2)
    trace = lambda op, rho: np.trace(op @ rho).real
    read = {
        "A": [tensor_product(p, eye) for p in oa_fin.projectors],
        "B": [tensor_product(eye, p) for p in ob_fin.projectors],
        "A-B": [tensor_product(p, q) for p in oa_fin.projectors for q in ob_fin.projectors],
    }
    prepare = {
        "A": [tensor_product(p, eye) for p in oa_in.projectors],
        "B": [tensor_product(eye, p) for p in ob_in.projectors],
        "A-B": [tensor_product(p, q) for p in oa_in.projectors for q in ob_in.projectors],
    }
    evolved = [  # (m, h) -> Phi(Q_mh rho0 Q_mh), indexed m * n_b + h
        proto.channel.apply_matrix(q @ rho0 @ q) for q in prepare["A-B"]
    ]
    tables = {}
    for label in ("A", "B", "A-B"):
        p_fwd = np.array([[trace(p, rho) for rho in evolved] for p in read[label]])
        if label == "A":
            p_fwd = p_fwd.reshape(-1, oa_in.n_outcomes, ob_in.n_outcomes).sum(axis=2)
        elif label == "B":
            p_fwd = p_fwd.reshape(-1, oa_in.n_outcomes, ob_in.n_outcomes).sum(axis=1)
        p_in = np.array([trace(p, rho0) for p in prepare[label]])
        p_ref = np.array([trace(p, rho_fin) for p in read[label]])
        tables[label] = JointOutcomeTable(np.clip(p_fwd, 0.0, None), p_in, p_ref)
    return tables


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
    tables = kronecker_trace_tables(proto)
    p_a_in, p_b_in = tables["A"].p_in, tables["B"].p_in
    p_c_fin = tables["A-B"].p_ref.reshape(oa_fin.n_outcomes, ob_fin.n_outcomes)
    eye = np.eye(2)
    rho_a_in = sum(p * proj for p, proj in zip(p_a_in, oa_in.projectors))
    rho_b_in = sum(p * proj for p, proj in zip(p_b_in, ob_in.projectors))
    p_a = np.zeros((oa_fin.n_outcomes, oa_in.n_outcomes))
    for m, pm in enumerate(oa_in.projectors):
        evolved = proto.channel.apply_matrix(tensor_product(pm, rho_b_in))
        for k, pk in enumerate(oa_fin.projectors):
            p_a[k, m] = np.trace(tensor_product(pk, eye) @ evolved).real * p_a_in[m]
    p_b = np.zeros((ob_fin.n_outcomes, ob_in.n_outcomes))
    for h, ph in enumerate(ob_in.projectors):
        evolved = proto.channel.apply_matrix(tensor_product(rho_a_in, ph))
        for l, pl in enumerate(ob_fin.projectors):
            p_b[l, h] = np.trace(tensor_product(eye, pl) @ evolved).real * p_b_in[h]
    dist_a = entropy_samples(JointOutcomeTable(np.clip(p_a, 0, None), p_a_in, tables["A"].p_ref))
    dist_b = entropy_samples(JointOutcomeTable(np.clip(p_b, 0, None), p_b_in, tables["B"].p_ref))
    p_c_in = np.outer(p_a_in, p_b_in)
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
                        values.append(math.log(p_c_in[m, h]) - math.log(p_c_fin[k, l]))
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

    @pytest.mark.parametrize("beta", [math.nan, math.inf])
    def test_rejects_non_finite_beta(self, beta):
        with pytest.raises(ValueError, match="^beta must be positive and finite$"):
            second_law_report(section6_protocol(), SECTION6_H, SECTION6_H, beta)

    @pytest.mark.parametrize("which", ["h0", "h_tau"])
    @pytest.mark.parametrize(
        "bad",
        [
            # eigh reads one triangle, so this one used to pass unnoticed
            np.diag([0.0, 1.0, 1.0, 2.0]) + 5.0 * np.eye(4, k=3),
            np.diag([0.0, 1.0, 1.0, 2.0]) + 1e-11j * np.eye(4),
            np.diag([0.0, 1.0, np.nan, 2.0]),
            np.diag([0.0, np.inf, 1.0, 2.0]),
            np.eye(2),
            np.eye(4)[0],
        ],
        ids=["upper-triangle", "imaginary-diagonal", "nan", "inf", "2x2", "1-D"],
    )
    def test_rejects_bad_hamiltonians(self, which, bad):
        # refused by name before any arithmetic: no eigh, no RuntimeWarning
        hamiltonians = {"h0": SECTION6_H, "h_tau": SECTION6_H, which: bad}
        with pytest.raises(ValueError, match=f"^{which} must be a finite Hermitian 4x4 matrix$"):
            second_law_report(section6_protocol(), beta=1.0, **hamiltonians)

    def test_hermitian_within_tolerance_is_accepted(self):
        h = SECTION6_H + 1e-13 * np.eye(4, k=1)
        report = second_law_report(section6_protocol(), h, h, beta=1.0)
        assert report.mean_work - report.free_energy_delta >= -1e-10


class TestDistributionBasics:
    def test_normalisation_enforced(self):
        with pytest.raises(ValueError, match="sum"):
            EntropyDistribution(np.array([0.0, 1.0]), np.array([0.4, 0.4]))

    @pytest.mark.parametrize(
        "support, probs",
        [([0.0, 1.0], [np.nan, np.nan]), ([0.0, np.nan], [0.5, 0.5]), ([0.0, np.inf], [0.5, 0.5])],
        ids=["nan-probs", "nan-support", "inf-support"],
    )
    def test_non_finite_values_rejected(self, support, probs):
        with pytest.raises(ValueError, match="finite"):
            EntropyDistribution(np.array(support), np.array(probs))

    @pytest.mark.parametrize(
        "support, probs",
        [([0.0, 1.0], [1.0]), ([[0.0, 1.0]], [[0.5, 0.5]])],
        ids=["unequal-lengths", "two-dimensional"],
    )
    def test_shapes_checked(self, support, probs):
        with pytest.raises(ValueError, match="matching 1-D arrays"):
            EntropyDistribution(np.array(support), np.array(probs))

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            EntropyDistribution(np.array([0.0, 1.0]), np.array([-0.1, 1.1]))

    def test_sorted_support(self):
        dist = EntropyDistribution(np.array([1.0, -1.0]), np.array([0.25, 0.75]))
        assert np.allclose(dist.support, [-1.0, 1.0])
        assert np.allclose(dist.probs, [0.75, 0.25])

    def test_sorted_input_is_copied(self):
        # an ascending support skips the sort, but the caller's arrays are
        # still copied, not frozen, and equal values are still refused
        support, probs = np.array([-1.0, 0.5, 1.0]), np.array([0.25, 0.25, 0.5])
        dist = EntropyDistribution(support, probs)
        assert dist.support is not support and dist.probs is not probs
        assert support.flags.writeable and probs.flags.writeable
        assert not (dist.support.flags.writeable or dist.probs.flags.writeable)
        assert np.array_equal(dist.support, support) and np.array_equal(dist.probs, probs)
        with pytest.raises(ValueError, match="distinct"):
            EntropyDistribution(np.array([0.0, 0.0, 1.0]), probs)
        with pytest.raises(ValueError, match="distinct"):
            EntropyDistribution(np.array([0.0, 5e-11, 1.0]), probs)

    def test_merge_support(self):
        values = np.array([0.0, 1e-12, 1.0])
        masses = np.array([0.2, 0.3, 0.5])
        support, probs = merge_support(values, masses)
        assert len(support) == 2
        assert probs[0] == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "values, masses",
        [
            ([np.nan, 1.0], [0.5, 0.5]),
            ([1.0, 2.0], [0.5, -np.inf]),
            ([1.0], [0.5, 0.5]),
            ([[1.0, 2.0]], [[0.5, 0.5]]),
            (1.0, 0.5),
        ],
        ids=["nan-value", "infinite-mass", "lengths", "2-D", "scalar"],
    )
    def test_merge_support_refuses_malformed_input(self, values, masses):
        message = "^values and masses must be finite 1-D arrays of equal length$"
        with pytest.raises(ValueError, match=message):
            merge_support(values, masses)

    def test_equal_values_sum_in_input_order(self, rng):
        # exact ties among three values, masses over eight decades: each
        # cluster's mass depends on the order of its sum, which must be the
        # input's, row by row, with all rows merged at once
        values = rng.choice([0.1, 0.5, 0.9], size=(50, 64))
        masses = 10.0 ** rng.uniform(-8, 0, size=(50, 64))
        row = np.repeat(np.arange(50), 64)
        _, merged, merged_row = _merged_rows(values.ravel(), masses.ravel(), row)
        for i in range(50):
            expected = [running_sum(masses[i][values[i] == v]) for v in np.unique(values[i])]
            assert same_bits(merged[merged_row == i], np.array(expected))

    @pytest.mark.parametrize(
        "support, probs, message",
        [
            ([0.0, np.nan], [0.5, 0.5], "support and probs must be finite"),
            ([1.0, 0.0, 1.0], [0.2, 0.3, 0.5], "support entries must stay distinct after merging"),
            ([0.0, 1.0], [-0.1, 1.1], "negative probability -1.000e-01"),
            ([2.0, 1.0, 0.0], [0.4, 0.4, 0.4], "probabilities sum to 1.2000000000000002"),
        ],
        ids=["finite", "distinct", "negative", "sum"],
    )
    def test_rows_checked_at_once_name_the_first_failing_row(self, support, probs, message):
        # the constructor is the one-row case; among many rows the first
        # failing one is named, with the same message
        with pytest.raises(ValueError) as alone:
            EntropyDistribution(np.array(support), np.array(probs))
        assert str(alone.value) == message
        good = ([1.0, -1.0], [0.25, 0.75])
        rows = [good, (support, probs), good, (support, probs)]
        values, row = _concatenated([np.array(s, dtype=float) for s, _ in rows])
        masses, _ = _concatenated([np.array(p, dtype=float) for _, p in rows])
        with pytest.raises(ValueError) as many:
            _checked_rows(values, masses, np.bincount(row), [0.0] * 4)
        assert str(many.value) == f"row 1: {message}"

    def test_rows_build_as_the_constructor_builds(self, rng):
        # unsorted, sorted, empty and partly infinite rows: each distribution
        # has the fields and bits of its constructor call, and no row's
        # arrays can be written
        rows = [(rng.permutation(5) - 2.0, rng.dirichlet(np.ones(5)), 0.0),
                (np.array([]), np.array([]), 1.0),
                (np.array([-0.5, 0.5, 3.0]), np.array([0.1, 0.2, 0.3]), 0.4),
                (np.array([2.0, -2.0]), np.array([0.5, 0.5]), 0.0)]
        values, row = _concatenated([s for s, _, _ in rows])
        masses, _ = _concatenated([p for _, p, _ in rows])
        labels, dropped, infinite = ["a", "b", "c", "d"], [0, 3, 1, 2], [m for *_, m in rows]
        built = _distributions_from_rows(values, masses, row, labels, dropped, infinite)
        for dist, (s, p, m), label, n in zip(built, rows, labels, dropped):
            alone = EntropyDistribution(s, p, label, n, m)
            assert same_result(dist, alone)
            assert not (dist.support.flags.writeable or dist.probs.flags.writeable)
            assert same_bits(dist.moments(3), alone.moments(3))
        assert _distributions_from_rows(np.empty(0), np.empty(0), row[:0], [], [], []) == []

    def test_mgf_and_moments(self):
        dist = EntropyDistribution(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
        assert dist.moment(1) == pytest.approx(0.0)
        assert dist.moment(2) == pytest.approx(1.0)
        assert dist.mgf(1.0) == pytest.approx(math.cosh(1.0))


# Loop references: the measurement layer one outcome (pair) at a time. The
# stacked implementations must reproduce them bit for bit, so that a record
# does not depend on which of the two computed it.


def loop_dephase(obs, rho):
    out = np.zeros_like(rho, dtype=complex)
    for p in obs.projectors:
        out += p @ rho @ p
    return out


def loop_outcome_probs(projectors, rho):
    return np.array([np.trace(p @ rho).real for p in projectors])


def loop_measured_joint(channel, rho, prepare, read):
    table = np.zeros((len(read), len(prepare)))
    for m, p_m in enumerate(prepare):
        table[:, m] = loop_outcome_probs(read, channel.apply_matrix(p_m @ rho @ p_m))
    return np.clip(table, 0.0, None)


def loop_apply_matrix(channel, m):
    # the operator-axis sum starts from its first term, like this loop
    terms = [e @ m @ e.conj().T for e in channel.kraus]
    out = terms[0]
    for term in terms[1:]:
        out = out + term
    return out


def loop_reversed_kraus(channel, theta):
    """Theta E^dag Theta^dag, one operator at a time (E^T without a basis)."""
    if theta.basis is None:
        return np.array([e.T for e in channel.kraus])
    u = theta.basis
    return np.array([u @ np.conj(u.conj().T @ e.conj().T @ u) @ u.conj().T for e in channel.kraus])


def loop_endpoint_kraus(endpoint, d):
    """The Choi step of ``_endpoint_channels``, one eigenvector at a time."""
    choi = endpoint.reshape(d, d, d, d).transpose(2, 0, 3, 1).reshape(d * d, d * d)
    vals, vecs = np.linalg.eigh((choi + choi.conj().T) / 2.0)
    vals = np.clip(vals, 0.0, None)
    vals *= d / vals.sum()
    kraus = []
    for n in range(len(vals) - 1, -1, -1):
        if vals[n] <= 1e-12:
            break
        kraus.append(np.sqrt(vals[n]) * vecs[:, n].reshape(d, d).T)
    return np.array(kraus)


def running_sum(terms) -> float:
    """The terms added one by one, in order, from 0.0: the rule of every sum
    over a distribution's support or a cluster of it."""
    total = 0.0
    for term in np.asarray(terms, dtype=float).tolist():
        total += term
    return total


def exp_terms(dist) -> np.ndarray:
    """p_i exp(-sigma_i) with ``math.exp``, whose bits do not follow numpy's
    SIMD dispatch."""
    return dist.probs * np.array([math.exp(-x) for x in dist.support.tolist()])


def loop_merge_support(values, masses):
    order = np.argsort(values, kind="stable")
    values = np.asarray(values, float)[order]
    masses = np.asarray(masses, float)[order]
    out_vals, out_mass = [], []
    start = 0
    for stop in range(1, len(values) + 1):
        if stop == len(values) or values[stop] - values[stop - 1] > SUPPORT_MERGE_TOL:
            chunk = slice(start, stop)
            m = running_sum(masses[chunk])
            if m > 0:
                out_vals.append(running_sum(values[chunk] * masses[chunk]) / m)
            else:
                out_vals.append(running_sum(values[chunk]) / (stop - start))
            out_mass.append(m)
            start = stop
    return np.array(out_vals), np.array(out_mass)


def loop_entropy_samples(table, label="sigma"):
    values, masses = [], []
    dropped, infinite_mass = 0, 0.0
    n_fin, n_in = table.p_fwd.shape
    for k in range(n_fin):
        for m in range(n_in):
            mass = table.p_fwd[k, m]
            if mass <= MASS_DROP_TOL:
                dropped += 1
                continue
            if table.p_in[m] <= MASS_DROP_TOL:
                raise ValueError(
                    f"inconsistent table: forward mass {mass:.3e} from zero-probability "
                    f"initial outcome {m}"
                )
            if table.p_ref[k] <= MASS_DROP_TOL:
                infinite_mass += mass
                continue
            values.append(math.log(table.p_in[m]) - math.log(table.p_ref[k]))
            masses.append(mass)
    support, probs = loop_merge_support(np.array(values), np.array(masses))
    return EntropyDistribution(support, probs, label, dropped, infinite_mass)


def loop_crooks_check(proto):
    """The deviation as crooks_check defines it: each forward mass weighted
    by exp(-sigma) at its own sigma, each negated backward value carrying
    -P_bwd, values within SUPPORT_MERGE_TOL merged by the loop merge, and the
    largest |merged mass|."""
    fwd = loop_entropy_samples(proto.forward)
    bwd = loop_entropy_samples(proto.backward)
    weighted = [math.exp(-g) * p for g, p in zip(fwd.support.tolist(), fwd.probs.tolist())]
    values = np.concatenate((fwd.support, -bwd.support))
    _, merged = loop_merge_support(values, np.concatenate((weighted, -bwd.probs)))
    return float(np.max(np.abs(merged), initial=0.0))


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    if a.dtype in (np.longdouble, np.clongdouble):
        # values and the signs of zeros: the bytes of an 80-bit value include padding
        return all(
            np.array_equal(x, y) and np.array_equal(np.signbit(x), np.signbit(y))
            for x, y in ((a.real, b.real), (a.imag, b.imag))
        )
    return a.tobytes() == b.tobytes()


def degenerate_observable(dim, rng):
    """A random observable whose first eigenvalue has a two-dimensional eigenspace."""
    u = random_unitary(dim, rng)
    spectrum = np.concatenate(([0.0, 0.0], np.arange(1.0, dim - 1)))
    return Observable.from_matrix((u * spectrum) @ u.conj().T)


class TestStackedMatchesLoops:
    @pytest.mark.parametrize("dim", [2, 3, 4, 6, 9])
    def test_dephase_outcome_probs_and_joint(self, rng, dim):
        for observable in (random_observable, degenerate_observable):
            for _ in range(5):
                rho = random_density(dim, rng).data
                obs_in, obs_fin = observable(dim, rng), observable(dim, rng)
                channel = random_mixed_unitary_channel(dim, rng)
                # an axis-0 sum may turn +0 into -0, hence array_equal
                assert np.array_equal(_dephase(obs_in.projectors, rho), loop_dephase(obs_in, rho))
                for state in (rho, rho.astype(np.clongdouble)):
                    stacked = _outcome_probs(obs_fin.projectors, state)
                    loop = loop_outcome_probs(obs_fin.projectors, state)
                    assert stacked.dtype == loop.dtype and np.array_equal(stacked, loop)
                stacked = _measured_joint(channel.kraus, rho, obs_in.projectors, obs_fin.projectors)
                loop = loop_measured_joint(channel, rho, obs_in.projectors, obs_fin.projectors)
                assert np.array_equal(stacked, loop)

    def test_protocol_tables(self, rng):
        # the backward table time-reverses the projector stacks, here in a
        # random basis as well as the computational one
        for basis in (None, random_unitary(4, rng)):
            theta = TimeReversal(basis)
            for _ in range(5):
                proto = generic_protocol(rng)
                loop = loop_measured_joint(
                    proto.channel, proto.rho0.data, proto.obs_in.projectors, proto.obs_fin.projectors
                )
                assert np.array_equal(proto.forward.p_fwd, loop)
                reversed_channel = time_reversed(proto.channel, theta)
                stacked = _measured_joint(
                    reversed_channel.kraus,
                    theta.apply_to_state(proto.states.rho_tau),
                    theta.apply_to_state(proto.obs_fin.projectors),
                    theta.apply_to_state(proto.obs_in.projectors),
                )
                loop = loop_measured_joint(
                    reversed_channel,
                    theta.apply_to_state(proto.states.rho_tau),
                    [theta.apply_to_state(p) for p in proto.obs_fin.projectors],
                    [theta.apply_to_state(p) for p in proto.obs_in.projectors],
                )
                assert np.array_equal(stacked, loop)
                if basis is None:
                    assert np.array_equal(proto.backward.p_fwd, loop)

    @pytest.mark.parametrize("dtype", [complex, np.clongdouble])
    def test_apply_matrix(self, rng, dtype):
        for dim in (2, 3, 4):
            for _ in range(5):
                channel = random_mixed_unitary_channel(dim, rng)
                states = np.stack([random_density(dim, rng).data for _ in range(3)]).astype(dtype)
                for m in (states[0], states):
                    assert same_bits(channel.apply_matrix(m), loop_apply_matrix(channel, m))

    def test_stacked_tables_match_one_protocol_builds(self, rng):
        # dimensions 2 to 4 and one to four Kraus operators form several
        # shape groups; each stacked value has the bits of its own build
        protos = [generic_protocol(rng, dim) for dim in (2, 3, 4) for _ in range(6)]
        protos += [section6_protocol(phi) for phi in (0.0, 0.3, 2.0)]
        assert len(_shape_groups(protos)) > 3
        twins = [
            TwoTimeProtocol(p.rho0, p.obs_in, p.obs_fin, p.channel, p.bipartite_obs) for p in protos
        ]
        stack_tables(twins)
        for proto, twin in zip(protos, twins):
            built = vars(twin)  # what stack_tables cached
            for stacked, alone in zip(built["states"], proto.states):
                assert same_bits(stacked, alone)
            tables = {"backward": (built["backward"], proto.backward)}
            tables.update((label, (built["tables"][label], t)) for label, t in proto.tables.items())
            assert list(built["tables"]) == list(proto.tables)
            for stacked, alone in tables.values():
                for field in ("p_fwd", "p_in", "p_ref"):
                    assert same_bits(getattr(stacked, field), getattr(alone, field))

    def test_protocol_on_another_channel(self, rng):
        proto = section6_protocol(0.3)
        proto.forward  # nothing built on the old channel is carried over
        moved = proto._on_channel(ms_gate(1.1))
        assert moved.rho0 is proto.rho0 and moved._rho_in is proto._rho_in
        assert moved.channel is not proto.channel and "tables" not in vars(moved)
        fresh = section6_protocol(1.1)
        assert same_bits(moved.forward.p_fwd, fresh.forward.p_fwd)
        assert same_bits(moved.backward.p_fwd, fresh.backward.p_fwd)
        with pytest.raises(ValueError, match="dimensions"):
            proto._on_channel(random_mixed_unitary_channel(2, rng))

    def test_time_reversed(self, rng):
        for dim in (2, 3, 4):
            for theta in (TimeReversal(), TimeReversal(random_unitary(dim, rng))):
                for _ in range(5):
                    channel = random_mixed_unitary_channel(dim, rng)
                    stacked = time_reversed(channel, theta).kraus
                    assert same_bits(stacked, loop_reversed_kraus(channel, theta))

    @pytest.mark.parametrize("n_unitaries", [2, 9], ids=["rank-deficient", "full-rank"])
    def test_endpoint_channel(self, rng, n_unitaries):
        # the endpoint matrix of a mixed-unitary channel on a qutrit, as the
        # RK4 build lays it out: sum_u E_u kron conj(E_u); five of them as
        # one stack
        endpoints = []
        for _ in range(5):
            weights = rng.dirichlet(np.ones(n_unitaries))
            unitaries = [random_unitary(3, rng) for _ in range(n_unitaries)]
            ops = QuantumChannel.mixed_unitary(unitaries, weights).kraus
            endpoints.append(sum(np.kron(e, e.conj()) for e in ops))
        for endpoint, channel in zip(endpoints, _endpoint_channels(np.stack(endpoints), 3)):
            assert same_bits(channel.kraus, loop_endpoint_kraus(endpoint, 3))
            assert len(channel.kraus) == n_unitaries  # a full-rank Choi matrix keeps all 9

    def test_entropy_samples(self, rng):
        # marginals drawn from a few values tie sigma exactly, so the merge
        # order of equal samples matters; zeroed pairs are dropped
        for _ in range(200):
            n_fin, n_in = rng.integers(1, 6, size=2)
            p_fwd = rng.random((n_fin, n_in)) * (rng.random((n_fin, n_in)) < 0.8)
            if not p_fwd.any():
                p_fwd[0, 0] = 1.0
            p_fwd /= p_fwd.sum()
            levels = rng.random(3) + 0.01
            table = JointOutcomeTable(p_fwd, rng.choice(levels, n_in), rng.choice(levels, n_fin))
            expected, got = loop_entropy_samples(table, "x"), entropy_samples(table, "x")
            assert same_bits(got.support, expected.support)
            assert same_bits(got.probs, expected.probs)
            assert got.dropped_outcomes == expected.dropped_outcomes == np.sum(p_fwd <= 1e-15)
            assert got.infinite_mass == expected.infinite_mass == 0.0
            assert got.label == "x"

    def test_entropy_samples_of_many_tables(self, rng):
        # 2x2 and 4x4 tables around an all-infinite one, two of them with
        # some infinite mass; marginals drawn from two values tie samples
        # exactly. One call has each table's bits and warns in table order.
        def table(n, empty_ref=()):
            p_fwd = rng.random((n, n)) * (rng.random((n, n)) < 0.8)
            p_fwd[[0, *empty_ref], 0] += 0.1  # mass on every emptied reference outcome
            levels = rng.random(2) + 0.01
            p_ref = rng.choice(levels, n)
            p_ref[list(empty_ref)] = 0.0
            return JointOutcomeTable(p_fwd / p_fwd.sum(), rng.choice(levels, n), p_ref)

        all_infinite = JointOutcomeTable(np.full((2, 2), 0.25), [0.5, 0.5], [0.0, 0.0])
        tables = [table(2), table(4, [0]), all_infinite, table(2, [1]), table(4), table(4)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = entropy_samples(tables, "x")
        with warnings.catch_warnings(record=True) as lone:
            warnings.simplefilter("always")
            for t in tables:
                entropy_samples(t, "x")
        assert [str(w.message) for w in caught] == [str(w.message) for w in lone]
        assert len(caught) == 3 and got[2].support.size == 0 and got[2].infinite_mass == 1.0
        for t, dist in zip(tables, got):
            assert same_result(dist, loop_entropy_samples(t, "x"))

    def test_zero_initial_probability_raises(self):
        table = JointOutcomeTable(
            np.array([[0.25, 0.0, 0.25], [0.0, 0.3, 0.2]]),
            np.array([0.5, 0.0, 0.5]),
            np.array([0.5, 0.5]),
        )
        with pytest.raises(ValueError) as expected:
            loop_entropy_samples(table)
        with pytest.raises(ValueError) as got:
            entropy_samples(table)
        assert str(got.value) == str(expected.value)
        assert "initial outcome 1" in str(got.value)

    def test_zero_reference_probability(self):
        # three pairs land on the empty reference outcome 1, whose masses sum
        # to different floats in different orders; one pair carries no mass
        table = JointOutcomeTable(
            np.array([[0.15, 0.25, 0.0], [0.1, 0.2, 0.3]]),
            np.array([0.25, 0.45, 0.3]),
            np.array([0.4, 0.0]),
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = entropy_samples(table)
        assert [w.category for w in caught] == [AbsoluteIrreversibilityWarning]
        expected = loop_entropy_samples(table)
        assert same_bits(got.infinite_mass, expected.infinite_mass)
        assert got.infinite_mass == (0.1 + 0.2) + 0.3 != (0.3 + 0.2) + 0.1
        assert got.dropped_outcomes == expected.dropped_outcomes == 1
        assert same_bits(got.support, expected.support)
        assert same_bits(got.probs, expected.probs)

    @settings(max_examples=300)
    @example([])
    @example([(-1e-200, [], [1e-200, 0.0, 0.0, 0.0])])  # v * m underflows to -0.0
    @given(
        st.lists(
            st.tuples(
                st.floats(-30, 30) | st.sampled_from([0.0, -0.0]),
                st.lists(st.floats(0, 1e-10, exclude_max=True), max_size=3),
                st.lists(st.sampled_from([0.0, -0.0]) | st.floats(0, 1), min_size=4, max_size=4),
            ),
            max_size=12,
        )
    )
    def test_merge_support(self, clusters):
        # each drawn value brings up to three more within 1e-10 of it; masses
        # may be zero, so some clusters fall back to the plain mean
        values, masses = [], []
        for value, offsets, cluster_masses in clusters:
            members = [value] + [value + offset for offset in offsets]
            values += members
            masses += cluster_masses[: len(members)]
        values, masses = np.array(values, dtype=float), np.array(masses, dtype=float)
        expected, got = loop_merge_support(values, masses), merge_support(values, masses)
        assert same_bits(got[0], expected[0]) and same_bits(got[1], expected[1])

    @settings(max_examples=200)
    @example([])
    @example([[]])
    # exact 2-, 3- and 4-way ties around an empty row
    @example([[(1.5, 0.1), (1.5, 0.2)], [], [(1.5, 0.3), (-0.0, 0.1), (1.5, 0.2), (1.5, 0.4)],
              [(0.0, 0.1), (0.0, 0.2), (0.0, 0.3), (0.0, 0.4), (1.5, 0.0)]])
    # neighbours exactly SUPPORT_MERGE_TOL apart merge; 2 * tol apart do not
    @example([[(0.0, 0.5), (SUPPORT_MERGE_TOL, 0.5), (3 * SUPPORT_MERGE_TOL, 0.1)],
              [(-SUPPORT_MERGE_TOL, 0.2), (0.0, 0.0), (SUPPORT_MERGE_TOL, 0.3)]])
    @given(
        st.lists(
            st.lists(
                st.tuples(
                    st.sampled_from([-SUPPORT_MERGE_TOL, 0.0, -0.0, SUPPORT_MERGE_TOL,
                                     2 * SUPPORT_MERGE_TOL, 1.5, -2.25]) | st.floats(-30, 30),
                    st.sampled_from([0.0, -0.0]) | st.floats(0, 1),
                ),
                max_size=20,
            ),
            max_size=8,
        )
    )
    def test_merged_rows(self, rows):
        # many rows of mixed lengths merged at once, grouped by row or
        # interleaved entry by entry (each row keeping its own order): each
        # row has the bits of its own loop merge
        arrays = [np.array(r, dtype=float).reshape(-1, 2) for r in rows]
        values, row = _concatenated([a[:, 0] for a in arrays])
        masses, _ = _concatenated([a[:, 1] for a in arrays])
        at = np.arange(row.size) - np.searchsorted(row, row)  # position within its row
        interleaved = np.lexsort((row, at))
        for order in (np.arange(row.size), interleaved):
            merged_values, merged_masses, merged_row = _merged_rows(
                values[order], masses[order], row[order]
            )
            assert np.all(np.diff(merged_row) >= 0)
            for i, a in enumerate(arrays):
                expected = loop_merge_support(a[:, 0], a[:, 1])
                assert same_bits(merged_values[merged_row == i], expected[0])
                assert same_bits(merged_masses[merged_row == i], expected[1])

    def test_crooks_check(self, rng):
        protos = [section6_protocol(phi) for phi in (0.0, 0.3, math.pi / 7, 2.0)]
        protos += [generic_protocol(rng, dim) for dim in (2, 3, 4, 5) for _ in range(3)]
        for proto in protos:
            assert same_bits(crooks_check(proto), loop_crooks_check(proto))

    def test_crooks_check_with_absolute_irreversibility(self):
        rho0 = DensityMatrix.from_diagonal([0.5, 0.5, 0.0, 0.0], partition=(2, 2))
        proto = TwoTimeProtocol(rho0, COMP4, COMP4, ms_gate(0.4))
        with pytest.warns(AbsoluteIrreversibilityWarning):
            assert same_bits(crooks_check(proto), loop_crooks_check(proto))

    def test_moment_memo(self, rng):
        dist = entropy_samples(generic_protocol(rng).forward)
        other = EntropyDistribution(dist.support, dist.probs[::-1] / dist.probs.sum())
        for k in (1, 2, 3, 4, 7):
            fresh = running_sum(dist.probs * dist.support**k)
            assert same_bits(dist.moment(k), fresh)
            assert same_bits(dist.moment(k), fresh)  # memoised
            assert same_bits(other.moment(k), running_sum(other.probs * other.support**k))
        assert same_bits(dist.moments(4), np.array([dist.moment(k) for k in range(1, 5)]))


def support_violation():
    """States with rho_fin outside the support of rho_tau; no dephasing
    produces this, so the states are handed over directly."""
    rho_fin = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    rho_tau = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    return SimpleNamespace(states=ProtocolStates(rho_fin, rho_fin, rho_tau), obs_fin=COMP4)


def mixed_protocols(rng):
    """Protocols of several dimensions and shapes: phi = 0 leaves rho_tau
    degenerate (RHO0's 6/25 twice) with a commuting final observable, the
    final eigenbasis observable commutes too, and a rank-deficient rho0 has
    zero-probability initial outcomes and absolute irreversibility."""
    channel = ms_gate(math.pi / 7)
    rho_fin = channel.apply_matrix(_dephase(COMP4.projectors, RHO0.data))
    rank_deficient = DensityMatrix.from_diagonal([0.5, 0.5, 0.0, 0.0], partition=(2, 2))
    protos = [section6_protocol(phi) for phi in (0.0, 0.3, math.pi / 7, 2.0)]
    protos += [generic_protocol(rng, dim) for dim in (2, 3, 4, 2) for _ in range(2)]
    protos.insert(3, TwoTimeProtocol(RHO0, COMP4, Observable.from_matrix(rho_fin), channel))
    protos.insert(6, TwoTimeProtocol(rank_deficient, COMP4, COMP4, ms_gate(0.4)))
    return protos


def loop_conditional_deviation(proto):
    fwd, bwd = proto.forward, proto.backward
    deviation = None
    for k in range(fwd.p_fwd.shape[0]):
        for m in range(fwd.p_fwd.shape[1]):
            if fwd.p_in[m] > MASS_DROP_TOL and bwd.p_in[k] > MASS_DROP_TOL:
                gap = abs(fwd.p_fwd[k, m] / fwd.p_in[m] - bwd.p_fwd[m, k] / bwd.p_in[k])
                deviation = gap if deviation is None else max(deviation, gap)
    return 0.0 if deviation is None else deviation


def quietly(check, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return check(*args)


def same_result(a, b) -> bool:
    """Whether two check results hold the same bits, field by field for the
    named-tuple results and distributions."""
    if isinstance(a, EntropyDistribution):
        return type(b) is EntropyDistribution and all(
            same_bits(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
        )
    if isinstance(a, tuple):
        return type(a) is type(b) and all(same_bits(x, y) for x, y in zip(a, b, strict=True))
    return same_bits(a, b)


class TestOneOrMany:
    """Each theorem check takes one item, or a list or tuple of items, and
    answers in kind."""

    @staticmethod
    def cases(rng) -> dict:
        """The argument tuple of each lone call, for each check."""
        protos = [section6_protocol(0.3), section6_protocol(2.0), generic_protocol(rng, 3)]
        return {
            entropy_bound_check: [(p,) for p in protos],
            conditional_equality_deviation: [(p,) for p in protos],
            crooks_check: [(p,) for p in protos],
            ift_deviation: [(p.distributions["A-B"],) for p in protos],
            correlation_witness: [(p.distributions["A-B"], p.distributions["A+B"])
                                  for p in protos[:2]],
            rmse_probs: [(d, EntropyDistribution(d.support, (d.probs + 1 / d.probs.size) / 2))
                         for d in (p.distributions["A-B"] for p in protos)],
            entropy_samples: [(t,) for p in protos for t in (p.forward, p.backward)],
            convolve_distributions: [(p.distributions["A"], p.distributions["B"])
                                     for p in protos[:2]],
        }

    def test_one_item_list_has_the_bits_of_the_lone_call(self, rng):
        for check, calls in self.cases(rng).items():
            for args in calls:
                alone = check(*args)
                listed = check(*([arg] for arg in args))
                assert not isinstance(alone, list)
                assert isinstance(listed, list) and len(listed) == 1
                assert same_result(listed[0], alone)

    def test_list_and_tuple_agree(self, rng):
        for check, calls in self.cases(rng).items():
            columns = list(zip(*calls))  # one tuple per argument
            as_tuple, as_list = check(*columns), check(*map(list, columns))
            assert isinstance(as_tuple, list) and len(as_tuple) == len(calls)
            assert all(same_result(a, b) for a, b in zip(as_tuple, as_list, strict=True))
            assert all(same_result(r, check(*args)) for r, args in zip(as_list, calls))

    def test_duck_typed_protocol_counts_as_one(self):
        # a protocol-like object that is no list or tuple is one item
        alone = quietly(entropy_bound_check, support_violation())
        assert isinstance(alone, EntropyBoundResult)
        assert quietly(entropy_bound_check, [support_violation()]) == [alone]

    def test_witness_pairs_must_match(self):
        dists = section6_protocol(0.3).distributions
        with pytest.raises(ValueError, match="pair up"):
            correlation_witness([dists["A-B"]] * 2, [dists["A+B"]])
        with pytest.raises(ValueError, match="pair up"):
            convolve_distributions([dists["A"]] * 2, [dists["B"]])

    def test_rmse_pairs_must_match_and_align(self):
        dists = section6_protocol(0.3).distributions
        with pytest.raises(ValueError, match="pair up"):
            rmse_probs([dists["A"]] * 2, [dists["A"]])
        # one misaligned pair in a list refuses the whole call
        with pytest.raises(ValueError, match="align"):
            rmse_probs([dists["A"], dists["A"]], [dists["A"], dists["A-B"]])

    def test_empty_list_gives_an_empty_list(self, rng):
        for check, calls in self.cases(rng).items():
            assert check(*([] for _ in calls[0])) == []


class TestStackedChecks:
    """Each stacked check equals the one-protocol check of every item."""

    def test_entropy_bound(self, rng):
        protos = mixed_protocols(rng)
        protos[2:2] = [support_violation()]
        protos.append(support_violation())
        degenerate = np.linalg.eigvalsh(protos[0].states.rho_tau)
        assert np.sum(np.abs(degenerate - 6 / 25) <= 1e-15) == 2
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            stacked = entropy_bound_check(protos)
        # one warning per violating protocol
        assert [w.category for w in caught] == [DegenerateSupportWarning] * 2
        for proto, result in zip(protos, stacked):
            alone = quietly(entropy_bound_check, proto)
            assert same_bits(result.relative_entropy, alone.relative_entropy)
            assert same_bits(result.mean_sigma, alone.mean_sigma)
            assert result.passed is alone.passed
        assert stacked[2] == stacked[-1] == (math.inf, math.inf, False)
        for commuting in (0, 4):  # the relative entropy vanishes
            assert stacked[commuting].passed and stacked[commuting].relative_entropy <= 1e-10
        assert sum(result.passed for result in stacked) == len(protos) - 2

    def test_conditional_equality(self, rng):
        protos = mixed_protocols(rng)
        # the equality needs rank-one observables; the final eigenbasis
        # observable has a two-dimensional eigenspace, so the stack holding
        # it is refused before any table is built
        with pytest.raises(ValueError, match="rank-one"):
            conditional_equality_deviation(protos)
        assert not any({"tables", "backward"} & vars(proto).keys() for proto in protos)
        del protos[3]
        stacked = conditional_equality_deviation(protos)
        for proto, value in zip(protos, stacked):
            assert same_bits(value, conditional_equality_deviation(proto))
            assert same_bits(value, loop_conditional_deviation(proto))
        assert all(value <= 1e-10 for value in stacked)

    def test_crooks(self, rng):
        protos = mixed_protocols(rng)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            stacked = crooks_check(protos)
        assert [w.category for w in caught] == [AbsoluteIrreversibilityWarning]
        for proto, value in zip(protos, stacked):
            assert same_bits(value, quietly(loop_crooks_check, proto))
            assert same_bits(value, quietly(crooks_check, proto))

    def test_ift_witness_and_moments(self, rng):
        dists = [d for p in mixed_protocols(rng) for d in quietly(lambda: p.distributions).values()]
        dists.append(EntropyDistribution(np.array([]), np.array([]), infinite_mass=1.0))
        expected = [abs(running_sum(exp_terms(d)) - 1.0) for d in dists]
        assert all(same_bits(a, b) for a, b in zip(ift_deviation(dists), expected))
        assert all(same_bits(ift_deviation(d), e) for d, e in zip(dists, expected))
        stack_moments(dists, range(1, 6))
        for dist in dists:
            for k in range(1, 6):
                assert same_bits(dist.moment(k), running_sum(dist.probs * dist.support**k))
        pairs = [(p.distributions["A-B"], p.distributions["A+B"]) for p in mixed_protocols(rng)
                 if p.bipartite_obs is not None]
        stacked = correlation_witness(*zip(*pairs))
        for (ab, conv), result in zip(pairs, stacked):
            alone = correlation_witness(ab, conv)
            assert same_bits(result.moment_gaps, alone.moment_gaps)
            assert result.distinct is alone.distinct

    def test_sums_are_running_sums(self):
        # 16 support points, where numpy's pairwise .sum() rounds each of
        # these sums differently from a running sum; a row's sums keep their
        # bits alone and stacked between a shorter row and an empty one
        rng = np.random.default_rng(16)
        support = np.sort(rng.uniform(-3, 3, 16))
        probs, other = (p / p.sum() for p in rng.random((2, 16)))
        terms = [probs * support**k for k in range(1, 5)]
        long = EntropyDistribution(support, probs)
        terms += [exp_terms(long), np.abs(probs - other) ** 2]
        assert all(running_sum(t) != t.sum() for t in terms)
        for stacked in (False, True):
            long = EntropyDistribution(support, probs)
            short = EntropyDistribution(np.array([-1.0, 0.2, 2.0]), np.array([0.2, 0.3, 0.5]))
            empty = EntropyDistribution(np.array([]), np.array([]), infinite_mass=1.0)
            recovered = EntropyDistribution(support, other)
            dists, trues, recons, at = [long], [long], [recovered], 0
            if stacked:
                dists, trues, recons, at = [short, long, empty], [short, long], [short, recovered], 1
            stack_moments(dists, range(1, 5))
            assert same_bits(long.moments(4), np.array([running_sum(t) for t in terms[:4]]))
            assert same_bits(ift_deviation(dists)[at], abs(running_sum(terms[4]) - 1.0))
            expected = math.sqrt(running_sum(terms[5]) / 16)
            assert same_bits(rmse_probs(trues, recons)[at], expected)
        lone_empty = EntropyDistribution(np.array([]), np.array([]), infinite_mass=1.0)
        assert same_bits(lone_empty.moments(4), np.zeros(4))

    def test_ift_takes_math_exp(self):
        # 200 seeded supports on [-30, 30], where np.exp may round its last
        # bit otherwise on some CPUs; each deviation is the running sum of
        # the math.exp terms, alone and stacked, and an exponential beyond
        # float64 gives inf, not OverflowError
        rng = np.random.default_rng(200)
        dists = []
        for n in rng.integers(1, 12, 200):
            support = np.sort(rng.uniform(-30.0, 30.0, n))
            dists.append(EntropyDistribution(support, rng.dirichlet(np.ones(n))))
        expected = [abs(running_sum(exp_terms(d)) - 1.0) for d in dists]
        assert same_bits(np.array(ift_deviation(dists)), np.array(expected))
        assert all(same_bits(ift_deviation(d), e) for d, e in zip(dists[:20], expected))
        far = EntropyDistribution(np.array([-800.0, 0.0]), np.array([0.5, 0.5]))
        assert ift_deviation([far, dists[0]]) == [math.inf, expected[0]]

    def test_default_phase_sweep_warns_as_before(self):
        # the counts of the one-protocol checks: a rank-deficient rho0 meets
        # absolute irreversibility at 62 of the 64 phases, and chi warns
        # once per label for the whole sweep
        from dataclasses import replace

        from entroprec.experiments import default_sweep_points, preset, sweep_phase

        points = default_sweep_points("phi")
        rank_deficient = {AbsoluteIrreversibilityWarning: 62, DegenerateSupportWarning: 2}
        for rho0, expected in (
            (preset("fig3").rho0_diag, {}),
            ((0.6, 0.4, 0.0, 0.0), rank_deficient),
        ):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                sweep_phase(points, replace(preset("fig3"), rho0_diag=rho0), methods=("pinv",))
            counts = {}
            for w in caught:
                counts[w.category] = counts.get(w.category, 0) + 1
            assert counts == expected
