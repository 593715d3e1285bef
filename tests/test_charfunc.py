import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entroprec import (
    DegenerateSupportWarning,
    DensityMatrix,
    Observable,
    QuantumChannel,
    bipartite_distributions,
    char_function,
    measurement_budget,
    moment_generating,
    ms_gate,
    simulate_measurement_path,
    tensor_product,
)
from entroprec import charfunc, protocol
from entroprec.charfunc import SUBSYSTEMS, _powered_state
from entroprec.experiments import PHI_MAX, PHI_MIN, PRESETS, build_protocol, preset
from entroprec.protocol import TwoTimeProtocol
from entroprec.reconstruct import chebyshev_nodes
from conftest import random_density, random_mixed_unitary_channel

RHO0 = DensityMatrix.from_diagonal([6 / 25, 9 / 25, 4 / 25, 6 / 25], partition=(2, 2))
QUBIT_OBS = Observable.computational(2)
COMP4 = Observable.computational(4)


def section6_protocol(phi=math.pi / 7):
    return TwoTimeProtocol.bipartite(RHO0, QUBIT_OBS, QUBIT_OBS, QUBIT_OBS, QUBIT_OBS, ms_gate(phi))


@pytest.fixture(scope="module")
def proto():
    return section6_protocol()


@pytest.fixture(scope="module")
def dists(proto):
    dist_a, dist_b, dist_ab, _ = bipartite_distributions(proto)
    return {"A": dist_a, "B": dist_b, "A-B": dist_ab}


class TestCharFunction:
    def test_normalisation_at_zero(self, proto):
        for label in ("A", "B", "A-B"):
            assert abs(complex(char_function(proto, label, 0.0)) - 1.0) <= 1e-12

    def test_integral_fluctuation_theorem_composite(self, proto):
        # lambda = i turns the composite characteristic function into
        # <exp(-sigma)>, which is exactly 1 for a unital channel
        assert abs(complex(char_function(proto, "A-B", 1j)) - 1.0) <= 1e-12

    def test_subsystem_jarzynski_trace_oracle(self, proto):
        # independent evaluation of Tr[(rho_A_tau x 1) Phi(1_A x rho_B_in)];
        # the local observables are computational, so the dephased states
        # are diagonal
        rho_a_tau = np.diag(proto.tables["A"].p_ref)
        rho_b_in = np.diag(proto.tables["B"].p_in)
        probe = tensor_product(rho_a_tau, np.eye(2))
        evolved = proto.channel.apply_matrix(tensor_product(np.eye(2), rho_b_in))
        oracle = np.trace(probe @ evolved)
        assert abs(complex(char_function(proto, "A", 1j)) - oracle) <= 1e-12

    def test_matches_distribution_path(self, proto, dists, rng):
        for _ in range(20):
            label = ("A", "B", "A-B")[rng.integers(0, 3)]
            lam = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
            from_operator = complex(char_function(proto, label, lam))
            from_dist = dists[label].char_fn(lam)
            assert abs(from_operator - from_dist) <= 1e-10

    def test_conjugate_symmetry(self, proto, rng):
        for _ in range(5):
            lam = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
            lhs = np.conj(complex(char_function(proto, "A", -np.conj(lam))))
            rhs = complex(char_function(proto, "A", lam))
            assert abs(lhs - rhs) <= 1e-12

    def test_unknown_subsystem(self, proto):
        with pytest.raises(ValueError, match="subsystem"):
            char_function(proto, "C", 0.0)

    def test_local_labels_on_asymmetric_protocols(self, rng):
        # the section-6 gate and state map A onto B under a qubit swap; random
        # channels do not, so a factor on the wrong side of the Kronecker
        # product shows here
        for _ in range(5):
            diag = np.kron(rng.dirichlet([1.0, 1.0]), rng.dirichlet([1.0, 1.0]))
            proto = TwoTimeProtocol.bipartite(
                DensityMatrix.from_diagonal(diag, partition=(2, 2)),
                QUBIT_OBS, QUBIT_OBS, QUBIT_OBS, QUBIT_OBS,
                random_mixed_unitary_channel(4, rng),
            )
            for label in ("A", "B"):
                for phi in (-0.5, 0.3, 1.0):
                    expected = proto.distributions[label].mgf(phi)
                    assert abs(float(moment_generating(proto, label, phi)) - expected) <= 1e-10
                    assert abs(simulate_measurement_path(proto, label, phi) - expected) <= 1e-10

    def test_local_label_needs_local_observables(self, rng):
        composite = Observable.computational(4)
        proto = TwoTimeProtocol(RHO0, composite, composite, random_mixed_unitary_channel(4, rng))
        assert abs(complex(char_function(proto, "A-B", 0.0)) - 1.0) <= 1e-12
        for label in ("A", "B"):
            with pytest.raises(ValueError, match="bipartite"):
                char_function(proto, label, 0.3)
            with pytest.raises(ValueError, match="bipartite"):
                simulate_measurement_path(proto, label, 0.3)


class TestRankOneGuard:
    """chi assembles powered states from rank-one projectors only; anything
    else used to return a wrong value instead of an error."""

    def test_trivial_local_observable_refused(self):
        # B is not measured (one rank-2 projector) and its factor is not
        # diagonal: chi_A(0.3) came out as 1.99 against 0.996 from dist_A
        trivial = Observable((0.0,), (np.eye(2),))
        rho_b = np.array([[0.6, 0.3], [0.3, 0.4]])
        rho0 = DensityMatrix(np.kron(np.diag([0.7, 0.3]), rho_b), partition=(2, 2))
        proto = TwoTimeProtocol.bipartite(
            rho0, QUBIT_OBS, trivial, QUBIT_OBS, trivial, ms_gate(0.4)
        )
        for label in ("A", "B", "A-B"):
            with pytest.raises(ValueError, match="rank-one"):
                char_function(proto, label, 0.3)
            with pytest.raises(ValueError, match="rank-one"):
                simulate_measurement_path(proto, label, 0.3)

    def test_rank_two_composite_projector_refused(self, rng):
        # the removed matrix-power fallback gave chi(0.3) = 0.989 + 0.048j
        # here, against 0.995 - 0.003j from the protocol's own distribution
        diagonals = ([1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1])
        projectors = [np.diag(d).astype(complex) for d in diagonals]
        obs = Observable((0.0, 1.0, 2.0), tuple(projectors))
        proto = TwoTimeProtocol(
            random_density(4, rng), obs, obs, random_mixed_unitary_channel(4, rng)
        )
        with pytest.raises(ValueError, match="rank-one"):
            char_function(proto, "A-B", 0.3)

    def test_unmeasured_final_factor_allowed_for_the_other_side(self):
        # chi_A never reads B's final projectors, so a trivial one is fine
        trivial = Observable((0.0,), (np.eye(2),))
        proto = TwoTimeProtocol.bipartite(
            RHO0, QUBIT_OBS, QUBIT_OBS, QUBIT_OBS, trivial, ms_gate(0.4)
        )
        dist_a = bipartite_distributions(proto)[0]
        assert abs(complex(char_function(proto, "A", 0.3)) - dist_a.char_fn(0.3)) <= 1e-12
        assert abs(simulate_measurement_path(proto, "A", 0.5) - dist_a.mgf(0.5)) <= 1e-12
        with pytest.raises(ValueError, match="rank-one"):
            char_function(proto, "B", 0.3)


class TestMomentGenerating:
    def test_at_zero(self, proto):
        for label in ("A", "B", "A-B"):
            assert abs(float(moment_generating(proto, label, 0.0)) - 1.0) <= 1e-12

    def test_composite_at_one(self, proto):
        assert abs(float(moment_generating(proto, "A-B", 1.0)) - 1.0) <= 1e-12

    def test_matches_brute_force(self, proto, dists):
        value = float(moment_generating(proto, "A", 0.5))
        assert abs(value - dists["A"].mgf(0.5)) <= 1e-10

    def test_derivative_at_zero_is_minus_mean(self, proto, dists):
        for label in ("A", "B", "A-B"):
            h = 1e-5
            deriv = (
                float(moment_generating(proto, label, h))
                - float(moment_generating(proto, label, -h))
            ) / (2 * h)
            assert abs(deriv + dists[label].moment(1)) <= 1e-6


def assert_stack_matches_scalar_calls(proto, nodes):
    for label in SUBSYSTEMS:
        stacked = moment_generating(proto, label, nodes)
        loop = np.array([moment_generating(proto, label, phi) for phi in nodes])
        assert stacked.dtype == np.longdouble and stacked.shape == nodes.shape
        assert np.array_equal(stacked, loop)


class TestStackedNodes:
    """A node array is evaluated as one stack of powered states; each value
    must equal the scalar call at its node bit for bit."""

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_presets_match_scalar_calls(self, name):
        proto = build_protocol(preset(name))
        for n in (1, 2, 10, 16):
            assert_stack_matches_scalar_calls(proto, chebyshev_nodes(n, PHI_MIN, PHI_MAX).nodes)

    @settings(max_examples=12)
    @given(
        name=st.sampled_from(["fig3", "fig4"]),
        phi=st.floats(0.0, 2 * math.pi, exclude_max=True),
        gamma=st.floats(0.0, 1.2),
        n=st.integers(1, 16),
    )
    def test_drawn_settings_match_scalar_calls(self, name, phi, gamma, n):
        proto = build_protocol(replace(preset(name), phi=phi, gamma=gamma))
        assert_stack_matches_scalar_calls(proto, chebyshev_nodes(n, PHI_MIN, PHI_MAX).nodes)

    def test_complex_parameters_match_scalar_calls(self, proto, rng):
        lam = rng.uniform(-2, 2, 6) + 1j * rng.uniform(-1, 1, 6)
        for label in SUBSYSTEMS:
            stacked = char_function(proto, label, lam)
            assert stacked.dtype == np.clongdouble
            assert np.array_equal(stacked, [char_function(proto, label, x) for x in lam])

    def test_scalar_call_returns_scalar(self, proto):
        chi = moment_generating(proto, "A", 0.3)
        assert isinstance(chi, np.longdouble) and np.ndim(chi) == 0
        value = char_function(proto, "A-B", 0.2 + 0.1j)
        assert isinstance(value, np.clongdouble) and np.ndim(value) == 0

    def test_matrix_of_parameters_refused(self, proto):
        with pytest.raises(ValueError, match="1-D"):
            char_function(proto, "A", np.zeros((2, 2)))

    def test_imaginary_residue_reports_worst_node(self, proto, monkeypatch):
        residues = np.array([0.0, 3e-3, -5e-3, 1e-14])
        fake = (1 + 1j * residues).astype(np.clongdouble)
        monkeypatch.setattr(charfunc, "char_function", lambda *args: fake)
        message = r"^moment-generating value has imaginary residue -5\.000e-03$"
        with pytest.raises(ArithmeticError, match=message):
            moment_generating(proto, "A", np.linspace(0.0, 1.0, 4))
        monkeypatch.setattr(charfunc, "char_function", lambda *args: fake[1])
        with pytest.raises(ArithmeticError, match=r"residue 3\.000e-03$"):
            moment_generating(proto, "A", 0.5)

    def test_one_warning_carries_the_total_dropped_count(self):
        # A's initial marginal is pure: its zero outcome is dropped at every
        # node with 1 - phi <= 0, here three of four
        rho0 = DensityMatrix.from_diagonal([0.5, 0.5, 0.0, 0.0], partition=(2, 2))
        proto = TwoTimeProtocol.bipartite(
            rho0, QUBIT_OBS, QUBIT_OBS, QUBIT_OBS, QUBIT_OBS, ms_gate(0.4)
        )
        nodes = np.array([0.5, 1.0, 1.5, 2.0])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            stacked = moment_generating(proto, "A", nodes)
        assert [w.category for w in caught] == [DegenerateSupportWarning]
        assert "dropped 3 zero-probability" in str(caught[0].message)
        with pytest.warns(DegenerateSupportWarning):
            loop = [moment_generating(proto, "A", phi) for phi in nodes]
        assert np.array_equal(stacked, loop)


def dropped_count(caught) -> int:
    """The dropped-term count that the recorded warnings carry."""
    return sum(int(re.search(r"dropped (\d+) zero", str(w.message)).group(1)) for w in caught)


class TestStackedProtocols:
    """chi of many protocols in one stacked call: each row equals the
    one-protocol call bit for bit, and one warning carries the summed count."""

    NODES = np.array([-0.5, 0.25, 1.0, 1.5, 2.0])

    @staticmethod
    def protocols():
        # two shape groups (one Kraus operator, two); the second protocol's
        # A marginal and composite initial state have zero-probability outcomes
        pure_a = DensityMatrix.from_diagonal([0.5, 0.5, 0.0, 0.0], partition=(2, 2))
        mixed = QuantumChannel.mixed_unitary(
            [ms_gate(0.3).kraus[0], ms_gate(1.1).kraus[0]], [0.25, 0.75]
        )
        return [
            section6_protocol(0.2),
            TwoTimeProtocol.bipartite(pure_a, *(QUBIT_OBS,) * 4, ms_gate(0.4)),
            TwoTimeProtocol.bipartite(RHO0, *(QUBIT_OBS,) * 4, mixed),
            section6_protocol(2.5),
        ]

    @pytest.mark.parametrize("stack_pairs", [charfunc.STACK_PAIRS, 7])
    @pytest.mark.parametrize("label", SUBSYSTEMS)
    def test_rows_equal_one_protocol_calls(self, label, stack_pairs, monkeypatch):
        # a small STACK_PAIRS splits each group into stacks of one protocol
        monkeypatch.setattr(charfunc, "STACK_PAIRS", stack_pairs)
        protos = self.protocols()
        assert len(protocol._shape_groups(protos)) == 2
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            stacked = charfunc.moment_generating(protos, label, self.NODES)
        assert stacked.dtype == np.longdouble and stacked.shape == (4, self.NODES.size)
        with warnings.catch_warnings(record=True) as alone_caught:
            warnings.simplefilter("always")
            alone = [moment_generating(proto, label, self.NODES) for proto in protos]
        for row, one in zip(stacked, alone):
            assert np.array_equal(row, one)
        assert all(w.category is DegenerateSupportWarning for w in caught + alone_caught)
        assert len(caught) == (1 if alone_caught else 0)
        assert dropped_count(caught) == dropped_count(alone_caught)
        if label != "B":  # B's marginals have no zero outcome
            assert dropped_count(caught) > 0

    def test_complex_parameters_and_shapes(self, rng):
        protos = self.protocols()[::2]
        lam = rng.uniform(-2, 2, 5) + 1j * rng.uniform(-1, 1, 5)
        for label in SUBSYSTEMS:
            stacked = charfunc.char_function(protos, label, lam)
            assert stacked.dtype == np.clongdouble and stacked.shape == (2, 5)
            for row, proto in zip(stacked, protos):
                assert np.array_equal(row, char_function(proto, label, lam))
            scalar = charfunc.char_function(protos, label, 0.3)
            assert scalar.shape == (2,)
            assert np.array_equal(scalar, [char_function(proto, label, 0.3) for proto in protos])

    def test_worst_residue_over_all_protocols(self, monkeypatch):
        fake = (1 + 1j * np.array([[0.0, 3e-3], [-5e-3, 1e-14]])).astype(np.clongdouble)
        monkeypatch.setattr(charfunc, "char_function", lambda *args: fake)
        with pytest.raises(ArithmeticError, match=r"residue -5\.000e-03$"):
            charfunc.moment_generating(self.protocols()[:2], "A", np.array([0.1, 0.2]))

    def test_every_protocol_is_checked(self):
        protos = self.protocols()
        composite = TwoTimeProtocol(RHO0, COMP4, COMP4, ms_gate(0.3))
        with pytest.raises(ValueError, match="no bipartite observables"):
            charfunc.moment_generating(protos + [composite], "A", self.NODES)
        with pytest.raises(ValueError, match="subsystem must be one of"):
            charfunc.moment_generating(protos, "C", self.NODES)

    def test_one_or_many(self):
        # one protocol answers with a value shaped like the parameters, a
        # list or tuple with one such row per protocol
        protos = self.protocols()
        cases = ((char_function, 0.3 + 0.1j), (moment_generating, self.NODES))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateSupportWarning)
            for fn, value in cases:
                for label in SUBSYSTEMS:
                    alone = fn(protos[1], label, value)
                    listed = fn([protos[1]], label, value)
                    assert np.shape(alone) == np.shape(value)
                    assert listed.shape == (1,) + np.shape(value) and listed.dtype == alone.dtype
                    assert np.array_equal(listed[0], alone)
                    assert np.array_equal(fn(tuple(protos), label, value), fn(protos, label, value))

    def test_lone_call_warning_names_the_caller(self):
        # the second protocol's A marginal has a zero-probability outcome
        with pytest.warns(DegenerateSupportWarning) as caught:
            char_function(self.protocols()[1], "A", 2j)
        assert [w.filename for w in caught] == [__file__]


class TestMeasurementPath:
    def test_at_zero(self, proto):
        for label in ("A", "B", "A-B"):
            assert abs(simulate_measurement_path(proto, label, 0.0) - 1.0) <= 1e-12

    def test_matches_trace_formula_on_chebyshev_grid(self, proto):
        grid = chebyshev_nodes(10, -0.5, 1.0)
        for label in ("A", "B", "A-B"):
            for phi in grid.nodes:
                via_measurement = simulate_measurement_path(proto, label, float(phi))
                via_trace = float(moment_generating(proto, label, float(phi)))
                assert abs(via_measurement - via_trace) <= 1e-10

    def test_composite_only_protocol(self):
        # A-B reads only obs_fin and the composite table; it used to demand
        # local observables and raise ValueError here
        computational = Observable.computational(4)
        rho0 = DensityMatrix.from_diagonal([0.3, 0.2, 0.4, 0.1])
        proto = TwoTimeProtocol(rho0, computational, computational, ms_gate(0.3))
        expected = float(moment_generating(proto, "A-B", 0.3))
        assert expected == pytest.approx(0.99410, abs=1e-5)
        assert abs(simulate_measurement_path(proto, "A-B", 0.3) - expected) <= 1e-10

    def test_rank_deficient_preparation_flagged(self):
        # A-marginal is pure, so (rho_A_in)^{1-phi} with phi > 1 hits a zero mode
        rho0 = DensityMatrix.from_diagonal([0.5, 0.5, 0.0, 0.0], partition=(2, 2))
        proto = TwoTimeProtocol.bipartite(
            rho0, QUBIT_OBS, QUBIT_OBS, QUBIT_OBS, QUBIT_OBS, ms_gate(0.4)
        )
        with pytest.warns(DegenerateSupportWarning):
            simulate_measurement_path(proto, "A", 1.5)

    @pytest.mark.parametrize(
        "channel",
        [QuantumChannel.identity(4), ms_gate(0.0), ms_gate(0.4)],
        ids=["identity", "gate-0", "gate-0.4"],
    )
    def test_rank_deficient_state_on_the_default_grid(self, channel):
        # without mixing, A's reference marginal keeps a zero outcome; step 3
        # used to raise it to the grid's negative nodes and return NaN
        rho0 = DensityMatrix.from_diagonal([0.5, 0.5, 0.0, 0.0], partition=(2, 2))
        proto = TwoTimeProtocol.bipartite(
            rho0, QUBIT_OBS, QUBIT_OBS, QUBIT_OBS, QUBIT_OBS, channel
        )
        nodes = np.append(chebyshev_nodes(16, PHI_MIN, PHI_MAX).nodes, -0.3)
        for label in SUBSYSTEMS:
            for phi in nodes:
                with warnings.catch_warnings(record=True) as operator_warnings:
                    warnings.simplefilter("always")
                    expected = float(moment_generating(proto, label, phi))
                with warnings.catch_warnings(record=True) as path_warnings:
                    warnings.simplefilter("always")
                    measured = simulate_measurement_path(proto, label, float(phi))
                assert math.isfinite(measured) and abs(measured - expected) <= 1e-10
                # the same dropped count, and no numpy RuntimeWarning
                assert [str(w.message) for w in path_warnings] == [
                    str(w.message) for w in operator_warnings
                ]


class TestPoweredState:
    """sum_k p_k^z P_k, the one builder both chi paths raise dephased states
    with."""

    def test_first_power_is_the_dephased_state(self, rng):
        # exp(ln p) in 80 bits rounds back to p exactly, down to the cutoff
        projectors = Observable.computational(3).projectors
        for _ in range(200):
            probs = np.exp(rng.uniform(np.log(1e-13), 0.0, 3))
            state, dropped = _powered_state(probs, projectors, np.ones(1))
            assert dropped == 0 and state.dtype == np.clongdouble
            assert np.array_equal(state[0].astype(complex), np.diag(probs))

    def test_unit_probabilities_any_exponent(self):
        projectors = Observable.computational(3).projectors
        state, _ = _powered_state(np.ones(3), projectors, np.array([0.3 - 1.7j, -2.0]))
        assert np.array_equal(state, np.broadcast_to(np.eye(3), (2, 3, 3)))

    def test_complex_power_of_diagonal(self):
        state, _ = _powered_state([0.25, 0.75], QUBIT_OBS.projectors, np.array([1 + 1j]))
        expected = np.diag([0.25 ** (1 + 1j), 0.75 ** (1 + 1j)])
        assert np.max(np.abs(state[0] - expected)) <= 1e-15

    def test_semigroup_at_80_bits(self, rng):
        # dyadic exponents add exactly, so p^z1 p^z2 = p^(z1 + z2) holds to
        # the 80-bit rounding, well below float64's
        z1, z2 = 0.25 + 0.5j, 0.5 - 0.75j
        projectors = Observable.computational(4).projectors
        for _ in range(20):
            probs = rng.dirichlet(np.ones(4))
            state, _ = _powered_state(probs, projectors, np.array([z1, z2, z1 + z2]))
            assert np.max(np.abs(state[0] @ state[1] - state[2])) <= 1e-17

    def test_zero_outcome_dropped_and_counted(self):
        # outcomes at or below the cutoff give 0; they count as dropped at
        # each exponent with Re z <= 0, and 0 is never raised to a power
        z = np.array([1.5, 0.0, -0.5 + 1j, 2j])
        projectors = Observable.computational(3).projectors
        state, dropped = _powered_state([0.5, 0.5, 1e-15], projectors, z)
        assert dropped == 3
        assert np.all(state[:, 2, 2] == 0) and np.all(np.isfinite(state))
        assert np.array_equal(state[1], np.diag([1.0, 1.0, 0.0]))
        rho0 = DensityMatrix.from_diagonal([0.5, 0.5, 0.0, 0.0], partition=(2, 2))
        proto = TwoTimeProtocol.bipartite(
            rho0, QUBIT_OBS, QUBIT_OBS, QUBIT_OBS, QUBIT_OBS, ms_gate(0.4)
        )
        message = r"^dropped 1 zero-probability outcome term\(s\) over 1 parameter value\(s\)$"
        with pytest.warns(DegenerateSupportWarning, match=message):
            moment_generating(proto, "A", 1.5)
        with pytest.warns(DegenerateSupportWarning, match=message):
            simulate_measurement_path(proto, "A", 1.5)


class TestMeasurementBudget:
    def test_local_scaling_linear(self):
        base = measurement_budget("A", 2, 2).total(10) + measurement_budget("B", 2, 2).total(10)
        doubled = measurement_budget("A", 4, 4).total(10) + measurement_budget("B", 4, 4).total(10)
        assert doubled == 2 * base  # linear in (M_A + M_B)

    def test_global_scaling_product(self):
        assert measurement_budget("A-B", 2, 2).per_node == 4
        assert measurement_budget("A-B", 4, 4).per_node == 16

    def test_direct_counts_quadratic(self):
        assert measurement_budget("A", 4, 2).direct == 16
        assert measurement_budget("A-B", 4, 4).direct == 256

    def test_unknown_subsystem(self):
        with pytest.raises(ValueError):
            measurement_budget("C", 2, 2)
