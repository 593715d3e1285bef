import math
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from entroprec import (
    DensityMatrix,
    IntegratorAccuracyError,
    LindbladModel,
    QuantumChannel,
    TimeReversal,
    apply_channel,
    kraus_from_lindblad_endpoint,
    lindblad_propagate,
    ms_gate,
    time_reversed,
)
from entroprec.experiments import two_ion_model
from conftest import random_density, random_mixed_unitary_channel, random_unitary

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


class TestApplyChannel:
    def test_identity(self, rng):
        rho = random_density(3, rng)
        out = apply_channel(QuantumChannel.identity(3), rho)
        assert np.max(np.abs(out.data - rho.data)) <= 1e-14

    def test_unitary_conjugation(self, rng):
        rho = random_density(2, rng)
        u = random_unitary(2, rng)
        out = apply_channel(QuantumChannel.unitary(u), rho)
        assert np.max(np.abs(out.data - u @ rho.data @ u.conj().T)) <= 1e-14

    def test_full_dephasing(self):
        kraus = (np.sqrt(0.5) * np.eye(2, dtype=complex), np.sqrt(0.5) * PAULI_Z)
        plus = DensityMatrix.pure(np.array([1.0, 1.0]))
        # 2x2 oracle: (|+><+| + Z|+><+|Z)/2 = I/2
        out = apply_channel(QuantumChannel(kraus), plus)
        assert np.max(np.abs(out.data - np.eye(2) / 2)) <= 1e-14

    def test_extended_precision_input_stays_extended(self, rng):
        channel = random_mixed_unitary_channel(3, rng)
        m = random_density(3, rng).data.astype(np.clongdouble)
        out = channel.apply_matrix(m)
        assert out.dtype == np.clongdouble
        expected = sum(
            e.astype(np.clongdouble) @ m @ e.conj().T.astype(np.clongdouble) for e in channel.kraus
        )
        assert np.array_equal(out, expected)
        assert channel.apply_matrix(np.eye(3)).dtype == complex

    def test_dim_mismatch(self, rng):
        with pytest.raises(ValueError, match="mismatch"):
            apply_channel(QuantumChannel.identity(2), random_density(3, rng))

    def test_trace_preserving_enforced(self):
        with pytest.raises(ValueError, match="trace"):
            QuantumChannel((np.diag([1.0, 0.5]).astype(complex),))


class TestTimeReversal:
    def test_antiunitarity(self, rng):
        for theta in (TimeReversal(), TimeReversal(random_unitary(4, rng))):
            for _ in range(10):
                v1 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
                v2 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
                lhs = np.vdot(theta.apply_to_vector(v1), theta.apply_to_vector(v2))
                rhs = np.vdot(v2, v1)
                assert abs(lhs - rhs) <= 1e-12

    def test_identity_channel(self):
        rev = time_reversed(QuantumChannel.identity(3))
        assert np.max(np.abs(rev.kraus[0] - np.eye(3))) <= 1e-14

    def test_real_unitary_conjugation_oracle(self):
        angle = 0.7
        u = np.array(
            [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]],
            dtype=complex,
        )
        rev = time_reversed(QuantumChannel.unitary(u))
        # hand-built oracle: conj(U^dag) for computational-basis conjugation
        expected = np.conj(u.conj().T)
        assert np.max(np.abs(rev.kraus[0] - expected)) <= 1e-14
        assert rev.trace_defect <= 1e-12

    def test_ms_gate_self_reversed(self):
        ch = ms_gate(math.pi / 7)
        rev = time_reversed(ch)
        assert np.max(np.abs(rev.kraus[0] - ch.kraus[0])) <= 1e-14

    def test_double_reversal(self, rng):
        ch = random_mixed_unitary_channel(4, rng)
        twice = time_reversed(time_reversed(ch))
        # equal action on a complete matrix-unit basis
        for i in range(4):
            for j in range(4):
                basis = np.zeros((4, 4), dtype=complex)
                basis[i, j] = 1.0
                diff = twice.apply_matrix(basis) - ch.apply_matrix(basis)
                assert np.max(np.abs(diff)) <= 1e-10

    def test_rejects_non_unital(self):
        damping = QuantumChannel(
            (
                np.array([[1, 0], [0, math.sqrt(0.5)]], dtype=complex),
                np.array([[0, math.sqrt(0.5)], [0, 0]], dtype=complex),
            )
        )
        assert not damping.is_unital
        with pytest.raises(ValueError, match="unital"):
            time_reversed(damping)


class TestMsGate:
    def test_zero_phase(self):
        assert np.max(np.abs(ms_gate(0.0).kraus[0] - np.eye(4))) <= 1e-14

    def test_half_pi(self):
        xx = np.kron(PAULI_X, PAULI_X)
        assert np.max(np.abs(ms_gate(math.pi / 2).kraus[0] + 1j * xx)) <= 1e-12

    def test_matches_matrix_exponential(self):
        phi = math.pi / 7
        xx = np.kron(PAULI_X, PAULI_X)
        oracle = expm(-1j * phi * xx)
        assert np.max(np.abs(ms_gate(phi).kraus[0] - oracle)) <= 1e-12

    def test_one_parameter_group(self):
        u1 = ms_gate(0.3).kraus[0]
        u2 = ms_gate(0.9).kraus[0]
        assert np.max(np.abs(u1 @ u2 - ms_gate(1.2).kraus[0])) <= 1e-12

    def test_unitary(self):
        u = ms_gate(1.1).kraus[0]
        assert np.max(np.abs(u @ u.conj().T - np.eye(4))) <= 1e-12


RHO0 = DensityMatrix.from_diagonal([6 / 25, 9 / 25, 4 / 25, 6 / 25], partition=(2, 2))


class TestLindbladPropagate:
    def test_unitary_limit(self):
        phi, tau = math.pi / 7, 50.0
        model = two_ion_model(phi / tau, 0.0, 0.0)
        out = lindblad_propagate(model, RHO0, tau, tau / 5000)
        expected = apply_channel(ms_gate(phi), RHO0)
        assert np.max(np.abs(out.data - expected.data)) <= 1e-8

    def test_unital_fixed_point(self):
        model = two_ion_model(math.pi / 7 / 50.0, 0.3, 0.3)
        mixed = DensityMatrix.maximally_mixed(4)
        out = lindblad_propagate(model, mixed, 50.0, 0.01)
        assert np.max(np.abs(out.data - mixed.data)) <= 1e-8

    def test_step_halving(self):
        phi, tau, gamma = math.pi / 7, 50.0, 0.2
        model = two_ion_model(phi / tau, gamma, gamma)
        coarse = lindblad_propagate(model, RHO0, tau, tau / 5000)
        fine = lindblad_propagate(model, RHO0, tau, tau / 10000)
        assert np.max(np.abs(coarse.data - fine.data)) <= 1e-8

    def test_info_reports_corrections(self):
        model = two_ion_model(0.01, 0.1, 0.1)
        _, info = lindblad_propagate(model, RHO0, 10.0, 0.01, return_info=True)
        assert info.trace_drift <= 1e-8
        assert info.hermiticity_defect <= 1e-10
        assert info.steps == 1000

    def test_rhs_matches_liouvillian(self, rng):
        model = two_ion_model(0.3, 0.4, 0.7)
        for _ in range(5):
            rho = random_density(4, rng).data
            direct = model.rhs(rho)
            via_vec = (model.liouvillian @ rho.reshape(-1)).reshape(4, 4)
            assert np.max(np.abs(direct - via_vec)) <= 1e-13

    def test_validates_steps(self):
        model = two_ion_model(0.01, 0.1, 0.1)
        with pytest.raises(ValueError):
            lindblad_propagate(model, RHO0, 1.0, 0.0)
        with pytest.raises(ValueError):
            lindblad_propagate(model, RHO0, -1.0, 0.1)

    def test_unstable_step_raises(self):
        model = two_ion_model(0.01, 1e6, 1e6)
        with pytest.raises(IntegratorAccuracyError):
            lindblad_propagate(model, RHO0, 50.0, 10.0)

    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError, match="nonnegative"):
            two_ion_model(0.1, -0.1, 0.1)

    @pytest.mark.parametrize(
        "gamma, dt",
        [(2.0, 10.0), (1e6, 0.01)],  # finite but trace-drifted; overflowed to NaN
        ids=["drifted", "overflowed"],
    )
    def test_unstable_endpoint_step_raises(self, gamma, dt):
        model = two_ion_model(0.01, gamma, gamma)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegratorAccuracyError, match="reduce dt"):
                kraus_from_lindblad_endpoint(model, 50.0, dt)

    def test_unstable_endpoint_fails_positivity(self):
        from entroprec import NonCompletelyPositiveError

        model = two_ion_model(0.01, 1.0, 1.0)
        with pytest.raises(NonCompletelyPositiveError):
            kraus_from_lindblad_endpoint(model, 50.0, 10.0)


class TestLindbladEndpoint:
    def test_zero_time_identity(self):
        model = two_ion_model(0.01, 0.1, 0.1)
        ch = kraus_from_lindblad_endpoint(model, 0.0, 0.01)
        assert len(ch.kraus) == 1
        assert np.max(np.abs(ch.kraus[0] - np.eye(4))) <= 1e-14

    def test_unitary_limit_up_to_phase(self):
        phi, tau = math.pi / 7, 50.0
        model = two_ion_model(phi / tau, 0.0, 0.0)
        ch = kraus_from_lindblad_endpoint(model, tau, tau / 5000)
        gate = ms_gate(phi)
        assert len(ch.kraus) == 1
        # compare channel action (phase-free) on matrix units
        for i in range(4):
            for j in range(4):
                basis = np.zeros((4, 4), dtype=complex)
                basis[i, j] = 1.0
                diff = ch.apply_matrix(basis) - gate.apply_matrix(basis)
                assert np.max(np.abs(diff)) <= 1e-8

    def test_cross_validates_against_propagation(self):
        phi, tau, gamma = math.pi / 7, 50.0, 0.2
        model = two_ion_model(phi / tau, gamma, gamma)
        ch = kraus_from_lindblad_endpoint(model, tau, tau / 5000)
        direct = lindblad_propagate(model, RHO0, tau, tau / 5000)
        via_kraus = apply_channel(ch, RHO0)
        assert np.max(np.abs(via_kraus.data - direct.data)) <= 1e-7

    def test_cptp_and_unital_defects(self):
        model = two_ion_model(5 * math.pi / 6 / 50.0, 1.2, 1.2)
        ch = kraus_from_lindblad_endpoint(model, 50.0, 0.01)
        assert ch.trace_defect <= 1e-8
        assert ch.unitality_defect <= 1e-8
        assert ch.is_unital

    def test_rk4_order_over_a_decade(self):
        # error vs dt on the dephasing model scales ~dt^4; measured in the
        # step range where discretisation error sits above the float64 floor
        phi, tau, gamma = 5 * math.pi / 6, 50.0, 0.2
        model = two_ion_model(phi / tau, gamma, gamma)
        exact = (expm(tau * model.liouvillian) @ RHO0.data.reshape(-1)).reshape(4, 4)
        errors = []
        for steps in (10, 50, 250):
            out = lindblad_propagate(model, RHO0, tau, tau / steps)
            errors.append(np.max(np.abs(out.data - exact)))
        for a, b in zip(errors, errors[1:]):
            ratio = a / b  # dt shrinks 5x, so dt^4 gives 625
            assert 125 <= ratio <= 3125


class TestChannelInvariants:
    def test_every_channel_trace_preserving(self, rng):
        for _ in range(20):
            ch = random_mixed_unitary_channel(4, rng)
            total = sum(e.conj().T @ e for e in ch.kraus)
            assert np.max(np.abs(total - np.eye(4))) <= 1e-10

    def test_dephasing_models_unital(self):
        for gamma in (0.0, 0.2, 1.2):
            model = two_ion_model(math.pi / 7 / 50.0, gamma, gamma)
            mixed = DensityMatrix.maximally_mixed(4)
            out = lindblad_propagate(model, mixed, 50.0, 0.01)
            assert np.max(np.abs(out.data - mixed.data)) <= 1e-8
