import math
import re
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from entroprec import (
    DensityMatrix,
    IntegratorAccuracyError,
    LindbladModel,
    NonCompletelyPositiveError,
    QuantumChannel,
    TimeReversal,
    apply_channel,
    kraus_from_lindblad_endpoints,
    lindblad_propagate,
    ms_gate,
    time_reversed,
)
from entroprec import channels
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


class TestChannelValidation:
    def test_kraus_is_one_read_only_stack(self):
        e = np.eye(2, dtype=complex)
        ch = QuantumChannel([e])
        assert ch.kraus.shape == (1, 2, 2) and ch.kraus.dtype == complex
        assert not ch.kraus.flags.writeable
        assert e.flags.writeable  # the caller's matrices are copied, not frozen
        for built in (QuantumChannel.identity(3), ms_gate(0.3), time_reversed(ms_gate(0.3))):
            assert built.kraus.ndim == 3 and not built.kraus.flags.writeable

    @pytest.mark.parametrize(
        "kraus, message",
        [
            ((), "at least one Kraus operator required"),
            ((np.eye(2), np.eye(3)), "Kraus operators must be square and share one dimension"),
            ((np.ones((2, 3)),), "Kraus operators must be square and share one dimension"),
            ((np.diag([1.0, 0.5]),), "channel not trace preserving: defect 7.500e-01"),
            ((np.full((2, 2), math.nan),), "Kraus operators must be finite"),
            ((np.diag([1.0, math.inf]),), "Kraus operators must be finite"),
        ],
    )
    def test_each_fault_keeps_its_message(self, kraus, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            QuantumChannel(kraus)

    def test_non_finite_gate_refused(self):
        with pytest.raises(ValueError, match="must be finite"):
            ms_gate(math.nan)

    def test_mixed_unitary_needs_one_weight_per_unitary(self):
        eye = np.eye(2, dtype=complex)
        for unitaries, weights in (([eye, PAULI_X, eye], [0.5, 0.5]), ([eye], [0.5, 0.5])):
            with pytest.raises(ValueError, match="one weight per unitary"):
                QuantumChannel.mixed_unitary(unitaries, weights)
        with pytest.raises(ValueError, match="probability vector"):
            QuantumChannel.mixed_unitary([eye, PAULI_X], [math.nan, 1.0])


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

    def test_shared_coupling_is_read_only(self):
        assert np.array_equal(channels.PAULI_XX, np.kron(PAULI_X, PAULI_X))
        assert not channels.PAULI_XX.flags.writeable

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

    @pytest.mark.parametrize(
        "tau, dt, message",
        [(-1.0, 0.01, "tau"), (50.0, 0.0, "dt"), (50.0, -0.01, "dt")],
        ids=["negative-tau", "zero-dt", "negative-dt"],
    )
    def test_endpoint_validates_steps(self, tau, dt, message):
        # before, the negative duration gave the identity channel and a zero
        # step a bare ZeroDivisionError
        model = two_ion_model(0.01, 0.1, 0.1)
        with pytest.raises(ValueError, match=f"{message} must be"):
            kraus_from_lindblad_endpoints((model,), tau, dt)
        with pytest.raises(ValueError, match=f"{message} must be"):
            lindblad_propagate(model, RHO0, tau, dt)

    def test_unstable_step_raises(self):
        model = two_ion_model(0.01, 1e6, 1e6)
        with pytest.raises(IntegratorAccuracyError):
            lindblad_propagate(model, RHO0, 50.0, 10.0)

    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError, match="nonnegative"):
            two_ion_model(0.1, -0.1, 0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_model(self, bad):
        with pytest.raises(ValueError, match="rates must be finite"):
            two_ion_model(0.1, bad, 0.1)
        with pytest.raises(ValueError, match="Hamiltonian must be finite"):
            LindbladModel(np.diag([bad, 0.0]), ())
        with pytest.raises(ValueError, match="jump operators and rates must be finite"):
            LindbladModel(np.zeros((2, 2)), ((np.diag([bad, 0.0]), 0.1),))

    UNSTABLE = pytest.mark.parametrize(
        "gamma, dt",
        [(2.0, 10.0), (1e6, 0.01)],  # integrated: finite but trace-drifted; overflowed to NaN
        ids=["drifted", "overflowed"],
    )

    @UNSTABLE
    def test_unstable_endpoint_step_raises(self, gamma, dt):
        model = two_ion_model(0.01, gamma, gamma)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegratorAccuracyError, match="reduce dt"):
                kraus_from_lindblad_endpoints((model,), 50.0, dt)

    @UNSTABLE
    def test_drift_guard_behind_the_stability_check(self, gamma, dt, monkeypatch):
        # the stability check refuses both steps first; the guard after the
        # integration still catches what gets past it
        monkeypatch.setattr(channels, "_check_rk4_stability", lambda *args: None)
        model = two_ion_model(0.01, gamma, gamma)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegratorAccuracyError, match="trace drift"):
                kraus_from_lindblad_endpoints((model,), 50.0, dt)

    def test_unstable_endpoint_fails_positivity(self):
        # two steps inside RK4's stability region that still leave a Choi
        # eigenvalue near -0.08: the coarse map is trace preserving but not
        # completely positive (steps outside the region are refused earlier)
        model = two_ion_model(1.0, 1.0, 1.0)
        with pytest.raises(NonCompletelyPositiveError):
            kraus_from_lindblad_endpoints((model,), 2.0, 1.0)


class TestLindbladEndpoint:
    def test_zero_time_identity(self):
        model = two_ion_model(0.01, 0.1, 0.1)
        (ch,) = kraus_from_lindblad_endpoints((model,), 0.0, 0.01)
        assert len(ch.kraus) == 1
        assert np.max(np.abs(ch.kraus[0] - np.eye(4))) <= 1e-14

    def test_unitary_limit_up_to_phase(self):
        phi, tau = math.pi / 7, 50.0
        model = two_ion_model(phi / tau, 0.0, 0.0)
        (ch,) = kraus_from_lindblad_endpoints((model,), tau, tau / 5000)
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
        (ch,) = kraus_from_lindblad_endpoints((model,), tau, tau / 5000)
        direct = lindblad_propagate(model, RHO0, tau, tau / 5000)
        via_kraus = apply_channel(ch, RHO0)
        assert np.max(np.abs(via_kraus.data - direct.data)) <= 1e-7

    def test_cptp_and_unital_defects(self):
        model = two_ion_model(5 * math.pi / 6 / 50.0, 1.2, 1.2)
        (ch,) = kraus_from_lindblad_endpoints((model,), 50.0, 0.01)
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


@pytest.fixture
def count_steps(monkeypatch):
    """The number of RK4 steps taken while the test runs: one entry per call
    of the stepper that every integration runs, dense or on blocks."""
    calls = []
    original = channels._rk4_step

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(channels, "_rk4_step", counted)
    return calls


def assert_blocks_match_dense(gen, tau, dt=0.01):
    """The identity propagated on the blocks of ``gen`` and densely, byte for
    byte equal; returns the endpoint."""
    dense, _ = channels._rk4_evolve(gen, np.eye(gen.shape[-1], dtype=complex), tau, dt)
    (blocked,) = channels._block_endpoints(gen[None], tau, dt)
    assert blocked.tobytes() == dense.tobytes()
    return blocked


def textbook_rk4(gen, y, tau, dt):
    """RK4 with temporaries, the reference for the in-place stepper."""
    steps = [dt] * int(tau / dt + 1e-9)
    if tau - len(steps) * dt > 1e-9 * max(dt, 1.0):
        steps.append(tau - len(steps) * dt)
    for h in steps:
        k1 = gen @ y
        k2 = gen @ (y + 0.5 * h * k1)
        k3 = gen @ (y + 0.5 * h * k2)
        k4 = gen @ (y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def blocks_of(*gens):
    return [list(b) for b in channels._invariant_blocks(np.stack(gens))]


@pytest.mark.parametrize("dtype", [complex, np.clongdouble])
def test_in_place_step_is_the_textbook_expression(dtype):
    gen = two_ion_model(0.05, 0.2, 0.3).liouvillian.astype(dtype)
    for y0 in (RHO0.data.reshape(-1), np.eye(16)):
        y0 = y0.astype(dtype)
        expected = textbook_rk4(gen, y0, 1.004, 0.01)
        out, steps = channels._rk4_evolve(gen, y0, 1.004, 0.01)
        assert steps == 101 and out.dtype == expected.dtype
        # compared part by part: a clongdouble's padding bytes are arbitrary
        parts = lambda a: a.view(a.real.dtype)
        assert np.array_equal(parts(out), parts(expected))
        assert np.array_equal(np.signbit(parts(out)), np.signbit(parts(expected)))


class TestInvariantBlocks:
    """Each generator's blocks, and its endpoint integrated on them equal to
    the dense integration byte for byte."""

    def test_dense_generator_is_one_block(self, rng):
        h = random_density(4, rng).data  # Hermitian, every entry nonzero
        gen = LindbladModel(h, ()).liouvillian
        assert blocks_of(gen) == [list(range(16))]
        assert_blocks_match_dense(gen, 1.0)

    def test_blocks_of_unequal_size(self):
        # a qutrit whose levels 0 and 1 are coupled and level 2 dephased:
        # Liouville index 3 i + j of |i><j| splits as {i, j < 2}, {i < 2 = j},
        # {j < 2 = i} and {|2><2|}
        h = 0.3 * np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex)
        gen = LindbladModel(h, ((np.diag([0.0, 0.0, 1.0]), 0.4),)).liouvillian
        assert blocks_of(gen) == [[0, 1, 3, 4], [2, 5], [6, 7], [8]]
        for tau in (1.0, 1.004):
            assert_blocks_match_dense(gen, tau)

    def test_all_zero_generator_is_all_singletons(self):
        gen = two_ion_model(0.0, 0.0, 0.0).liouvillian
        assert blocks_of(gen) == [[i] for i in range(16)]
        assert np.array_equal(assert_blocks_match_dense(gen, 1.0), np.eye(16))

    def test_two_ion_blocks_and_their_union(self):
        # X (x) X couples |00>,|11> and |01>,|10>: four blocks of four; a
        # stack is split by the union of its patterns
        coupled = two_ion_model(0.05, 0.2, 0.2).liouvillian
        four = [[0, 3, 12, 15], [1, 2, 13, 14], [4, 7, 8, 11], [5, 6, 9, 10]]
        assert blocks_of(coupled) == four
        diagonal = two_ion_model(0.0, 0.2, 0.2).liouvillian
        assert len(blocks_of(diagonal)) == 16
        assert blocks_of(diagonal, coupled) == four


class TestBatchedEndpoint:
    @pytest.mark.parametrize("tau", [5.0, 5.004], ids=["whole-steps", "remainder-step"])
    def test_stacked_matches_single(self, rng, tau):
        phis = np.concatenate([[0.0, math.pi / 7], rng.uniform(0.0, 2 * math.pi, 4)])
        gammas = np.concatenate([[0.0, 0.0], rng.uniform(0.0, 1.2, 4)])
        models = [two_ion_model(phi / tau, g, g) for phi, g in zip(phis, gammas)]
        batch = kraus_from_lindblad_endpoints(models, tau, 0.01)
        assert len(batch) == len(models)
        for model, stacked in zip(models, batch):
            (single,) = kraus_from_lindblad_endpoints((model,), tau, 0.01)
            assert len(stacked.kraus) == len(single.kraus)
            for a, b in zip(stacked.kraus, single.kraus):
                assert np.array_equal(a, b)

    def test_64_map_batch_matches_each_map_alone(self, rng):
        phis = rng.uniform(0.0, 2 * math.pi, 64)
        gammas = np.concatenate([[0.0], rng.uniform(0.0, 1.2, 63)])
        models = [two_ion_model(phi, g, g) for phi, g in zip(phis, gammas)]
        batch = kraus_from_lindblad_endpoints(models, 1.0, 0.01)
        for model, stacked in zip(models, batch):
            (single,) = kraus_from_lindblad_endpoints((model,), 1.0, 0.01)
            assert [e.tobytes() for e in stacked.kraus] == [e.tobytes() for e in single.kraus]

    def test_empty_zero_time_and_dimensions(self):
        assert kraus_from_lindblad_endpoints([], 50.0, 0.01) == ()
        models = [two_ion_model(0.01, g, g) for g in (0.1, 0.2)]
        for ch in kraus_from_lindblad_endpoints(models, 0.0, 0.01):
            assert np.array_equal(ch.kraus[0], np.eye(4))
        qubit = LindbladModel(np.zeros((2, 2)), ())
        with pytest.raises(ValueError, match="share one dimension"):
            kraus_from_lindblad_endpoints([models[0], qubit], 1.0, 0.01)

    def test_unstable_step_takes_no_step(self, count_steps):
        model = two_ion_model(0.01, 1e6, 1e6)
        with pytest.raises(IntegratorAccuracyError, match="stability region"):
            kraus_from_lindblad_endpoints((model,), 50.0, 0.01)
        with pytest.raises(IntegratorAccuracyError, match="stability region"):
            lindblad_propagate(model, RHO0, 50.0, 0.01)
        assert count_steps == []
        stable = two_ion_model(0.01, 1.0, 1.0)
        kraus_from_lindblad_endpoints((stable,), 0.5, 0.01)
        assert len(count_steps) == 50
        lindblad_propagate(stable, RHO0, 0.5, 0.01)
        assert len(count_steps) == 100

    def test_unstable_model_in_a_batch_is_named(self, count_steps):
        models = [two_ion_model(0.01, g, g) for g in (0.2, 1.0, 1e6)]
        with pytest.raises(IntegratorAccuracyError) as err:
            kraus_from_lindblad_endpoints(models, 50.0, 0.01)
        assert err.value.index == 2
        assert count_steps == []
        kraus_from_lindblad_endpoints(models[:2], 0.505, 0.01)  # on blocks
        assert len(count_steps) == 51

    def test_coarse_step_refused_before_positivity(self, count_steps):
        # h lambda = -20 on the fastest coherence: RK4 would amplify it
        # 5514-fold per step, so the map is refused before the Choi check
        with pytest.raises(IntegratorAccuracyError, match="5514.33"):
            kraus_from_lindblad_endpoints((two_ion_model(0.01, 1.0, 1.0),), 50.0, 10.0)
        assert count_steps == []
        kraus_from_lindblad_endpoints((two_ion_model(0.01, 1.0, 1.0),), 50.0, 1.0)
        assert len(count_steps) == 50

    def test_stability_boundary(self):
        # RK4 is stable on the negative real axis down to about -2.785 and on
        # the imaginary axis up to 2 sqrt(2); the fastest dephasing rate is
        # 2 gamma and the eigenvalues of -i[H, .] reach 2 omega
        def stable(omega, gamma, dt):
            gen = two_ion_model(omega, gamma, gamma).liouvillian
            try:
                channels._check_rk4_stability(gen, 10.0, dt)
            except IntegratorAccuracyError:
                return False
            return True

        assert stable(0.0, 1.0, 2.78 / 2) and not stable(0.0, 1.0, 2.79 / 2)
        assert stable(1.0, 0.0, 2.8 / 2) and not stable(1.0, 0.0, 2.9 / 2)


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
