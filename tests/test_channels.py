import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from entroprec import (
    DensityMatrix,
    EntropyDistribution,
    IntegratorAccuracyError,
    JointOutcomeTable,
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
from entroprec.experiments import PRESETS, TwoIonConfig, two_ion_model
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

    def test_trace_drift_beyond_budget_refused(self):
        # sum E^dag E = I + eps * (all ones) keeps every entry within a 1e-3
        # budget, but takes |+><+| to trace 1 + 2 eps; its row sums, 2 eps,
        # exceed the budget, so the channel is refused before it applies
        with pytest.raises(ValueError, match="channel not trace preserving: defect 1.800e-03"):
            QuantumChannel(ones_defect_kraus(9e-4), tp_tol=1e-3)

    @pytest.mark.parametrize("dim", [2, 4])
    def test_channel_inside_its_bound_applies_to_every_state(self, rng, dim):
        # sum E^dag E = I + D, D Hermitian with largest absolute row sum just
        # inside tp_tol: the trace moves by Tr[D rho], at most lambda_max(D)
        # (reached on D's top eigenvector), which that row sum bounds
        if dim == 2:
            defect = np.ones((2, 2))  # lambda_max equals the row sum
        else:
            z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            defect = z + z.conj().T
        defect *= 0.999e-3 / np.max(np.sum(np.abs(defect), axis=1))
        values, vectors = np.linalg.eigh(np.eye(dim) + defect)
        channel = QuantumChannel([(vectors * np.sqrt(values)) @ vectors.conj().T], tp_tol=1e-3)
        assert 0.99e-3 < channel.trace_defect <= 1e-3
        top = DensityMatrix.pure(vectors[:, -1])
        for rho in [top] + [random_density(dim, rng) for _ in range(20)]:
            apply_channel(channel, rho)


def ones_defect_kraus(eps):
    """One qubit Kraus operator E with E^dag E = I + eps * (all ones)."""
    plus, minus = np.array([1.0, 1.0]) / math.sqrt(2), np.array([1.0, -1.0]) / math.sqrt(2)
    kraus = np.outer(minus, minus) + math.sqrt(1 + 2 * eps) * np.outer(plus, plus)
    return kraus[None].astype(complex)


def drifted_application(monkeypatch):
    # validated within 1e-2, then held to a 1e-3 budget: a validated channel
    # reaches this guard through rounding only
    channel = QuantumChannel(ones_defect_kraus(9e-4), tp_tol=1e-2)
    object.__setattr__(channel, "tp_tol", 1e-3)
    apply_channel(channel, DensityMatrix.pure(np.array([1.0, 1.0])))


def drifted_propagation(monkeypatch):
    # a step outside RK4's stability region, let past the check before it
    monkeypatch.setattr(channels, "_check_rk4_stability", lambda *args: None)
    lindblad_propagate(two_ion_model(0.01, 2.0, 2.0), RHO0, 50.0, 10.0)


@pytest.mark.parametrize(
    "refused, message",
    [
        (lambda _: DensityMatrix(0.6 * np.eye(2)), "trace must be 1, got 1.2"),
        (
            lambda _: JointOutcomeTable(np.full((2, 2), 0.3), np.full(2, 0.5), np.full(2, 0.5)),
            "joint table sums to 1.2",
        ),
        (
            lambda _: EntropyDistribution(np.array([0.0, 1.0]), np.array([0.5, 0.6])),
            "probabilities sum to 1.1",
        ),
        (drifted_application, "trace drifted to 1.001"),
        (drifted_propagation, "trace drift [0-9]"),
    ],
    ids=["density-trace", "table-sum", "distribution-sum", "channel-drift", "propagation-drift"],
)
def test_refusals_print_bare_numbers(refused, message, monkeypatch):
    # numpy 2 prints a numpy scalar's repr as np.float64(...)
    with pytest.raises((ValueError, IntegratorAccuracyError)) as caught:
        refused(monkeypatch)
    assert re.search(message, str(caught.value)) and "np." not in str(caught.value)


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
        # an infinite phase used to warn twice (cos and sin) before the refusal
        for phi in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="must be finite"):
                ms_gate(phi)

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


def loop_defects(kraus) -> tuple[float, float]:
    """The trace and unitality defects of one Kraus set, one product at a
    time: the largest absolute row sum of sum E^dag E - I and of
    sum E E^dag - I, each sum over operators in order from the first."""
    ops = np.array(kraus, dtype=complex)
    eye = np.eye(ops.shape[1])
    trace, unital = ops[0].conj().T @ ops[0], ops[0] @ ops[0].conj().T
    for e in ops[1:]:
        trace, unital = trace + e.conj().T @ e, unital + e @ e.conj().T
    return tuple(float(np.max(np.sum(np.abs(g - eye), axis=-1))) for g in (trace, unital))


def same_channel(a: QuantumChannel, b: QuantumChannel) -> bool:
    return (a.kraus.tobytes(), a.kraus.shape, a.trace_defect, a.unitality_defect, a.tp_tol,
            a.unital_tol) == (b.kraus.tobytes(), b.kraus.shape, b.trace_defect,
                              b.unitality_defect, b.tp_tol, b.unital_tol)


def outcome(build):
    """What ``build()`` returns, or the type and message of its ValueError."""
    try:
        return build()
    except ValueError as err:
        return type(err), str(err)


@st.composite
def kraus_batches(draw) -> list[np.ndarray]:
    """1-6 Kraus sets of dimension 2-6 with 1-4 operators, shapes mixed in
    one batch: the blocks of a random isometry, one in twelve scaled by
    1 + 1e-9 (refused at the default tolerance), one by 1.1 and one given a
    non-finite entry."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    batch = []
    for _ in range(draw(st.integers(1, 6))):
        d, n = draw(st.integers(2, 6)), draw(st.integers(1, 4))
        z = rng.standard_normal((n * d, d)) + 1j * rng.standard_normal((n * d, d))
        kraus = np.linalg.qr(z)[0].reshape(n, d, d)
        fault = draw(st.integers(0, 11))
        if fault < 2:
            kraus *= (1 + 1e-9, 1.1)[fault]
        elif fault == 2:
            kraus[-1, 0, -1] = draw(st.sampled_from([math.nan, math.inf]))
        batch.append(kraus)
    return batch


class TestChannelStacks:
    """The gates, reversals and endpoint maps of a sweep are built and
    checked as stacks; each channel has the bits of its lone build."""

    def test_gates_match_lone_builds(self, rng):
        phis = [0.0, -0.0, math.pi / 2, *rng.uniform(0, 2 * math.pi, 20)]
        gates = ms_gate(phis)
        assert isinstance(gates, list) and len(gates) == len(phis)
        assert isinstance(ms_gate(tuple(phis[:2])), list) and ms_gate([]) == []
        for phi, gate in zip(phis, gates):
            assert same_channel(gate, ms_gate(phi))
            assert (gate.trace_defect, gate.unitality_defect) == loop_defects(gate.kraus)
            assert gate.kraus.shape == (1, 4, 4) and not gate.kraus.flags.writeable

    def test_reversals_match_lone_builds(self, rng):
        # Kraus shapes and tolerances mixed in one list
        chans = [random_mixed_unitary_channel(d, rng) for d in (2, 3, 3, 4, 2)]
        chans += ms_gate([0.4, 1.3]) + list(kraus_from_lindblad_endpoints(
            [two_ion_model(0.2, g, g) for g in (0.0, 0.5)], 0.5, 0.01))
        qubits = [c for c in chans if c.dim == 2]  # a basis acts on one dimension
        for theta, listed in ((TimeReversal(), chans), (TimeReversal(random_unitary(2, rng)), qubits)):
            for channel, rev in zip(listed, time_reversed(tuple(listed), theta)):
                assert same_channel(rev, time_reversed(channel, theta))
                assert (rev.trace_defect, rev.unitality_defect) == loop_defects(rev.kraus)

    @settings(max_examples=80)
    @given(kraus_batches())
    def test_checked_stack_matches_lone_constructor(self, batch):
        # the defects against the loop above, byte for byte; a batch fails
        # on its first bad set with that set's own message
        lone = [outcome(lambda k=k: QuantumChannel(k)) for k in batch]
        first_fault = next((o for o in lone if not isinstance(o, QuantumChannel)), None)
        stacked = outcome(lambda: channels._checked_channels(
            [np.array(k) for k in batch], [channels.TP_TOL] * len(batch),
            [channels.UNITAL_TOL] * len(batch)))
        if first_fault is not None:
            assert stacked == first_fault
            return
        for single, channel, kraus in zip(lone, stacked, batch):
            assert same_channel(channel, single)
            assert (channel.trace_defect, channel.unitality_defect) == loop_defects(kraus)

    @pytest.mark.parametrize("at", [0, 2])
    def test_first_bad_set_is_refused_with_its_lone_message(self, at):
        good = ms_gate(0.3).kraus
        non_finite = np.diag([1.0, math.inf, 1.0, 1.0])[None].astype(complex)
        non_tp = np.diag([1.0, 0.5, 1.0, 1.0])[None].astype(complex)
        for first, second in ((non_finite, non_tp), (non_tp, non_finite)):
            batch = [good] * 4
            batch[at], batch[3] = first, second
            with pytest.raises(ValueError) as lone:
                QuantumChannel(first)
            with pytest.raises(ValueError, match=f"^{re.escape(str(lone.value))}$"):
                channels._checked_channels(batch, [channels.TP_TOL] * 4, [channels.UNITAL_TOL] * 4)
        with pytest.raises(ValueError, match="^Kraus operators must be finite$"):
            ms_gate([0.1, 0.2, 0.3][:at] + [math.nan, math.inf])
        damping = QuantumChannel(
            (np.diag([1.0, math.sqrt(0.5)]), np.array([[0.0, math.sqrt(0.5)], [0.0, 0.0]]))
        )
        unital = [QuantumChannel.identity(2)] * 3
        unital.insert(at, damping)
        with pytest.raises(ValueError, match="^time reversal is only supported for unital"):
            time_reversed(unital)

    def test_endpoint_maps_of_mixed_rank_in_one_stack(self, rng):
        # Choi ranks 1, 2 and 3 interleaved in one eigh
        endpoints, ranks = [], [2, 1, 3, 2, 1]
        for n in ranks:
            weights = rng.dirichlet(np.ones(n))
            ops = QuantumChannel.mixed_unitary([random_unitary(3, rng) for _ in range(n)],
                                               weights).kraus
            endpoints.append(sum(np.kron(e, e.conj()) for e in ops))
        batch = channels._endpoint_channels(np.stack(endpoints), 3)
        for endpoint, channel, n in zip(endpoints, batch, ranks):
            assert len(channel.kraus) == n
            assert same_channel(channel, channels._endpoint_channels(endpoint[None], 3)[0])

    def test_zero_time_maps_are_one_stack(self):
        maps = kraus_from_lindblad_endpoints([two_ion_model(0.1, g, g) for g in (0.0, 0.3)], 0, 0.01)
        for channel in maps:
            assert same_channel(channel, QuantumChannel.identity(4))


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

    def test_state_dimension_checked(self):
        model = two_ion_model(0.01, 0.1, 0.1)
        with pytest.raises(ValueError, match="dimensions differ"):
            lindblad_propagate(model, DensityMatrix.maximally_mixed(2), 1.0, 0.1)

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
            with pytest.raises(IntegratorAccuracyError, match="reduce the rates or the time step"):
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


@pytest.fixture
def integrated_blocks(monkeypatch):
    """The number of blocks in each stack that an RK4 integration advances
    while the test runs."""
    counts = []
    original = channels._rk4_integrate

    def spy(apply, y, tau, dt):
        counts.append(len(y))
        return original(apply, y, tau, dt)

    monkeypatch.setattr(channels, "_rk4_integrate", spy)
    return counts


@st.composite
def dephasing_batches(draw) -> list[LindbladModel]:
    """1-6 models of one dimension 2-4, each a real symmetric Hamiltonian
    and a dephasing projector on every level. Entries and rates come from
    small sets, so blocks repeat within and across models, and also differ."""
    d = draw(st.integers(2, 4))
    entries, rates = st.sampled_from([0.0, 0.3, -0.7]), st.sampled_from([0.0, 0.1, 0.4])

    def model():
        h = np.zeros((d, d))
        for i, j in zip(*np.triu_indices(d)):
            h[i, j] = h[j, i] = draw(entries)
        return LindbladModel(h, tuple((np.diag(level), draw(rates)) for level in np.eye(d)))

    return [model() for _ in range(draw(st.integers(1, 6)))]


class TestDistinctBlocks:
    """Each distinct block is integrated once, and a map does not depend on
    the batch it is built in."""

    def test_fig5_gamma_batch_integrates_two_blocks_per_model(self, integrated_blocks):
        # the X (x) X coupling pairs the four blocks of each model; without
        # dephasing all four are equal
        fig5 = PRESETS["fig5"]
        models = [two_ion_model(fig5.phi / fig5.tau, g, g) for g in (0.2, 0.7, 1.2, 0.0)]
        kraus_from_lindblad_endpoints(models, 0.5, 0.01)
        assert integrated_blocks == [2 * 3 + 1]

    def test_unequal_rates(self, integrated_blocks):
        # the pairs survive unequal rates; uncoupled, the 16 singletons take
        # four values
        for omega, blocks in ((0.05, 2), (0.0, 4)):
            kraus_from_lindblad_endpoints([two_ion_model(omega, 0.2, 0.3)], 0.5, 0.01)
            assert integrated_blocks.pop() == blocks

    def test_blocks_apart_by_the_sign_of_a_zero_are_both_integrated(self, integrated_blocks):
        # blocks {0, 1} and {2, 3}, equal but for the sign of their first entry
        block = np.array([[0.0, 0.5], [0.5, -0.2]], dtype=complex)
        gen = np.zeros((4, 4), dtype=complex)
        gen[:2, :2] = gen[2:, 2:] = block
        (same,) = channels._block_endpoints(gen[None], 0.5, 0.01)
        gen[2, 2] = -0.0
        (signed,) = channels._block_endpoints(gen[None], 0.5, 0.01)
        assert integrated_blocks == [1, 2]
        assert np.array_equal(same, signed)

    def test_equal_blocks_apart_at_unequal_padding(self, rng, integrated_blocks):
        # the 2 x 2 block x sits beside a 3 x 3 block in one generator and
        # beside 2 x 2 ones in the other; each copy is padded to its own
        # generator's largest block, so the batch integrates it twice and
        # gives the second generator the bits it gets alone
        x, y, z = (0.3 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
                   for n in (2, 2, 3))
        first, second = np.zeros((2, 6, 6), dtype=complex)
        first[:3, :3], first[3:5, 3:5], first[5, 5] = z, x, -0.1
        second[:2, :2], second[2:4, 2:4], second[4:, 4:] = x, y, x
        batch = channels._block_endpoints(np.stack([first, second]), 0.5, 0.01)
        assert integrated_blocks == [3, 2]
        for gen, endpoint in zip((first, second), batch):
            assert endpoint.tobytes() == channels._block_endpoints(gen[None], 0.5, 0.01).tobytes()

    @settings(max_examples=60)
    @given(dephasing_batches())
    def test_batch_matches_lone_builds_and_dense(self, models):
        # byte for byte: every endpoint and Kraus set of a batch equals the
        # model's lone build. To rounding: the dense integration, since BLAS
        # need not sum a product entry in index order for every shape
        # (OpenBLAS does not for some drawn qutrit and ququart generators);
        # byte equality with it is tested on fixed generators in
        # TestInvariantBlocks.
        tau, dt = 0.205, 0.01
        gens = np.stack([m.liouvillian for m in models])
        endpoints = channels._block_endpoints(gens, tau, dt)
        batch = kraus_from_lindblad_endpoints(models, tau, dt)
        for model, gen, endpoint, stacked in zip(models, gens, endpoints, batch):
            assert endpoint.tobytes() == channels._block_endpoints(gen[None], tau, dt).tobytes()
            (single,) = kraus_from_lindblad_endpoints([model], tau, dt)
            assert stacked.kraus.tobytes() == single.kraus.tobytes()
            dense, _ = channels._rk4_evolve(gen, np.eye(len(gen), dtype=complex), tau, dt)
            assert np.max(np.abs(endpoint - dense)) <= 1e-14


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

    def test_overflowing_generator_or_growth_is_named(self, count_steps):
        # a rate of 1e308 overflows the generator, one of 1e300 the growth
        # factor; neither warns (error::RuntimeWarning), each is refused
        models = [two_ion_model(0.01, g, g) for g in (0.2, 1e308, 1e300)]
        with pytest.raises(IntegratorAccuracyError, match="not finite") as err:
            kraus_from_lindblad_endpoints(models, 50.0, 0.01)
        assert err.value.index == 1
        with pytest.raises(IntegratorAccuracyError, match="not finite"):
            lindblad_propagate(models[1], RHO0, 50.0, 0.01)
        overflowed = re.escape("(growth factor overflows float64)")
        with pytest.raises(IntegratorAccuracyError, match=overflowed) as err:
            kraus_from_lindblad_endpoints(models[::2], 50.0, 0.01)
        assert err.value.index == 1
        assert count_steps == []

    def test_step_count_beyond_float64_refused_first(self, count_steps, monkeypatch):
        # a count float64 cannot hold is refused before the generator is
        # checked or any step is taken, by every entry point that integrates
        def refuse(*args):
            raise AssertionError("generator checked")

        monkeypatch.setattr(channels, "_check_rk4_stability", refuse)
        model = two_ion_model(1e-300, 0.0, 0.0)
        refused = re.escape("tau=1e+300 and dt=1.0 make 1e+300 steps, more than 2**53")
        with pytest.raises(ValueError, match=refused):
            kraus_from_lindblad_endpoints([model], 1e300, 1.0)
        with pytest.raises(ValueError, match=refused):
            lindblad_propagate(model, RHO0, 1e300, 1.0)
        with pytest.raises(ValueError, match=refused):
            TwoIonConfig(phi=0.1, tau=1e300, dt=1.0, dynamics="lindblad")
        assert count_steps == []
        channels._validate_step(2.0**53, 1.0)  # the largest count accepted
        with pytest.raises(ValueError, match="more than 2"):
            channels._validate_step(2.0**53, 1.0 - 2**-53)

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
