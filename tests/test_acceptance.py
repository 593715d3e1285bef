"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line so the suite output doubles as the
acceptance report."""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from entroprec import (
    DensityMatrix,
    Observable,
    QuantumChannel,
    TwoTimeProtocol,
    bipartite_distributions,
    char_function,
    chebyshev_nodes,
    convolve_distributions,
    crooks_check,
    ift_deviation,
    moment_generating,
    moments_via_newton,
    moments_via_vandermonde,
    ms_gate,
    pseudoinverse_reconstruct,
    rmse_probs,
    second_law_report,
    tensor_product,
    conditional_equality_deviation,
    entropy_bound_check,
)
from entroprec import core, reconstruct
from entroprec.channels import _rk4_evolve
from entroprec.charfunc import SUBSYSTEMS, _initial_state, _powered_state, _powers
from entroprec.experiments import (
    PHI_MIN,
    PHI_MAX,
    PRESETS,
    build_protocol,
    preset,
    reconstruct_subsystem,
    run_config,
    sweep_gamma,
    two_ion_model,
)
from entroprec.protocol import _dephase
from entroprec.reconstruct import _solve_factored, divided_differences
from conftest import random_density, random_mixed_unitary_channel, random_observable, random_unitary

UNITARY_PRESETS = ("fig3", "fig6")
LINDBLAD_PRESETS = ("fig4", "fig5", "fig9", "fig10")


def report(index: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {index:2d} | {name} | {status} | {detail}")


def random_protocol(rng, dim=4):
    return TwoTimeProtocol(
        rho0=random_density(dim, rng),
        obs_in=random_observable(dim, rng),
        obs_fin=random_observable(dim, rng),
        channel=random_mixed_unitary_channel(dim, rng),
    )


def test_criterion_1_conditional_equality(rng):
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        worst = max(worst, conditional_equality_deviation(random_protocol(rng)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    report(1, "conditional-equality-random-channels", ok, f"max_dev={worst:.2e} runtime={elapsed:.1f}s")
    assert worst <= 1e-10
    assert elapsed < 10.0


def test_criterion_2_integral_fluctuation_theorem():
    start = time.perf_counter()
    devs = {}
    for name in UNITARY_PRESETS + LINDBLAD_PRESETS:
        proto = build_protocol(preset(name))
        _, _, dist_ab, _ = bipartite_distributions(proto)
        devs[name] = ift_deviation(dist_ab)
    elapsed = time.perf_counter() - start
    unitary_worst = max(devs[n] for n in UNITARY_PRESETS)
    lindblad_worst = max(devs[n] for n in LINDBLAD_PRESETS)
    ok = unitary_worst <= 1e-10 and lindblad_worst <= 1e-7 and elapsed < 5.0
    report(
        2,
        "integral-fluctuation-theorem",
        ok,
        f"unitary={unitary_worst:.2e} lindblad={lindblad_worst:.2e} runtime={elapsed:.1f}s",
    )
    assert unitary_worst <= 1e-10
    assert lindblad_worst <= 1e-7
    assert elapsed < 5.0


def test_criterion_3_entropy_bound_chain(rng):
    worst_low, worst_high = 0.0, 0.0
    protos = [build_protocol(preset(name)) for name in PRESETS]
    protos += [random_protocol(rng) for _ in range(50)]
    for proto in protos:
        result = entropy_bound_check(proto)
        worst_low = min(worst_low, result.relative_entropy)
        worst_high = max(worst_high, result.relative_entropy - result.mean_sigma)
        assert result.passed
    # final measurement in the eigenbasis of the evolved state
    channel = ms_gate(math.pi / 7)
    comp4 = Observable.computational(4)
    rho0 = DensityMatrix.from_diagonal([6 / 25, 9 / 25, 4 / 25, 6 / 25], partition=(2, 2))
    rho_fin = channel.apply_matrix(_dephase(comp4.projectors, rho0.data))
    special = entropy_bound_check(TwoTimeProtocol(rho0, comp4, Observable.from_matrix(rho_fin), channel))
    from entroprec import von_neumann_entropy

    rho_in = _dephase(comp4.projectors, rho0.data)
    sigma_expected = von_neumann_entropy(rho_fin) - von_neumann_entropy(rho_in)
    special_ok = (
        special.relative_entropy <= 1e-10
        and abs(special.mean_sigma - sigma_expected) <= 1e-10
    )
    ok = worst_low >= -1e-10 and worst_high <= 1e-10 and special_ok
    report(
        3,
        "relative-entropy-bound-chain",
        ok,
        f"min_s_rel={worst_low:.2e} max_excess={worst_high:.2e} eigenbasis_ok={special_ok}",
    )
    assert ok


def test_criterion_4_crooks_relation():
    dev_exact = crooks_check(build_protocol(preset("fig3")))
    dev_integrated = crooks_check(build_protocol(preset("fig4")))
    ok = dev_exact <= 1e-10 and dev_integrated <= 1e-7
    report(4, "crooks-relation", ok, f"exact={dev_exact:.2e} integrated={dev_integrated:.2e}")
    assert dev_exact <= 1e-10
    assert dev_integrated <= 1e-7


def test_criterion_5_subadditivity(rng):
    worst_gap = math.inf
    for name in PRESETS:
        dist_a, dist_b, dist_ab, _ = bipartite_distributions(build_protocol(preset(name)))
        gap = dist_a.moment(1) + dist_b.moment(1) - dist_ab.moment(1)
        worst_gap = min(worst_gap, gap)
    # local unitaries preserve the product structure: strict additivity
    rho0 = DensityMatrix.from_diagonal([6 / 25, 9 / 25, 4 / 25, 6 / 25], partition=(2, 2))
    qubit = Observable.computational(2)
    u = tensor_product(random_unitary(2, rng), random_unitary(2, rng))
    local = TwoTimeProtocol.bipartite(rho0, qubit, qubit, qubit, qubit, QuantumChannel.unitary(u))
    dist_a, dist_b, dist_ab, _ = bipartite_distributions(local)
    equality_gap = abs(dist_a.moment(1) + dist_b.moment(1) - dist_ab.moment(1))
    ok = worst_gap >= -1e-10 and equality_gap <= 1e-12
    report(
        5,
        "mean-entropy-subadditivity",
        ok,
        f"min_gap={worst_gap:.2e} local_unitary_gap={equality_gap:.2e}",
    )
    assert worst_gap >= -1e-10
    assert equality_gap <= 1e-12


@pytest.mark.filterwarnings("ignore::entroprec.reconstruct.InfeasibleRecoveryWarning")
def test_criterion_6_reconstruction_fidelity():
    start = time.perf_counter()
    proto = build_protocol(preset("fig3"))
    dist_a, dist_b, _, dist_conv = bipartite_distributions(proto)
    dists = {"A": dist_a, "B": dist_b}

    def reconstruct_conv(n):
        rec_a = reconstruct_subsystem(proto, "A", dists["A"], n)
        rec_b = reconstruct_subsystem(proto, "B", dists["B"], n)
        conv = convolve_distributions(rec_a.dist, rec_b.dist)
        r_probs = rmse_probs(dist_conv, conv)
        k = 4
        r_moments = float(
            np.sqrt(np.mean((dist_conv.moments(k) - conv.moments(k)) ** 2))
        )
        return r_probs, r_moments

    probs_10, moments_10 = reconstruct_conv(10)
    curve_probs, curve_moments = [], []
    for n in range(2, 17):
        r_probs, r_moments = reconstruct_conv(n)
        curve_probs.append(r_probs)
        curve_moments.append(r_moments)
    elapsed = time.perf_counter() - start

    def nonincreasing_beyond_6(curve):
        values = curve[5:]  # N = 7..16 compared to the previous N
        prev = curve[4]
        for value in values:
            if value > prev + 1e-9:
                return False
            prev = value
        return True

    mono_ok = nonincreasing_beyond_6(curve_probs) and nonincreasing_beyond_6(curve_moments)
    ok = probs_10 <= 1e-6 and moments_10 <= 1e-6 and mono_ok and elapsed < 30.0
    report(
        6,
        "reconstruction-fidelity",
        ok,
        f"rmse_probs(N=10)={probs_10:.2e} rmse_moments(N=10)={moments_10:.2e} "
        f"monotone={mono_ok} runtime={elapsed:.1f}s",
    )
    assert probs_10 <= 1e-6
    assert moments_10 <= 1e-6
    assert mono_ok
    assert elapsed < 30.0


def test_criterion_7_moment_path_equivalence():
    worst_mutual, worst_brute = 0.0, 0.0
    for name in PRESETS:
        cfg = preset(name)
        proto = build_protocol(cfg)
        dist_a, dist_b, dist_ab, _ = bipartite_distributions(proto)
        dists = {"A": dist_a, "B": dist_b, "A-B": dist_ab}
        grid = chebyshev_nodes(cfg.n_moments, PHI_MIN, PHI_MAX)
        for label, dist in dists.items():
            chi = np.array([moment_generating(proto, label, float(x)) for x in grid.nodes])
            mv = moments_via_vandermonde(grid, chi)
            mn = moments_via_newton(grid, chi)
            worst_mutual = max(worst_mutual, float(np.max(np.abs(mv.moments - mn.moments))))
            brute = dist.moments(4)
            worst_brute = max(
                worst_brute,
                float(np.max(np.abs(mv.nontrivial[:4] - brute))),
                float(np.max(np.abs(mn.nontrivial[:4] - brute))),
            )
    ok = worst_mutual <= 1e-8 and worst_brute <= 1e-6
    report(
        7,
        "moment-path-equivalence",
        ok,
        f"vandermonde-vs-newton={worst_mutual:.2e} vs-brute-force={worst_brute:.2e}",
    )
    assert worst_mutual <= 1e-8
    assert worst_brute <= 1e-6


def test_criterion_8_dephasing_limit():
    template = preset("fig5")
    sweep = sweep_gamma([0.0, 0.2, 1.2], template, methods=())
    m1 = [rec.distributions["A-B"].moment(1) for rec in sweep.records]
    ordering_ok = m1[2] < m1[1] < m1[0]
    gaps_0 = sweep.records[0].witness.moment_gaps
    gaps_12 = sweep.records[2].witness.moment_gaps
    gaps_ok = bool(np.all(gaps_12 < gaps_0))
    ok = ordering_ok and gaps_ok
    report(
        8,
        "dephasing-kills-entropy-production",
        ok,
        f"m1(0)={m1[0]:.4f} m1(0.2)={m1[1]:.4f} m1(1.2)={m1[2]:.4f} gaps_shrink={gaps_ok}",
    )
    assert ordering_ok
    assert gaps_ok


def test_criterion_9_second_law(rng):
    pauli_x = np.array([[0, 1], [1, 0]], dtype=complex)
    hamiltonian = (math.pi / 7 / 50.0) * tensor_product(pauli_x, pauli_x)
    worst_slack = math.inf
    worst_rel = math.inf
    obs_in = Observable.computational(4)
    for _ in range(50):
        channel = random_mixed_unitary_channel(4, rng)
        proto = TwoTimeProtocol(
            DensityMatrix.maximally_mixed(4), obs_in, random_observable(4, rng), channel
        )
        for beta in (0.1, 1.0, 10.0):
            rep = second_law_report(proto, hamiltonian, hamiltonian, beta)
            slack = rep.beta * (rep.mean_work - rep.free_energy_delta) - rep.rel_entropy_thermal
            worst_slack = min(worst_slack, slack)
            worst_rel = min(worst_rel, rep.rel_entropy_thermal)
    ok = worst_slack >= -1e-9 and worst_rel >= -1e-9
    report(
        9,
        "second-law-thermal-initial-state",
        ok,
        f"min beta(W-dF)-S_rel={worst_slack:.2e} min S_rel_th={worst_rel:.2e}",
    )
    assert worst_slack >= -1e-9
    assert worst_rel >= -1e-9


def test_criterion_10_integrator_order():
    cfg = preset("fig4")
    model = two_ion_model(cfg.omega, cfg.gamma, cfg.gamma)
    gen = model.liouvillian.astype(np.clongdouble)
    rho0 = DensityMatrix.from_diagonal(cfg.rho0_diag).data.reshape(-1).astype(np.clongdouble)
    # discretisation error at these step sizes sits below the float64 noise
    # floor, so the order probe runs the same RK4 kernel in 80-bit precision
    reference, _ = _rk4_evolve(gen, rho0, cfg.tau, cfg.tau / 40960)
    errors = []
    for steps in (1250, 2500, 5000):
        out, _ = _rk4_evolve(gen, rho0, cfg.tau, cfg.tau / steps)
        errors.append(float(np.max(np.abs(out - reference))))
    ratios = [errors[i] / errors[i + 1] for i in range(2)]
    ok = all(8.0 <= r <= 32.0 for r in ratios)
    report(
        10,
        "rk4-global-order",
        ok,
        "errors=" + ",".join(f"{e:.2e}" for e in errors)
        + " ratios=" + ",".join(f"{r:.1f}" for r in ratios),
    )
    assert ok


@pytest.fixture
def float64_mode(monkeypatch):
    """``core.EXTENDED`` patched to float64. The Chebyshev grid cache is
    cleared on both sides: a cached grid keeps the elimination of the
    precision it was first solved in."""
    reconstruct._chebyshev_grid.cache_clear()
    monkeypatch.setattr(core, "EXTENDED", np.float64)
    yield
    reconstruct._chebyshev_grid.cache_clear()


@pytest.mark.filterwarnings("ignore::entroprec.reconstruct.InfeasibleRecoveryWarning")
def test_float64_mode_follows_the_one_extended_type(float64_mode, monkeypatch):
    """Every extended path reads ``core.EXTENDED``: patched to float64, each
    returns float64 or complex128, and criteria 6 and 7 still pass."""
    proto = build_protocol(preset("fig3"))
    grid = chebyshev_nodes(10, PHI_MIN, PHI_MAX)
    z = 1 - grid.nodes
    chi = moment_generating(proto, "A", grid.nodes)
    results = {
        "_powers": _powers(proto.forward.p_in, z)[0],
        "_powered_state": _powered_state(proto.forward.p_in, proto.obs_in.projectors, z)[0],
        **{f"_initial_state {c}": _initial_state([proto], c, z)[0] for c in SUBSYSTEMS},
        "char_function A-B": char_function(proto, "A-B", 1j * grid.nodes),
        "moment_generating": chi,
        "vandermonde upper": grid.vandermonde.upper,
        **{f"vandermonde factor {i}": f for i, f in enumerate(grid.vandermonde.factors)},
        "_solve_factored": _solve_factored(grid.vandermonde, np.eye(grid.n)),
        "divided_differences": divided_differences(grid.nodes, chi),
    }
    with monkeypatch.context() as spy:  # the scaled moments, before narrowing
        scaled = []
        unscaled = reconstruct._unscaled
        spy.setattr(reconstruct, "_unscaled", lambda m: scaled.append(m) or unscaled(m))
        moments_via_vandermonde(grid, chi)
        moments_via_newton(grid, chi)
    results.update({"moments_via_vandermonde": scaled[0], "moments_via_newton": scaled[1]})
    for name, value in results.items():
        assert value.dtype in (np.float64, np.complex128), name
    test_criterion_6_reconstruction_fidelity()
    test_criterion_7_moment_path_equivalence()
