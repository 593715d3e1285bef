"""Correctness gate for each computed point.

A point passes when
  * the theorem checks meet the CLI's tolerances (fixed here, so the gate does
    not loosen if the program's own constants change);
  * the first four moments of the four distributions agree with an
    independent oracle: population transfer table of the channel (closed form
    for the gate, exp(tau L) by scaling and squaring for Lindblad dynamics,
    not the program's RK4 loop) pushed through sigma = ln p_in - ln p_fin;
  * the recovery RMSEs are finite and, for the stored default-seed pass,
    match ``reference.json``.

Tolerances are stated, not digit hashes, so a reordered but correct float
computation still passes. RK4 and the exact exponential agree to about 2e-13
(relative) on these settings; MOMENT_RTOL leaves room for that and for
rounding. RMSE_ATOL is ten times the largest RMSE shift that perturbing the
moment-generating values by 1e-18 (extended-precision rounding) produced on
these workloads (about 1e-6 at N = 16 with Fourier recovery); float64-level
perturbations shift it by up to 2e-3 and fail.
"""

from __future__ import annotations

import math

import numpy as np

from entroprec.experiments import LABELS, ConfigRecord

CHECK_TOLERANCES = {
    "conditional_equality": 1e-7,
    "ift": 1e-7,
    "crooks": 1e-7,
    "subadditivity": -1e-10,
}
MOMENT_RTOL = 1e-8  # also the absolute floor for moments near zero
RMSE_ATOL = 1e-5
RMSE_RTOL = 1e-3
MASS_DROP = 1e-15

_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_P0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)


def _expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential: Taylor series on a / 2^s with norm below 1/2, then
    s squarings."""
    norm = float(np.abs(a).sum(axis=0).max())
    s = max(0, math.ceil(math.log2(norm)) + 1) if norm > 0.5 else 0
    a = a / 2.0**s
    out = np.eye(a.shape[0], dtype=complex)
    term = out
    for k in range(1, 20):
        term = term @ a / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def transfer_table(cfg) -> np.ndarray:
    """T[j, i] = <j| Phi(|i><i|) |j> in the computational basis."""
    xx = np.kron(_X, _X)
    if cfg.dynamics == "unitary":
        u = math.cos(cfg.phi) * np.eye(4) - 1j * math.sin(cfg.phi) * xx
        return np.abs(u) ** 2
    # d rho/dt = -i[H, rho] - sum gamma ({rho, L^dag L} - 2 L rho L^dag),
    # row-major vectorisation: vec(A rho B) = (A kron B^T) vec(rho).
    h = cfg.phi / cfg.tau * xx
    eye = np.eye(4)
    gen = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for jump in (np.kron(_P0, np.eye(2)), np.kron(np.eye(2), _P0)):
        m = jump.conj().T @ jump
        dissipator = np.kron(eye, m.T) + np.kron(m, eye) - 2.0 * np.kron(jump, jump.conj())
        gen = gen - cfg.gamma * dissipator
    diag = np.arange(4) * 5  # vec index of |i><i|
    return _expm(cfg.tau * gen)[np.ix_(diag, diag)].real


def _moments(p_in: np.ndarray, p_fin: np.ndarray, joint: np.ndarray) -> np.ndarray:
    """<sigma^k>, k = 1..4, for joint[k_fin, m_in] and sigma = ln p_in - ln p_fin."""
    sigma = np.log(p_in)[None, :] - np.log(p_fin)[:, None]
    mass = np.where(joint > MASS_DROP, joint, 0.0)
    return np.array([np.sum(mass * sigma**k) for k in range(1, 5)])


def oracle_moments(cfg) -> dict[str, np.ndarray]:
    """Moments of the A, B, A-B and A+B distributions for a computational-basis
    two-qubit protocol with a product diagonal initial state."""
    t = transfer_table(cfg)
    p_in = np.asarray(cfg.rho0_diag, dtype=float)
    p_fin = t @ p_in
    joint = (t * p_in[None, :]).reshape(2, 2, 2, 2)  # [a_fin, b_fin, a_in, b_in]
    pa_in, pb_in = p_in.reshape(2, 2).sum(axis=1), p_in.reshape(2, 2).sum(axis=0)
    pa_fin, pb_fin = p_fin.reshape(2, 2).sum(axis=1), p_fin.reshape(2, 2).sum(axis=0)
    ma = _moments(pa_in, pa_fin, joint.sum(axis=(1, 3)))
    mb = _moments(pb_in, pb_fin, joint.sum(axis=(0, 2)))
    a, b = np.concatenate([[1.0], ma]), np.concatenate([[1.0], mb])
    conv = np.array(
        [sum(math.comb(n, i) * a[i] * b[n - i] for i in range(n + 1)) for n in range(1, 5)]
    )
    return {"A": ma, "B": mb, "A-B": _moments(p_in, p_fin, joint.reshape(4, 4)), "A+B": conv}


def fingerprint(record: ConfigRecord) -> dict:
    """The values stored in, and compared against, ``reference.json``."""
    table = record.moments_table()
    return {
        "moments": {label: [float(v) for v in table[label]] for label in LABELS},
        "rmse": {
            method: [float(bundle.rmse_probs_conv), float(bundle.rmse_moments_conv)]
            for method, bundle in record.reconstructions.items()
        },
    }


def _close(actual, expected, rtol: float, atol: float) -> bool:
    actual, expected = np.asarray(actual, float), np.asarray(expected, float)
    return actual.shape == expected.shape and bool(
        np.all(np.abs(actual - expected) <= atol + rtol * np.abs(expected))
    )


def point_failures(record: ConfigRecord, reference: dict | None = None) -> list[str]:
    """Names of the failed checks for one point; empty when it passes."""
    passed = {
        "conditional_equality": record.conditional_equality_deviation
        <= CHECK_TOLERANCES["conditional_equality"],
        "ift": record.ift_deviation <= CHECK_TOLERANCES["ift"],
        "crooks": record.crooks_deviation <= CHECK_TOLERANCES["crooks"],
        "subadditivity": record.subadditivity_gap >= CHECK_TOLERANCES["subadditivity"],
        "entropy_bound": record.entropy_bound.passed,
    }
    failures = [name for name, ok in passed.items() if not ok]
    table = record.moments_table()
    oracle = oracle_moments(record.config)
    failures += [
        f"moments_{l}" for l in LABELS if not _close(table[l], oracle[l], MOMENT_RTOL, MOMENT_RTOL)
    ]
    got = fingerprint(record)
    if not all(math.isfinite(v) for pair in got["rmse"].values() for v in pair):
        failures.append("rmse_finite")
    if reference is not None:
        failures += [
            f"reference_moments_{l}"
            for l in LABELS
            if not _close(got["moments"][l], reference["moments"][l], MOMENT_RTOL, MOMENT_RTOL)
        ]
        if got["rmse"].keys() != reference["rmse"].keys():
            failures.append("reference_methods")
        else:
            failures += [
                f"reference_rmse_{m}"
                for m, pair in reference["rmse"].items()
                if not _close(got["rmse"][m], pair, RMSE_RTOL, RMSE_ATOL)
            ]
    return failures
