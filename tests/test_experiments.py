import math
from dataclasses import replace

import numpy as np
import pytest

from entroprec import TwoIonConfig, preset, run_config, sweep_gamma, sweep_moment_count, sweep_phase
from entroprec import protocol
from entroprec.experiments import default_sweep_points


class TestConfig:
    def test_presets(self):
        fig3 = preset("fig3")
        assert fig3.phi == pytest.approx(math.pi / 7)
        assert fig3.dynamics == "unitary"
        fig4 = preset("fig4")
        assert fig4.phi == pytest.approx(5 * math.pi / 6)
        assert fig4.gamma == 0.2 and fig4.dynamics == "lindblad"

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            preset("fig99")

    def test_validation(self):
        with pytest.raises(ValueError):
            TwoIonConfig(phi=0.1, gamma=-1.0)
        with pytest.raises(ValueError):
            TwoIonConfig(phi=0.1, n_moments=0)
        with pytest.raises(ValueError):
            TwoIonConfig(phi=0.1, tau=0.0)
        with pytest.raises(ValueError):
            TwoIonConfig(phi=0.1, dynamics="exact")
        for key in ("phi", "gamma", "tau", "dt"):
            for value in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError, match=f"{key} must be finite"):
                    replace(TwoIonConfig(phi=0.1), **{key: value})

    def test_omega_consistency(self):
        cfg = TwoIonConfig(phi=math.pi / 7, tau=50.0)
        assert cfg.omega == pytest.approx(math.pi / 7 / 50.0)


class TestRunConfig:
    def test_zero_phase_is_reversible(self):
        record = run_config(TwoIonConfig(phi=0.0), methods=("pinv",))
        for dist in record.distributions.values():
            assert np.allclose(dist.support, [0.0])
            assert np.allclose(dist.probs, [1.0])

    def test_fig3_support_and_subadditivity(self):
        record = run_config(preset("fig3"), methods=("pinv",))
        assert len(record.distributions["A-B"].support) <= 16
        assert record.subadditivity_gap > 1e-6  # strictly sub-additive here
        assert record.entropy_bound.passed

    def test_fig4_checks(self):
        record = run_config(preset("fig4"), methods=("pinv",))
        assert record.crooks_deviation <= 1e-7
        assert record.ift_deviation <= 1e-7
        assert record.conditional_equality_deviation <= 1e-7

    def test_builds_tables_once_per_protocol(self, monkeypatch):
        calls = {}
        for name in ("forward_joint", "backward_joint", "bipartite_marginals"):
            original = getattr(protocol, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(protocol, name, counted)
        run_config(preset("fig3"), methods=("pinv", "fourier"))
        assert calls == {"forward_joint": 1, "backward_joint": 1, "bipartite_marginals": 1}

    def test_determinism(self):
        a = run_config(preset("fig3"), methods=("pinv",))
        b = run_config(preset("fig3"), methods=("pinv",))
        assert np.array_equal(a.distributions["A-B"].probs, b.distributions["A-B"].probs)
        assert a.reconstructions["pinv"].rmse_probs_conv == b.reconstructions["pinv"].rmse_probs_conv

    def test_subsystem_symmetry(self):
        # the bipartition is swap-symmetric, so A and B share one distribution
        for cfg in (preset("fig3"), preset("fig4")):
            record = run_config(cfg, methods=("pinv",))
            da, db = record.distributions["A"], record.distributions["B"]
            assert np.max(np.abs(da.support - db.support)) <= 1e-10
            assert np.max(np.abs(da.probs - db.probs)) <= 1e-10
            assert np.max(np.abs(da.moments(4) - db.moments(4))) <= 1e-10


class TestSweepPhase:
    def test_trivial_phases(self):
        report = sweep_phase([0.0, math.pi, 2 * math.pi], preset("fig3"), methods=("pinv",))
        for record in report.records:
            dist = record.distributions["A-B"]
            assert np.allclose(dist.support, [0.0])
            assert np.allclose(dist.probs, [1.0])

    def test_symmetry_about_pi(self):
        points = np.linspace(0.0, 2 * math.pi, 64)
        report = sweep_phase(points, preset("fig3"), methods=())
        m1 = [rec.distributions["A-B"].moment(1) for rec in report.records]
        # U(2 pi - phi) is the complex conjugate of U(phi); with a real
        # initial state and projectors the statistics coincide
        for i in range(64):
            assert m1[i] == pytest.approx(m1[63 - i], abs=1e-12)

    def test_rows_schema(self):
        report = sweep_phase([0.3, 0.6], preset("fig3"), methods=("pinv",))
        rows = report.rows()
        assert len(rows) == 2
        assert list(rows[0])[0] == "phi"
        assert "m4_ApB" in rows[0] and "rmse_probs" in rows[0] and "gap_m4" in rows[0]

    def test_dephasing_sweep_reaches_fixed_point(self):
        # with dephasing on, the mean entropy production rises monotonically
        # with the phase and saturates as the dynamics approaches its fixed point
        points = np.linspace(0.0, 2 * math.pi, 64)
        report = sweep_phase(points, preset("fig9"), methods=())
        m1 = np.array([rec.distributions["A-B"].moment(1) for rec in report.records])
        # independent endpoint-map extractions wobble at the integrator level
        assert np.all(np.diff(m1) >= -1e-9)
        assert m1[-1] > m1[8]
        assert abs(m1[-1] - m1[-8]) <= 1e-6  # plateau


class TestSweepGamma:
    def test_zero_gamma_matches_unitary(self):
        lindblad = run_config(
            replace(preset("fig5"), gamma=0.0, dynamics="lindblad"), methods=()
        )
        unitary = run_config(preset("fig3"), methods=())
        for label in ("A", "B", "A-B"):
            diff = np.max(
                np.abs(
                    lindblad.distributions[label].probs - unitary.distributions[label].probs
                )
            )
            assert diff <= 1e-7

    def test_moments_decrease_with_dephasing(self):
        report = sweep_gamma([0.0, 0.2, 1.2], preset("fig5"), methods=())
        m1 = [rec.distributions["A-B"].moment(1) for rec in report.records]
        assert m1[2] < m1[1] < m1[0]

    def test_witness_gaps_shrink(self):
        report = sweep_gamma([0.0, 1.2], preset("fig5"), methods=())
        gaps_0 = report.records[0].witness.moment_gaps
        gaps_12 = report.records[1].witness.moment_gaps
        assert np.all(gaps_12 < gaps_0)

    def test_every_row_passes_theorem_checks(self):
        report = sweep_gamma([0.0, 0.4, 0.8], preset("fig5"), methods=())
        for record in report.records:
            assert record.entropy_bound.passed
            assert record.conditional_equality_deviation <= 1e-7
            assert record.crooks_deviation <= 1e-7
            assert record.ift_deviation <= 1e-7


class TestSweepMomentCount:
    def test_large_n_accurate(self):
        report = sweep_moment_count([16], preset("fig6"), methods=("pinv",))
        assert report.records[0].reconstructions["pinv"].rmse_probs_conv <= 1e-6

    @pytest.mark.filterwarnings("ignore::entroprec.reconstruct.InfeasibleRecoveryWarning")
    def test_small_n_inaccurate(self):
        report = sweep_moment_count([2], preset("fig6"), methods=("pinv",))
        assert report.records[0].reconstructions["pinv"].rmse_probs_conv > 1e-3

    @pytest.mark.filterwarnings("ignore::entroprec.reconstruct.InfeasibleRecoveryWarning")
    def test_error_shape(self):
        points = [2, 6, 10, 16]
        report = sweep_moment_count(points, preset("fig6"), methods=("pinv",))
        rmses = [rec.reconstructions["pinv"].rmse_probs_conv for rec in report.records]
        assert max(rmses) == rmses[0]
        assert min(rmses) == min(rmses[2:])


class TestDefaults:
    def test_default_points(self):
        assert len(default_sweep_points("phi")) == 64
        assert len(default_sweep_points("gamma")) == 25
        assert list(default_sweep_points("N")) == list(range(2, 17))
        with pytest.raises(ValueError):
            default_sweep_points("tau")
