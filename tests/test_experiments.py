import dataclasses
import gc
import math
import os
import re
import subprocess
import sys
import warnings
import weakref
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import entroprec

from entroprec import TwoIonConfig, preset, run_config, sweep_gamma, sweep_moment_count, sweep_phase
from entroprec import IntegratorAccuracyError, Observable, build_channel, build_protocol
from entroprec import channels, charfunc, cli, core, experiments, protocol
from entroprec.experiments import build_channels, default_sweep_points, protocol_parts
from entroprec import reconstruct
from entroprec.protocol import AbsoluteIrreversibilityWarning
from entroprec.reconstruct import chebyshev_nodes


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

    @pytest.mark.parametrize("dt", [0.0, -0.01])
    def test_step_validation(self, dt):
        # dt = -0.01 used to run a single 0.01 s step instead of 50 s of
        # evolution, and dt = 0 ended in a bare ZeroDivisionError
        for dynamics in ("unitary", "lindblad"):
            with pytest.raises(ValueError, match="dt must be positive"):
                TwoIonConfig(phi=0.1, gamma=0.2, dynamics=dynamics, dt=dt)

    @pytest.mark.parametrize("n", [2.5, 3.0, True, "4"], ids=["fraction", "float", "bool", "str"])
    def test_non_integer_n_moments_refused(self, n):
        # 2.5 would fail later, inside run_config; True would run as N = 1
        with pytest.raises(ValueError, match="n_moments must be an integer"):
            TwoIonConfig(phi=0.3, n_moments=n)
        assert TwoIonConfig(phi=0.3, n_moments=np.int64(4)).n_moments == 4

    @pytest.mark.parametrize(
        "value", [True, False, "0.3", 0.3j, Fraction(1, 3), Decimal("0.3")], ids=repr
    )
    @pytest.mark.parametrize("key", ["phi", "gamma", "tau", "dt"])
    def test_non_real_values_refused(self, key, value):
        # phi=True used to pass and fail later as "channel not trace
        # preserving"; phi="0.3" raised a TypeError, and phi=Fraction(1, 3)
        # passed and then failed inside ms_gate with a TypeError
        with pytest.raises(ValueError, match=f"{key} must be a real number"):
            replace(TwoIonConfig(phi=0.1), **{key: value})

    def test_real_values_accepted(self):
        cfg = TwoIonConfig(phi=np.float64(0.3), gamma=np.int64(0), tau=np.float32(5.0), dt=0.05)
        assert cfg.omega == pytest.approx(0.06)
        assert TwoIonConfig(phi=0.1, dt=None).step_size == 50.0 / 5000  # the default step
        with pytest.raises(ValueError, match="phi must be a real number"):
            TwoIonConfig(phi=None)

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
        running = []  # the counted calls in progress, outermost first
        applied = []  # the counted calls in progress at each channel application

        def count(name, original):
            def counted(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                running.append(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    running.pop()

            return counted

        def apply_kraus(kraus, m, original=protocol.apply_kraus):
            applied.append(tuple(running))
            if running[-1:] == ["_transfer_tables"]:
                chi_applied.append(m.shape)
            return original(kraus, m)

        chi_applied = []
        for name in ("entropy_samples", "_dephase"):
            monkeypatch.setattr(protocol, name, count(name, getattr(protocol, name)))
        stacked = tuple((name, count(name, build)) for name, build in protocol._STACKED)
        monkeypatch.setattr(protocol, "_STACKED", stacked)
        monkeypatch.setattr(experiments, "protocol_parts", count("protocol_parts", protocol_parts))
        monkeypatch.setattr(protocol, "apply_kraus", apply_kraus)
        transfer = count("_transfer_tables", charfunc._transfer_tables)
        monkeypatch.setattr(charfunc, "_transfer_tables", transfer)
        run_config(preset("fig3"), methods=("pinv", "fourier"))
        # stack_tables builds each quantity once; the label tables build the
        # forward table, and the distributions sample A, B and A-B in one
        # pass. The protocol dephases rho0 on construction and the states
        # build dephases rho_fin; nothing else does. The one entropy_samples
        # call is the Crooks check's, on the backward table.
        assert calls == {
            "states": 1,
            "tables": 1,
            "distributions": 1,
            "backward": 1,
            "protocol_parts": 1,
            "entropy_samples": 1,
            "_dephase": 2,
            "_transfer_tables": 1,
        }
        # one channel application per build that needs one, each to the stack
        # of all its states; the protocol part only reads what they built
        assert sorted(applied) == [
            ("_transfer_tables",), ("backward",), ("states",), ("tables",)
        ]
        # chi of all three labels reads one transfer table, built by one
        # channel application to the four initial projectors and rho_in
        assert chi_applied == [(1, 5, 4, 4)]

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
        # the CSV header and the row keys come from one column list
        assert cli.SWEEP_COLUMNS is experiments.SWEEP_COLUMNS
        for row, rec in zip(rows, report.records):
            assert list(row) == ["phi"] + experiments.SWEEP_COLUMNS
            assert row["m2_AB"] == rec.distributions["A-B"].moment(2)
            assert row["rmse_probs"] == rec.reconstructions["pinv"].rmse_probs_conv
            assert row["gap_m3"] == rec.witness.moment_gaps[2]

    def test_rows_are_fresh_dicts_of_one_build(self, tmp_path, monkeypatch):
        calls, stack_moments = [], experiments.stack_moments
        counted = lambda *args: calls.append(args) or stack_moments(*args)
        monkeypatch.setattr(experiments, "stack_moments", counted)
        report = sweep_phase([0.3, 0.6], preset("fig3"), methods=("pinv",))
        calls.clear()
        columns = ["phi", *experiments.SWEEP_COLUMNS]
        expected = [[row[c] for c in columns] for row in report.rows()]
        # a caller that edits the rows it was handed changes no later call
        edited = report.rows()
        edited[0]["m1_A"] = 99.0
        del edited[1]["phi"]
        assert [[row[c] for c in columns] for row in report.rows()] == expected
        cfg = cli.RunConfig(command="sweep", ion=preset("fig3"), output_dir=tmp_path, fmt="csv")
        (path,) = cli.emit_report({}, cfg, sweep=report)
        lines = path.read_text().splitlines()
        assert lines[1:] == [",".join(map(repr, values)) for values in expected]
        assert len(calls) == 1  # the values were built once, by the first call

    def test_moment_columns_are_the_records_moments(self):
        swept = sweep_phase([0.3], preset("fig3"), methods=()).records[0]
        # a record whose distributions were built alone, on a fresh protocol,
        # with only one moment of one distribution memoised
        cfg = replace(preset("fig3"), phi=0.9)
        alone = dict(build_protocol(cfg).distributions)
        alone["A"].moment(2)
        record = replace(swept, config=cfg, distributions=alone)
        report = experiments.SweepReport("phi", np.array([0.3, 0.9]), (swept, record))
        rows = report.rows()
        # moments_table on a second fresh build, whose memos each fill alone
        tables = [swept.moments_table(), dataclasses.replace(
            record, distributions=dict(build_protocol(cfg).distributions)
        ).moments_table()]
        keys = {"A": "A", "B": "B", "A-B": "AB", "A+B": "ApB"}
        for row, table in zip(rows, tables):
            for label, key in keys.items():
                values = np.array([row[f"m{k}_{key}"] for k in range(1, 5)])
                assert values.tobytes() == table[label].tobytes()

    def test_rows_without_reconstruction_carry_nan_errors(self):
        row = sweep_phase([0.3], preset("fig3"), methods=()).rows()[0]
        assert math.isnan(row["rmse_moments"]) and math.isnan(row["rmse_probs"])

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
    @pytest.mark.parametrize(
        "points", [[2.5, 3.9], [2.0, 3.0], [4, True], np.array([2.0, 3.0])],
        ids=["fractions", "floats", "bool", "float-array"],
    )
    def test_non_integer_points_refused(self, points, monkeypatch):
        # int() would truncate [2.5, 3.9] to N = 2 and 3; refused before any work
        monkeypatch.setattr(experiments, "build_channels", None)
        with pytest.raises(ValueError, match="N must be an integer"):
            sweep_moment_count(points, preset("fig3"), methods=())

    def test_numpy_integer_points_accepted(self):
        report = sweep_moment_count(np.array([3], dtype=np.int32), preset("fig3"), methods=())
        assert report.records[0].config.n_moments == 3
        assert report.points.tolist() == [3.0]

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


def significant_bytes(array: np.ndarray) -> bytes:
    """The bytes that carry an array's values: all of them, except for 80-bit
    floats, whose 16-byte slots end in padding that numpy leaves unset."""
    array = np.ascontiguousarray(array)
    if array.dtype in (np.longdouble, np.clongdouble) and array.dtype.itemsize in (16, 32):
        return array.view(np.uint8).reshape(-1, 16)[:, :10].tobytes()
    return array.tobytes()


def assert_same_record(a, b, path="record"):
    """Every field of two records equal bit for bit, arrays by value and dtype
    and extended-precision arrays on their significant bytes."""
    if dataclasses.is_dataclass(a):
        assert type(a) is type(b), path
        for f in dataclasses.fields(a):
            assert_same_record(getattr(a, f.name), getattr(b, f.name), f"{path}.{f.name}")
    elif isinstance(a, dict):
        assert list(a) == list(b), path
        for key in a:
            assert_same_record(a[key], b[key], f"{path}[{key}]")
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and np.array_equal(a, b), path
        assert significant_bytes(a) == significant_bytes(b), path
    elif isinstance(a, tuple):
        assert type(a) is type(b) and len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            assert_same_record(x, y, f"{path}[{i}]")
    elif isinstance(a, float):
        assert np.float64(a).tobytes() == np.float64(b).tobytes(), path
    else:
        assert a == b, path


# Short integrations (100 steps) keep the build-counting tests fast.
QUICK = replace(preset("fig5"), tau=5.0, dt=0.05)


@pytest.fixture
def builds(monkeypatch):
    """What the code under test builds, and where. ``batches`` holds the size
    of each stacked endpoint build and ``maps`` the (phi, gamma) of every map
    it integrates; ``parts`` holds a weak reference to the protocol of each
    protocol part (a :func:`protocol_parts` call builds one per protocol).
    ``batch_runs`` and ``part_runs`` give, for each build, the index of the
    run_config call it ran inside (None outside any), and ``runs`` counts
    run_config calls."""
    log = {"batches": [], "maps": [], "batch_runs": [], "parts": [], "part_runs": [], "runs": 0}
    depth = []
    build, part, run = (
        experiments.kraus_from_lindblad_endpoints,
        experiments.protocol_parts,
        experiments.run_config,
    )

    def inside():
        return log["runs"] - 1 if depth else None

    def counted_build(models, tau, dt):
        log["batches"].append(len(models))
        log["batch_runs"].append(inside())
        log["maps"].extend((m.hamiltonian[0, 3].real * tau, m.dissipators[0][1]) for m in models)
        return build(models, tau, dt)

    def counted_parts(cfgs, protos):
        protos = list(protos)
        result = part(cfgs, protos)
        log["parts"].extend(weakref.ref(proto) for proto in protos)
        log["part_runs"].extend(inside() for _ in protos)
        return result

    def counted_run(*args, **kwargs):
        log["runs"] += 1
        depth.append(1)
        try:
            return run(*args, **kwargs)
        finally:
            depth.pop()

    monkeypatch.setattr(experiments, "kraus_from_lindblad_endpoints", counted_build)
    monkeypatch.setattr(experiments, "protocol_parts", counted_parts)
    monkeypatch.setattr(experiments, "run_config", counted_run)
    return log


class TestSweepSharing:
    """Points on one protocol share its protocol part, built once; every
    record still equals a fresh run_config call for its point."""

    @pytest.mark.filterwarnings("ignore::entroprec.reconstruct.InfeasibleRecoveryWarning")
    def test_n_sweep_records_equal_fresh_run_config(self):
        base = replace(preset("fig4"), phi=2.6, gamma=0.23)
        points = default_sweep_points("N")
        report = sweep_moment_count(points, base, methods=("pinv", "fourier"))
        for n, record in zip(points, report.records):
            alone = run_config(replace(base, n_moments=int(n)), ("pinv", "fourier"))
            assert_same_record(record, alone)

    @pytest.mark.filterwarnings("ignore::entroprec.reconstruct.InfeasibleRecoveryWarning")
    def test_lindblad_phase_sweep_records_equal_fresh_run_config(self):
        # batched maps, a repeated phase sharing its map and part
        points = [0.4, 2.0, 2.0, 5.0]
        report = sweep_phase(points, QUICK, methods=("pinv", "fourier"))
        for phi, record in zip(points, report.records):
            assert_same_record(record, run_config(replace(QUICK, phi=phi), ("pinv", "fourier")))

    def test_protocol_part_built_once_per_n_sweep(self, builds):
        # the stacked pass builds each protocol's part, before any run_config call
        report = sweep_moment_count([2, 5, 9], QUICK, methods=())
        assert builds["runs"] == 3
        assert builds["part_runs"] == [None]
        assert report.records[0].distributions is not report.records[1].distributions
        sweep_phase([0.1, 0.2, 0.2, 0.1], preset("fig3"), methods=())
        # a repeated point shares, wherever it comes; a new phase does not
        assert builds["part_runs"] == [None] * 3

    def test_phase_sweep_validates_each_configuration_once(self, monkeypatch):
        # one configuration per point, made by sweep_phase; the sweep keys
        # its points by their fields and makes none of its own
        calls = []
        post_init = TwoIonConfig.__post_init__
        monkeypatch.setattr(TwoIonConfig, "__post_init__", lambda c: calls.append(1) or post_init(c))
        sweep_phase(default_sweep_points("phi"), preset("fig3"))
        assert len(calls) == 64

    def test_points_share_a_protocol_only_when_they_differ_in_n(self, builds):
        base = preset("fig3")
        fine = base.tau / 4000
        cfgs = [
            base,
            replace(base, n_moments=4),
            replace(base, dt=fine),
            replace(base, rho0_diag=(0.25,) * 4),
            replace(base, dt=fine, n_moments=6),
        ]
        records = [record for record, _ in experiments._sweep_parts(cfgs, ())]
        assert len(builds["parts"]) == 3
        assert records[1] is records[0] and records[4] is records[2]
        assert len({id(records[i]) for i in (0, 2, 3)}) == 3

    def test_protocol_part_released_after_sweep(self, builds):
        report = sweep_moment_count([2, 3], preset("fig3"), methods=())
        gc.collect()
        assert len(report.records) == 2 and len(builds["parts"]) == 1
        assert builds["parts"][0]() is None

    def test_lone_run_config_recomputes(self, builds):
        # each call integrates its own map and builds its own part
        experiments.run_config(QUICK, methods=())
        experiments.run_config(replace(QUICK, n_moments=4), methods=())
        assert builds["batches"] == [1, 1] and builds["batch_runs"] == [0, 1]
        assert builds["part_runs"] == [0, 1]
        experiments.run_config(preset("fig3"), methods=())
        assert builds["batches"] == [1, 1] and builds["part_runs"] == [0, 1, 2]

    def test_protocol_warnings_once_per_n_sweep(self):
        # The backward process of a rank-deficient state reaches initial
        # outcomes rho0 never occupies: the Crooks check warns. That check
        # belongs to the shared protocol part, so an N sweep warns once.
        cfg = replace(preset("fig3"), rho0_diag=(0.6, 0.4, 0.0, 0.0))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sweep_moment_count([6, 7, 8], cfg, methods=())
        found = [w for w in caught if issubclass(w.category, AbsoluteIrreversibilityWarning)]
        assert len(found) == 1
        with pytest.warns(AbsoluteIrreversibilityWarning):
            run_config(cfg, methods=())


class TestStackedSweeps:
    """A sweep builds the tables, chi and moments of all its points as
    stacks; each point still gets one run_config call, and its record equals
    a fresh run_config call for it, field by field."""

    @pytest.mark.filterwarnings("ignore::entroprec.reconstruct.InfeasibleRecoveryWarning")
    def test_fig3_phase_sweep_records_equal_fresh_run_config(self):
        points = list(default_sweep_points("phi")[::7]) + [1.0, 2.5, 1.0]
        report = sweep_phase(points, preset("fig3"), methods=("pinv", "fourier"))
        for phi, record in zip(points, report.records):
            alone = run_config(replace(preset("fig3"), phi=float(phi)), ("pinv", "fourier"))
            assert_same_record(record, alone)

    @pytest.mark.filterwarnings("ignore::entroprec.reconstruct.InfeasibleRecoveryWarning")
    def test_rank_deficient_phase_sweep_warns_per_protocol(self):
        # the Crooks check's backward samples of a rank-deficient state carry
        # infinite mass at most phases: the sweep warns once per protocol,
        # as each fresh run_config call does, in point order
        cfg = replace(preset("fig3"), rho0_diag=(0.6, 0.4, 0.0, 0.0))
        points = default_sweep_points("phi")
        irreversible = lambda caught: [
            str(w.message) for w in caught if w.category is AbsoluteIrreversibilityWarning
        ]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = sweep_phase(points, cfg, methods=("pinv",))
        expected = []
        for phi, record in zip(points, report.records):
            with warnings.catch_warnings(record=True) as alone_caught:
                warnings.simplefilter("always")
                alone = run_config(replace(cfg, phi=float(phi)), ("pinv",))
            assert len(irreversible(alone_caught)) <= 1
            expected += irreversible(alone_caught)
            assert_same_record(record, alone)
        assert irreversible(caught) == expected and len(expected) == 62

    @pytest.mark.filterwarnings("ignore::entroprec.reconstruct.InfeasibleRecoveryWarning")
    def test_gamma_sweep_with_two_kraus_counts(self):
        # gamma = 0 integrates to one Kraus operator, gamma > 0 to more: two
        # groups, stacked without padding
        points = [0.0, 0.4, 0.0, 1.1, 0.4]
        cfgs = [replace(QUICK, gamma=g) for g in points]
        counts = {len(channel.kraus) for channel in build_channels(cfgs)}
        assert len(counts) == 2
        report = sweep_gamma(points, QUICK, methods=("pinv", "fourier"))
        for cfg, record in zip(cfgs, report.records):
            assert_same_record(record, run_config(cfg, ("pinv", "fourier")))

    @pytest.mark.filterwarnings("ignore::entroprec.reconstruct.InfeasibleRecoveryWarning")
    def test_n_sweep_with_a_repeated_point(self):
        base = replace(preset("fig4"), tau=5.0, dt=0.05)
        points = [3, 9, 3, 12]
        report = sweep_moment_count(points, base, methods=("pinv", "fourier"))
        for n, record in zip(points, report.records):
            assert_same_record(record, run_config(replace(base, n_moments=n), ("pinv", "fourier")))

    @pytest.mark.filterwarnings("ignore::entroprec.reconstruct.InfeasibleRecoveryWarning")
    @pytest.mark.parametrize(
        "sweep, points",
        [
            (sweep_phase, [0.3, 0.3, 1.2]),
            (sweep_gamma, [0.0, 0.5]),
            (sweep_moment_count, [2, 5, 5]),
        ],
    )
    def test_one_run_config_call_per_point(self, builds, sweep, points):
        report = sweep(points, QUICK, methods=("pinv",))
        assert builds["runs"] == len(points) == len(report.records)

    @pytest.mark.parametrize("sweep", [sweep_phase, sweep_gamma, sweep_moment_count])
    def test_no_points_give_an_empty_report(self, sweep):
        # nothing to stack: no protocol, no Crooks row and no moment grid
        for methods in ((), ("pinv", "fourier")):
            report = sweep([], QUICK, methods=methods)
            assert report.records == () and report.points.size == 0 and report.rows() == []
        assert protocol.crooks_check([]) == []

    def test_shared_observables_are_read_once(self, monkeypatch):
        # the 64 protocols of a phase sweep share their observables: the
        # entropy bound builds one final-observable matrix, and chi checks
        # the observables of each label once
        matrices, checks = [], []
        matrix, check = Observable.matrix, charfunc._check_subsystem
        monkeypatch.setattr(Observable, "matrix", lambda obs: matrices.append(obs) or matrix(obs))
        monkeypatch.setattr(charfunc, "_check_subsystem", lambda *a: checks.append(a) or check(*a))
        sweep_phase(default_sweep_points("phi"), preset("fig3"), methods=("pinv",))
        assert len(matrices) == 1
        assert [label for _, label in checks] == ["A", "B", "A-B"]

    def test_stacked_work_precedes_the_first_run_config(self, builds, monkeypatch):
        # the tables, protocol parts, chi and recoveries of every point are
        # built once, before any point runs
        stacks = []
        original = experiments.stack_tables
        recover = experiments._recover

        def counted(protos):
            stacks.append(builds["runs"])
            return original(protos)

        def counted_recover(items, method):
            items = list(items)
            stacks.append((builds["runs"], len(items), method))
            return recover(items, method)

        monkeypatch.setattr(experiments, "stack_tables", counted)
        monkeypatch.setattr(experiments, "_recover", counted_recover)
        sweep_phase([0.4, 2.0, 0.4], preset("fig3"), methods=("pinv",))
        # two protocols, three labels each, one recovery call
        assert stacks == [0, (0, 6, "pinv")] and builds["part_runs"] == [None, None]


class TestDefaults:
    def test_default_points(self):
        assert len(default_sweep_points("phi")) == 64
        assert len(default_sweep_points("gamma")) == 25
        assert list(default_sweep_points("N")) == list(range(2, 17))
        with pytest.raises(ValueError):
            default_sweep_points("tau")


class TestChannelBuilds:
    """A sweep integrates each distinct map once, in one stacked batch,
    before its first run_config call."""

    def test_gamma_sweep_is_one_batch(self, builds):
        points = default_sweep_points("gamma")
        report = sweep_gamma(points, QUICK, methods=())
        assert len(report.records) == 25
        assert builds["batches"] == [25] and builds["batch_runs"] == [None]
        assert builds["maps"] == [(pytest.approx(QUICK.phi), g) for g in points]

    def test_moment_count_sweep_builds_its_map_once(self, builds):
        sweep_moment_count([2, 3, 4], QUICK, methods=())
        assert builds["batches"] == [1] and builds["batch_runs"] == [None]
        sweep_moment_count([5], QUICK, methods=())  # nothing is kept between sweeps
        assert builds["batches"] == [1, 1] and builds["batch_runs"] == [None, None]

    def test_phase_sweep_with_dephasing_is_one_batch(self, builds):
        sweep_phase([0.1, 0.2, 0.2, 0.3], QUICK, methods=())
        assert builds["batches"] == [3]  # the repeated phase is one map
        assert builds["batch_runs"] == [None]
        assert builds["maps"] == [(pytest.approx(p), QUICK.gamma) for p in (0.1, 0.2, 0.3)]

    def test_build_channels_builds_each_map_once(self, builds):
        cfgs = [replace(QUICK, gamma=g) for g in (0.1, 0.2, 0.3)]
        built = build_channels(cfgs + cfgs[:1] + [preset("fig3")])
        assert builds["batches"] == [3]
        assert len(built) == 5 and built[3] is built[0]
        assert np.array_equal(built[4].kraus[0], build_channel(preset("fig3")).kraus[0])
        build_channels(cfgs[:1])  # a new call integrates again
        assert builds["batches"] == [3, 1]

    def test_groups_by_time_and_step(self, builds):
        other = replace(QUICK, dt=0.025)
        build_channels([QUICK, other, replace(QUICK, gamma=0.5), replace(other, gamma=0.5)])
        assert builds["batches"] == [2, 2]

    def test_batched_map_is_the_single_map(self, builds):
        cfgs = [replace(QUICK, phi=p, gamma=g) for p, g in ((0.4, 0.0), (2.0, 0.7), (5.0, 1.1))]
        batched = build_channels(cfgs)
        for cfg, channel in zip(cfgs, batched):
            alone = build_channel(cfg)
            assert channel is not alone
            assert all(np.array_equal(a, b) for a, b in zip(channel.kraus, alone.kraus))

    def test_unstable_rate_is_named_before_any_step(self, builds, monkeypatch):
        steps = []
        original = channels._rk4_step
        monkeypatch.setattr(channels, "_rk4_step", lambda *a: steps.append(1) or original(*a))
        with pytest.raises(IntegratorAccuracyError, match="gamma=1000000.0: RK4 step"):
            sweep_gamma([0.2, 1e6], QUICK, methods=())
        assert steps == []
        sweep_gamma([0.2, 0.3], QUICK, methods=())  # one batch of 5 / 0.05 steps
        assert len(steps) == 100

    def test_protocols_share_the_qubit_observables(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("observable built per protocol")

        monkeypatch.setattr(Observable, "__post_init__", refuse)
        proto = build_protocol(preset("fig3"))
        assert proto.obs_in is experiments.QUBIT_PAIR_OBS
        assert proto.bipartite_obs == (experiments.QUBIT_OBS,) * 4


class TestOutOfRangeSettings:
    """Settings whose numbers leave float64 are refused with a typed error
    before any work they would size."""

    def test_moment_count_beyond_float64_refused_before_any_grid(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("grid built")

        monkeypatch.setattr(reconstruct, "ParameterGrid", refuse)
        with pytest.raises(OverflowError, match="^the moments for N = 1000000 overflow float64$"):
            run_config(replace(preset("fig3"), n_moments=10**6))
        with pytest.raises(OverflowError, match=f"N = {10**400} "):  # beyond any float
            run_config(replace(preset("fig3"), n_moments=10**400))
        with pytest.raises(OverflowError, match="N = 172 "):  # 171! is beyond float64
            run_config(replace(preset("fig3"), n_moments=172))
        with pytest.raises(AssertionError, match="grid built"):  # 170! is not
            run_config(replace(preset("fig3"), n_moments=171))

    @pytest.mark.parametrize("setting", [{"gamma": 1e300}, {"gamma": 1e308}, {"tau": 1e300}])
    def test_huge_rate_or_time_refused_without_warning(self, setting):
        # an overflow warning would fail this test first (error::RuntimeWarning)
        cfg = replace(preset("fig5"), **setting)
        named = re.escape(f"phi={cfg.phi!r}, gamma={cfg.gamma!r}: ")
        with pytest.raises(IntegratorAccuracyError, match=named):
            build_channels([cfg])


class TestMomentsOncePerLabel:
    def test_chi_evaluated_once_per_label_and_node(self, monkeypatch):
        # one stacked call per label carries all N nodes
        calls = []
        original = experiments.moment_generating

        def counted(protos, label, phi):
            calls.append((len(protos), label, np.array(phi)))
            return original(protos, label, phi)

        monkeypatch.setattr(experiments, "moment_generating", counted)
        cfg = replace(preset("fig3"), n_moments=7)
        record = run_config(cfg, methods=("pinv", "fourier"))
        nodes = chebyshev_nodes(7, experiments.PHI_MIN, experiments.PHI_MAX).nodes
        assert [(n, label) for n, label, _ in calls] == [(1, "A"), (1, "B"), (1, "A-B")]
        assert all(np.array_equal(phi, nodes) for _, _, phi in calls)
        pinv, fourier = (record.reconstructions[m].per_label for m in ("pinv", "fourier"))
        for label in ("A", "B", "A-B"):
            assert fourier[label].chi is pinv[label].chi
            assert fourier[label].moments is pinv[label].moments
        calls.clear()
        run_config(cfg, methods=())
        assert calls == []

    @pytest.mark.filterwarnings("ignore::entroprec.reconstruct.InfeasibleRecoveryWarning")
    def test_shared_moments_match_reconstruct_subsystem(self):
        cfg = replace(preset("fig4"), n_moments=9)
        record = run_config(cfg, methods=("pinv", "fourier"))
        proto = build_protocol(cfg)
        for method, bundle in record.reconstructions.items():
            for label, result in bundle.per_label.items():
                alone = experiments.reconstruct_subsystem(
                    proto, label, record.distributions[label], 9, method
                )
                assert np.array_equal(result.chi, alone.chi)
                assert np.array_equal(result.dist.probs, alone.dist.probs)
                assert result.rmse_probs == alone.rmse_probs

    def test_true_moments_once_per_point(self, monkeypatch):
        # every method scores against the same four true distributions, the
        # record's own, on their first four moments
        cfg = replace(preset("fig3"), n_moments=7)
        scored = []
        original = experiments._scores

        def spy(trues, dists, counts):
            scored.extend(zip(trues, counts))
            return original(trues, dists, counts)

        monkeypatch.setattr(experiments, "_scores", spy)
        record = run_config(cfg, methods=("pinv", "fourier"))
        # A, B and A-B, then A+B, by pinv and then by Fourier
        assert len(scored) == 8
        for (true, count), label in zip(scored, experiments.LABELS * 2):
            assert true is record.distributions[label] and count == 4
            assert np.array_equal(true.moments(count), record.distributions[label].moments(4))

    @pytest.mark.filterwarnings("ignore::entroprec.reconstruct.InfeasibleRecoveryWarning")
    def test_extended_final_probabilities_once_per_protocol(self, monkeypatch):
        # chi's transfer table and the A-B probe's final probabilities come
        # from one 80-bit channel application; an N sweep shares its
        # protocol, so that happens once, not per point or label
        applied = []
        original = protocol.apply_kraus

        def counted(kraus, m):
            if m.dtype == core.extended_complex():
                applied.append(m.shape)
            return original(kraus, m)

        monkeypatch.setattr(protocol, "apply_kraus", counted)
        report = sweep_moment_count(range(2, 17), preset("fig3"), methods=("pinv",))
        assert len(report.records) == 15
        assert applied == [(1, 5, 4, 4)]

    def test_no_extended_channel_application_without_methods(self, monkeypatch):
        # the 80-bit channel applications all serve chi, which a record
        # without reconstructions never reads
        applied = []

        def spy(module):
            original = module.apply_kraus

            def counted(kraus, m):
                applied.append(np.asarray(m).dtype)
                return original(kraus, m)

            monkeypatch.setattr(module, "apply_kraus", counted)

        for module in (channels, protocol):
            spy(module)
        run_config(preset("fig3"), methods=())
        assert applied and core.extended_complex() not in applied

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="method must be"):
            run_config(preset("fig3"), methods=("exact",))


# The bytes of every distribution of a 64-point fig3 phase sweep, as a digest;
# run in this process and in one whose numpy dispatches no SIMD kernel.
DISTRIBUTION_DIGEST = """
import hashlib, math
import numpy as np
from entroprec import preset, sweep_phase

def digest():
    sweep = sweep_phase(np.linspace(0, 2 * math.pi, 64), preset("fig3"), methods=())
    out = hashlib.sha256()
    for record in sweep.records:
        for dist in record.distributions.values():
            out.update(dist.support.tobytes() + dist.probs.tobytes())
    return out.hexdigest()
"""


def test_distributions_do_not_depend_on_simd_dispatch():
    # numpy picks AVX2 or AVX-512 kernels for its sorts and maths where the
    # CPU has them; with a stable merge and math.log, no support or
    # probability depends on that choice. On a CPU without AVX2 both runs
    # take the baseline kernels, and the test passes trivially.
    umath = np._core._multiarray_umath if hasattr(np, "_core") else np.core._multiarray_umath
    namespace: dict = {}
    exec(DISTRIBUTION_DIGEST, namespace)
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(umath.__cpu_dispatch__))
    src = os.path.dirname(os.path.dirname(entroprec.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", DISTRIBUTION_DIGEST + "print(digest())"],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    assert run.stdout.strip() == namespace["digest"]()
