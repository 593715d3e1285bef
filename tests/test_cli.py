import contextlib
import io
import json
import math
import tempfile
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import entroprec.experiments
from entroprec import cli
from entroprec.cli import CHECK_TOLERANCES, emit_report, main, parse_config


class TestParseConfig:
    def test_preset_defaults(self):
        cfg = parse_config(["simulate", "--preset", "fig3"])
        assert cfg.ion.phi == pytest.approx(math.pi / 7)
        assert cfg.ion.dynamics == "unitary"
        assert cfg.ion.n_moments == 10
        assert cfg.method == "pinv"

    def test_flag_overrides_preset(self):
        cfg = parse_config(["simulate", "--preset", "fig4", "--gamma", "0.5"])
        assert cfg.ion.gamma == 0.5
        assert cfg.ion.phi == pytest.approx(5 * math.pi / 6)  # untouched

    def test_file_between_preset_and_flags(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"gamma": 0.7, "N": 12}))
        cfg = parse_config(
            ["simulate", "--preset", "fig4", "--config", str(path), "--gamma", "0.9"]
        )
        assert cfg.ion.gamma == 0.9  # flag wins
        assert cfg.ion.n_moments == 12  # file wins over preset default

    def test_unknown_file_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"gama": 0.7}))
        with pytest.raises(ValueError, match="gama"):
            parse_config(["simulate", "--config", str(path)])

    def test_range_validation_names_key(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"N": 0}))
        with pytest.raises(ValueError, match="'N'"):
            parse_config(["simulate", "--config", str(path)])
        path.write_text(json.dumps({"gamma": -0.1}))
        with pytest.raises(ValueError, match="'gamma'"):
            parse_config(["simulate", "--config", str(path)])
        path.write_text(json.dumps({"tau": 0.0}))
        with pytest.raises(ValueError, match="'tau'"):
            parse_config(["simulate", "--config", str(path)])

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="cannot read"):
            parse_config(["simulate", "--config", str(path)])

    @pytest.mark.parametrize(
        "argv, code", [(["--help"], 0), (["simulate", "--bogus"], 2)], ids=["help", "unknown-flag"]
    )
    def test_parser_exit_is_returned(self, argv, code, capsys):
        assert main(argv) == code


def run_quietly(argv, capsys):
    """Run the CLI expecting exit 2 with one JSON error line and no warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert caught == []
    assert code == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])["error"]


class TestNonFiniteInput:
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_flag_rejected(self, value, tmp_path, capsys):
        error = run_quietly(["simulate", "--phi", value, "--out", str(tmp_path)], capsys)
        assert "phi must be finite" in error

    @pytest.mark.parametrize("text", ['{"gamma": Infinity}', '{"tau": NaN}'])
    def test_config_file_rejected(self, text, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        argv = ["simulate", "--config", str(path), "--out", str(tmp_path)]
        assert "must be finite" in run_quietly(argv, capsys)


class TestWrongTypeInput:
    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"phi": "abc"}', "'phi' must be"),
            ('{"gamma": null}', "'gamma' must be"),
            ('{"tau": [1]}', "'tau' must be"),
            ('{"N": true}', "'N' must be"),
            ("5", "must hold a JSON object"),
        ],
    )
    def test_config_file_rejected(self, text, message, tmp_path, capsys):
        # these used to end in a TypeError traceback (exit 1), or for N in
        # the echo "N": true
        path = tmp_path / "cfg.json"
        path.write_text(text)
        argv = ["simulate", "--config", str(path), "--out", str(tmp_path)]
        assert message in run_quietly(argv, capsys)


class TestNumericalFailureExit:
    def test_unstable_lindblad_step(self, tmp_path, capsys):
        argv = ["simulate", "--dynamics", "lindblad", "--gamma", "1e6", "--out", str(tmp_path)]
        # the CLI sets no dt (its step is tau / 5000), so the advice names none
        assert "reduce the rates or the time step" in run_quietly(argv, capsys)

    def test_arithmetic_error(self, monkeypatch, tmp_path, capsys):
        def imaginary_residue(protos, subsystem, phi):
            raise ArithmeticError("moment-generating value has imaginary residue 1.000e-03")

        monkeypatch.setattr(entroprec.experiments, "moment_generating", imaginary_residue)
        argv = ["reconstruct", "--preset", "fig3", "--out", str(tmp_path)]
        assert "imaginary residue" in run_quietly(argv, capsys)

    @pytest.mark.parametrize("method", ["pinv", "fourier"])
    @pytest.mark.parametrize("n", [171, 172, 10**6])
    def test_moments_beyond_float64_refused(self, n, method, tmp_path, capsys):
        # fig3's moment 170 overflows float64 at N = 171; at N = 172 so does
        # 171!, and from there N is refused before any grid is built
        out = tmp_path / "out"
        argv = ["simulate", "--preset", "fig3", "--N", str(n), "--method", method, "--out", str(out)]
        assert f"N = {n}" in run_quietly(argv, capsys)
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value", [("--gamma", "1e300"), ("--gamma", "1e308"), ("--tau", "1e300")]
    )
    def test_out_of_range_rate_or_time_refused(self, flag, value, tmp_path, capsys):
        # an overflowing generator or growth factor, named by its point
        argv = ["simulate", "--preset", "fig4", flag, value, "--out", str(tmp_path / "out")]
        assert run_quietly(argv, capsys).startswith("phi=")
        assert not (tmp_path / "out").exists()


class TestVerifyCommand:
    def test_fig3_passes(self, tmp_path, capsys):
        code = main(["verify", "--preset", "fig3", "--out", str(tmp_path)])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        header = json.loads(lines[0])
        assert header["effective_config"]["preset"] == "fig3"
        checks = json.loads(lines[-1])
        assert checks["pass"] is True
        assert checks["conditional_equality"]["deviation"] <= 1e-10
        report = json.loads((tmp_path / "verify.json").read_text())
        assert report["checks"]["crooks"]["pass"] is True

    def test_fig4_passes(self, tmp_path):
        assert main(["verify", "--preset", "fig4", "--out", str(tmp_path)]) == 0

    def test_failed_check_is_named(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setitem(CHECK_TOLERANCES, "ift", -1.0)
        assert main(["verify", "--preset", "fig3", "--out", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out.strip().splitlines()[-1])["pass"] is False
        assert json.loads(captured.err) == {"failed_checks": ["ift"]}

    def test_runs_no_reconstruction(self, monkeypatch, tmp_path):
        # verify reports the checks only, so an error in chi, which only the
        # reconstruction reads, must not turn its verdict into exit code 2
        def fail(*args):
            raise ArithmeticError("chi evaluated")

        monkeypatch.setattr(entroprec.experiments, "moment_generating", fail)
        assert main(["verify", "--preset", "fig3", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "verify.json").read_text())
        assert set(report) == {"config", "checks"}
        assert set(report["checks"]) == {
            "conditional_equality", "entropy_bound", "ift", "crooks", "subadditivity",
            "witness", "pass",
        }


class TestSweepCommand:
    def test_gamma_csv_schema(self, tmp_path):
        code = main(
            [
                "sweep",
                "--axis",
                "gamma",
                "--preset",
                "fig5",
                "--format",
                "csv",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 26  # header + 25 points
        header = lines[0].split(",")
        assert header[0] == "gamma"
        assert header[1:5] == ["m1_A", "m2_A", "m3_A", "m4_A"]
        assert header[-6:] == ["rmse_moments", "rmse_probs", "gap_m1", "gap_m2", "gap_m3", "gap_m4"]


    def test_fourier_json_is_strict(self, tmp_path):
        argv = ["sweep", "--axis", "N", "--method", "fourier", "--format", "json"]
        assert main(argv + ["--out", str(tmp_path)]) == 0

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        report = json.loads((tmp_path / "sweep.json").read_text(), parse_constant=reject)
        assert len(report["rows"]) == 15
        for row in report["rows"]:
            assert math.isfinite(row["rmse_moments"]) and math.isfinite(row["rmse_probs"])

    @pytest.mark.parametrize(
        "axis, preset, rows", [("phi", "fig3", 64), ("gamma", "fig5", 25), ("N", "fig3", 15)]
    )
    def test_each_axis_runs_its_sweep(self, axis, preset, rows, monkeypatch, tmp_path):
        sweep = entroprec.experiments.SWEEPS[axis]
        calls = []

        def counted(points, cfg, methods):
            calls.append(len(points))
            return sweep(points, cfg, methods=methods)

        monkeypatch.setitem(entroprec.experiments.SWEEPS, axis, counted)
        argv = ["sweep", "--axis", axis, "--preset", preset, "--method", "fourier"]
        assert main(argv + ["--format", "csv", "--out", str(tmp_path)]) == 0
        assert calls == [rows]
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(lines) == rows + 1 and lines[0].startswith(f"{axis},")

    def test_nan_is_not_written_as_json(self, tmp_path):
        cfg = parse_config(["simulate", "--out", str(tmp_path)])
        with pytest.raises(ValueError, match="JSON"):
            emit_report({"value": math.nan}, cfg)

    def test_refused_report_leaves_no_directory(self, tmp_path):
        out = tmp_path / "out" / "nested"
        cfg = parse_config(["simulate", "--out", str(out)])
        with pytest.raises(ValueError, match="JSON"):
            emit_report({"x": math.nan}, cfg)
        assert not (tmp_path / "out").exists()


class TestSimulateCommand:
    def test_fig4_distribution_dump(self, tmp_path):
        code = main(
            [
                "simulate",
                "--preset",
                "fig4",
                "--format",
                "csv",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        lines = (tmp_path / "simulate_distributions.csv").read_text().strip().splitlines()
        assert lines[0] == "label,sigma,prob"
        ab_rows = [line for line in lines[1:] if line.startswith("A-B,")]
        assert 0 < len(ab_rows) <= 16

    def test_reconstruct_csv_lists_recovered_distributions(self, tmp_path):
        argv = ["reconstruct", "--preset", "fig3", "--N", "8"]
        assert main(argv + ["--out", str(tmp_path / "json")]) == 0
        assert main(argv + ["--format", "csv", "--out", str(tmp_path / "csv")]) == 0
        assert [p.name for p in (tmp_path / "csv").iterdir()] == ["reconstruct_distributions.csv"]
        lines = (tmp_path / "csv" / "reconstruct_distributions.csv").read_text().splitlines()
        assert lines[0] == "label,sigma,prob"
        recon = json.loads((tmp_path / "json" / "reconstruct.json").read_text())["reconstruction"]
        expected = {label: entry["distribution"] for label, entry in recon["per_label"].items()}
        expected["A+B"] = recon["conv_distribution"]
        rows = [line.split(",") for line in lines[1:]]
        assert [label for label, _, _ in rows] == [
            label for label, dist in expected.items() for _ in dist
        ]
        assert [[float(sigma), float(prob)] for _, sigma, prob in rows] == [
            [entry["sigma"], entry["prob"]] for dist in expected.values() for entry in dist
        ]

    def test_verify_csv_refused_before_any_work(self, tmp_path, capsys):
        out = tmp_path / "out"
        error = run_quietly(["verify", "--preset", "fig3", "--format", "csv", "--out", str(out)],
                            capsys)
        assert "--format csv" in error
        assert not out.exists()

    def test_report_without_csv_form_raises(self, tmp_path):
        cfg = parse_config(["simulate", "--format", "csv", "--out", str(tmp_path / "out")])
        with pytest.raises(ValueError, match="no CSV form"):
            emit_report({"config": cfg.echo(), "checks": {}}, cfg)
        assert not (tmp_path / "out").exists()

    def test_json_round_trip(self, tmp_path):
        assert main(["simulate", "--preset", "fig3", "--out", str(tmp_path)]) == 0
        text = (tmp_path / "simulate.json").read_text()
        report = json.loads(text)
        assert json.loads(json.dumps(report)) == report
        total = sum(entry["prob"] for entry in report["distributions"]["A-B"])
        assert total == pytest.approx(1.0, abs=1e-10)
        assert report["checks"]["pass"] is True

    def test_reconstruct_command(self, tmp_path):
        assert main(["reconstruct", "--preset", "fig3", "--N", "8", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "reconstruct.json").read_text())
        assert report["config"]["N"] == 8
        assert report["reconstruction"]["method"] == "pinv"
        assert len(report["reconstruction"]["per_label"]["A"]["nodes"]) == 8

    def test_fourier_method(self, tmp_path):
        assert (
            main(
                [
                    "reconstruct",
                    "--preset",
                    "fig3",
                    "--method",
                    "fourier",
                    "--out",
                    str(tmp_path),
                ]
            )
            == 0
        )
        report = json.loads((tmp_path / "reconstruct.json").read_text())
        assert report["reconstruction"]["method"] == "fourier"

    def test_unwritable_output_path(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        code = main(["simulate", "--preset", "fig3", "--out", str(blocker / "sub")])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestWarningsInReports:
    """The JSON reports of simulate, reconstruct and sweep list the warnings
    their run raised; the CSV columns stay as they were."""

    def test_sweep_lists_what_the_library_raises(self, tmp_path):
        argv = ["sweep", "--axis", "N", "--preset", "fig4", "--out", str(tmp_path)]
        with warnings.catch_warnings(record=True) as shown:
            warnings.simplefilter("always")
            assert main(argv) == 0
        entries = json.loads((tmp_path / "sweep.json").read_text())["warnings"]
        assert all(list(entry) == ["category", "message", "count"] for entry in entries)
        assert all(isinstance(entry["count"], int) and entry["count"] >= 1 for entry in entries)
        # every raise is counted, as a direct call of the sweep records them
        cfg = parse_config(argv)
        with warnings.catch_warnings(record=True) as raised:
            warnings.simplefilter("always")
            entroprec.experiments.sweep_moment_count(
                entroprec.experiments.default_sweep_points("N"), cfg.ion, methods=("pinv",)
            )
        counts = {}
        for w in raised:
            key = (w.category.__name__, str(w.message))
            counts[key] = counts.get(key, 0) + 1
        assert {(e["category"], e["message"]): e["count"] for e in entries} == counts
        assert {e["category"] for e in entries} == {"InfeasibleRecoveryWarning"}
        assert sum(counts.values()) > len(entries) == 3
        # each distinct warning is still shown once
        assert sorted(str(w.message) for w in shown) == sorted(e["message"] for e in entries)

    @pytest.mark.filterwarnings("ignore::entroprec.reconstruct.InfeasibleRecoveryWarning")
    def test_simulate_and_reconstruct_reports(self, tmp_path):
        reports = {}
        for command, n in (("simulate", "10"), ("reconstruct", "3")):
            out = tmp_path / command
            assert main([command, "--preset", "fig3", "--N", n, "--out", str(out)]) == 0
            reports[command] = json.loads((out / f"{command}.json").read_text())
            assert list(reports[command])[-1] == "warnings"
        assert reports["simulate"]["warnings"] == []
        # three moments leave the pinv masses of this support infeasible
        entries = reports["reconstruct"]["warnings"]
        assert entries and {e["category"] for e in entries} == {"InfeasibleRecoveryWarning"}

    @pytest.mark.filterwarnings("ignore::entroprec.reconstruct.InfeasibleRecoveryWarning")
    def test_csv_reports_unchanged(self, tmp_path):
        argv = ["sweep", "--axis", "N", "--preset", "fig4", "--format", "csv"]
        assert main(argv + ["--out", str(tmp_path)]) == 0
        assert [p.name for p in tmp_path.iterdir()] == ["sweep.csv"]
        header = (tmp_path / "sweep.csv").read_text().splitlines()[0].split(",")
        assert header == ["N"] + list(entroprec.experiments.SWEEP_COLUMNS)


# Values that stress each boundary of a setting: signed zeros, tiny and huge
# magnitudes, non-finite values, values argparse reads as a flag, and text.
FUZZ_REALS = ["0", "-0.0", "-1", "0.5", "1e-12", "1e300", "-1e300", "1e6",
              "inf", "-inf", "nan", "abc"]
FUZZ_COUNTS = ["-3", "0", "1", "2", "10", "170", "171", "172", "1.5", "abc"]


@st.composite
def cli_calls(draw):
    """A command line: a command, a preset or none, and a few settings drawn
    from the values above. Sweeps run only along N, whose 15 points share
    one protocol; a phi or gamma sweep of Lindblad maps would take seconds."""
    command = draw(st.sampled_from(["simulate", "reconstruct", "verify", "sweep"]))
    argv = [command]
    if command == "sweep":
        argv += ["--axis", "N"]
    name = draw(st.sampled_from([None, *sorted(entroprec.experiments.PRESETS)]))
    if name is not None:
        argv += ["--preset", name]
    for flag in draw(st.lists(st.sampled_from(["--phi", "--gamma", "--tau", "--N"]),
                              unique=True, max_size=3)):
        argv += [flag, draw(st.sampled_from(FUZZ_COUNTS if flag == "--N" else FUZZ_REALS))]
    for flag, values in (("--dynamics", ["unitary", "lindblad"]), ("--method", ["pinv", "fourier"]),
                         ("--format", ["json", "csv"])):
        if draw(st.booleans()):
            argv += [flag, draw(st.sampled_from(values))]
    return argv


class TestInputContract:
    @settings(max_examples=60)
    @example(["simulate", "--preset", "fig3", "--gamma", "abc"])
    @example(["simulate", "--preset", "fig3", "--tau", "-inf"])
    @example(["simulate", "--preset", "fig3", "--N", "1.5"])
    @example(["simulate", "--phi", "nan"])
    @example(["reconstruct", "--N", "171"])
    @given(cli_calls())
    def test_every_input_exits_0_1_or_2(self, argv):
        # nothing raises past main; an exit 2 prints one JSON error line,
        # unless argparse itself refused the command line (its usage text)
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                cli._build_parser().parse_args(argv)
            usage_error = False
        except SystemExit:
            usage_error = True
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main([*argv, "--out", out])
        assert code in (0, 1, 2)
        lines = err.getvalue().splitlines()
        if usage_error:
            assert code == 2 and lines[0].startswith("usage: entroprec")
        elif code == 2:
            errors = [json.loads(line) for line in lines if line.startswith("{")]
            assert len(errors) == 1 and list(errors[0]) == ["error"]
            assert isinstance(errors[0]["error"], str) and errors[0]["error"]
