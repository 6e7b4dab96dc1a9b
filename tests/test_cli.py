import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import logwave
from logwave.cli import (
    EXIT_BLOWUP,
    EXIT_CHECKS,
    EXIT_CONFIG,
    EXIT_OK,
    ConfigError,
    build_initial,
    main,
    parse_config,
    read_csv,
)
from logwave.functionals import CSV_COLUMNS

MINIMAL = {
    "domain": {"dim": 3, "length": math.pi},
    "model": {"gamma": 4.0},
    "initial": {"amplitude": 0.05},
}


def write_config(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def fast_run_config(tmp_path, **extra):
    doc = {
        "domain": {"dim": 3, "length": math.pi, "modes_per_dim": 4},
        "model": {"gamma": 4.0},
        "solver": {"dt": 1e-3, "t_end": 1.0},
        "initial": {"amplitude": 0.05},
        "well": {"trial_count": 2},
    }
    for section, keys in extra.items():
        doc.setdefault(section, {}).update(keys)
    return write_config(tmp_path / "config.json", doc)


class TestParseConfig:
    def test_minimal_defaults(self):
        cfg = parse_config(json.dumps(MINIMAL))
        assert cfg.domain.modes_per_dim == 8
        assert cfg.domain.oversample == 2
        assert cfg.solver.dt == 1e-3
        assert cfg.solver.t_end == 20.0
        assert cfg.solver.scheme == "IMEX2"
        assert cfg.solver.report_every == 10
        assert cfg.initial.type == "eigenmode"
        assert cfg.initial.mode == (1, 1, 1)
        assert cfg.well.trial_count == 32
        assert cfg.well.safety == 0.5
        assert cfg.solver.blowup_threshold == 1e8
        assert cfg.model.unsafe_gamma is False
        assert cfg.model.source_enabled is True
        assert cfg.initial.seed == 0
        assert cfg.initial.path is None
        assert cfg.well.seed == 0
        assert cfg.outputs.csv_path == "trajectory.csv"
        assert cfg.outputs.json_path == "summary.json"
        assert cfg.study.m_list == (4, 8, 16)
        assert cfg.study.epsilons == (1e-3, 1e-4)

    def test_null_takes_the_default(self):
        optional = {"domain": ["modes_per_dim", "oversample"],
                    "model": ["unsafe_gamma", "source_enabled"],
                    "solver": ["dt", "t_end", "scheme", "blowup_threshold", "report_every"],
                    "initial": ["type", "mode", "seed", "path"],
                    "well": ["trial_count", "safety", "seed"],
                    "outputs": ["csv_path", "json_path"],
                    "study": ["m_list", "epsilons"]}
        doc = {section: {**MINIMAL.get(section, {}), **dict.fromkeys(keys)}
               for section, keys in optional.items()}
        assert parse_config(json.dumps(doc)) == parse_config(json.dumps(MINIMAL))

    @pytest.mark.parametrize("section,key,value", [
        ("domain", "dim", "3"), ("model", "gamma", "4"), ("solver", "report_every", 2.5),
        ("initial", "seed", "0"), ("well", "safety", [0.5]), ("outputs", "csv_path", ".."),
        ("study", "m_list", 8),
    ])
    def test_bad_value_message_names_key_first(self, section, key, value):
        # the reader's message is not wrapped again in the section's name
        doc = json.loads(json.dumps(MINIMAL))
        doc.setdefault(section, {})[key] = value
        with pytest.raises(ConfigError) as info:
            parse_config(json.dumps(doc))
        assert str(info.value).startswith(f"'{section}.{key}' must")

    def test_gamma_window_enforced(self):
        doc = dict(MINIMAL, model={"gamma": 3.5})
        with pytest.raises(ConfigError, match=r"\[4, 6\)"):
            parse_config(json.dumps(doc))
        doc = dict(MINIMAL, model={"gamma": 5.9})
        assert parse_config(json.dumps(doc)).model.gamma == 5.9
        doc = dict(MINIMAL, model={"gamma": 3.5, "unsafe_gamma": True})
        assert parse_config(json.dumps(doc)).model.unsafe_gamma

    def test_unknown_keys_rejected(self):
        doc = dict(MINIMAL)
        doc["solver"] = {"dtt": 1e-3}
        with pytest.raises(ConfigError, match="solver.dtt"):
            parse_config(json.dumps(doc))
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config(json.dumps(dict(MINIMAL, extra={})))

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="model.gamma"):
            parse_config(json.dumps({"domain": MINIMAL["domain"],
                                     "initial": {"amplitude": 0.05}}))
        with pytest.raises(ConfigError, match="initial.amplitude"):
            parse_config(json.dumps({"domain": MINIMAL["domain"],
                                     "model": {"gamma": 4.0}}))

    def test_malformed_json_reports_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config('{\n  "domain": }')

    def test_mode_validation(self):
        doc = dict(MINIMAL, initial={"amplitude": 0.05, "mode": [1, 1]})
        with pytest.raises(ConfigError, match="initial.mode"):
            parse_config(json.dumps(doc))
        doc = dict(MINIMAL, initial={"amplitude": 0.05, "mode": [1, 1, 9]})
        with pytest.raises(ConfigError, match="initial.mode"):
            parse_config(json.dumps(doc))

    def test_type_errors_carry_paths(self):
        doc = dict(MINIMAL, solver={"dt": "fast"})
        with pytest.raises(ConfigError, match="solver.dt"):
            parse_config(json.dumps(doc))

    @pytest.mark.parametrize("key", ["unsafe_gamma", "source_enabled"])
    @pytest.mark.parametrize("value", ["false", "true", 0, 1, []])
    def test_booleans_must_be_json_booleans(self, key, value):
        doc = dict(MINIMAL, model={"gamma": 4.0, key: value})
        with pytest.raises(ConfigError, match=f"model.{key}"):
            parse_config(json.dumps(doc))

    def test_string_false_does_not_admit_unsafe_gamma(self, tmp_path):
        cfg = fast_run_config(tmp_path, model={"gamma": 7.0, "unsafe_gamma": "false"})
        assert main(["run", "--config", cfg, "--output-dir", str(tmp_path), "--quiet"]) == EXIT_CONFIG

    @pytest.mark.parametrize("t_end,dt", [(1.0, 0.3), (0.25, 0.1), (1e-4, 1e-3)])
    def test_t_end_must_be_multiple_of_dt(self, tmp_path, t_end, dt):
        doc = dict(MINIMAL, solver={"dt": dt, "t_end": t_end})
        with pytest.raises(ConfigError, match="solver.t_end"):
            parse_config(json.dumps(doc))
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["run", "--config", cfg, "--quiet"]) == EXIT_CONFIG

    @pytest.mark.parametrize("section,key", [("well", "trial_count"), ("well", "seed"),
                                             ("initial", "seed")])
    def test_negative_counts_rejected(self, tmp_path, capsys, section, key):
        cfg = fast_run_config(tmp_path, **{section: {key: -3}})
        with pytest.raises(ConfigError, match=f"{section}.{key}"):
            parse_config((tmp_path / "config.json").read_text())
        assert main(["run", "--config", cfg, "--output-dir", str(tmp_path), "--quiet"]) == EXIT_CONFIG
        assert f"'{section}.{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("t_end,dt", [(0.5, 1e-3), (0.05, 1e-3), (20.0, 1e-3), (0.3, 0.1)])
    def test_t_end_multiple_accepts_rounding(self, t_end, dt):
        doc = dict(MINIMAL, solver={"dt": dt, "t_end": t_end})
        assert parse_config(json.dumps(doc)).solver.t_end == t_end


class TestBuildInitial:
    def test_eigenmode(self):
        cfg = parse_config(json.dumps(MINIMAL))
        u0, u1 = build_initial(cfg)
        assert u0.coeffs[0, 0, 0] == 0.05
        assert np.count_nonzero(u0.coeffs) == 1
        assert not np.any(u1.coeffs)

    def test_random_normalized(self):
        doc = dict(MINIMAL, initial={"type": "random", "amplitude": 0.3, "seed": 5})
        cfg = parse_config(json.dumps(doc))
        u0, _ = build_initial(cfg)
        from logwave.domain import grad_norm_sq
        assert math.sqrt(grad_norm_sq(u0)) == pytest.approx(0.3, rel=1e-12)

    def test_from_file(self, tmp_path):
        coeffs = np.zeros((8, 8, 8))
        coeffs[0, 0, 0] = 0.25
        npz = tmp_path / "init.npz"
        np.savez(npz, u0=coeffs)
        doc = dict(MINIMAL, initial={"type": "file", "path": str(npz)})
        cfg = parse_config(json.dumps(doc))
        u0, u1 = build_initial(cfg)
        assert u0.coeffs[0, 0, 0] == 0.25
        assert not np.any(u1.coeffs)

    @pytest.mark.parametrize("bad", ["u0", "u1"])
    def test_from_file_wrong_shape(self, tmp_path, bad):
        arrays = {"u0": np.zeros((4, 4, 4)), "u1": np.zeros((4, 4, 4))}
        arrays[bad] = np.zeros((3, 3, 3))
        npz = tmp_path / "init.npz"
        np.savez(npz, **arrays)
        cfg = fast_run_config(tmp_path, initial={"type": "file", "path": str(npz)})
        with pytest.raises(ConfigError, match=f"initial.path.*'{bad}'"):
            build_initial(parse_config((tmp_path / "config.json").read_text()))
        assert main(["run", "--config", cfg, "--output-dir", str(tmp_path), "--quiet"]) == EXIT_CONFIG

    def test_from_file_non_finite(self, tmp_path):
        coeffs = np.zeros((4, 4, 4))
        coeffs[1, 0, 0] = np.nan
        npz = tmp_path / "init.npz"
        np.savez(npz, u0=coeffs)
        cfg = fast_run_config(tmp_path, initial={"type": "file", "path": str(npz)})
        with pytest.raises(ConfigError, match="initial.path.*'u0'.*non-finite"):
            build_initial(parse_config((tmp_path / "config.json").read_text()))
        assert main(["run", "--config", cfg, "--output-dir", str(tmp_path), "--quiet"]) == EXIT_CONFIG

    @pytest.mark.parametrize("source_enabled", [True, False])
    @pytest.mark.parametrize("command", ["run", "converge", "depend"])
    def test_from_file_overflowing_norm(self, tmp_path, capsys, command, source_enabled):
        # every coefficient is finite, but ||u_t||^2 overflows
        u0 = np.zeros((4, 4, 4))
        u0[0, 0, 0] = 0.05
        npz = tmp_path / "init.npz"
        np.savez(npz, u0=u0, u1=np.full((4, 4, 4), 1e155))
        cfg = fast_run_config(tmp_path, initial={"type": "file", "path": str(npz)},
                              model={"source_enabled": source_enabled})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([command, "--config", cfg, "--output-dir", str(tmp_path), "--quiet"])
        assert code == EXIT_CONFIG
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert err.startswith(f"data error: 'initial.path' ({npz}): 'u1'")
        assert err.count("\n") == 1

    def test_from_missing_file(self, tmp_path):
        cfg = fast_run_config(tmp_path, initial={"type": "file",
                                                 "path": str(tmp_path / "absent.npz")})
        assert main(["run", "--config", cfg, "--output-dir", str(tmp_path), "--quiet"]) == EXIT_CONFIG


class TestCmdRun:
    def test_trivial_zero_run_exits_ok(self, tmp_path):
        cfg = fast_run_config(tmp_path, initial={"amplitude": 0.0})
        code = main(["run", "--config", cfg, "--output-dir", str(tmp_path), "--quiet"])
        assert code == EXIT_OK
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["status"] == "COMPLETED"
        assert summary["stable_set"]["trivial_zero"]

    def test_stable_run_artifacts(self, tmp_path):
        cfg = fast_run_config(tmp_path)
        code = main(["run", "--config", cfg, "--output-dir", str(tmp_path), "--quiet"])
        assert code == EXIT_OK
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["stable_set"]["status"] == "IN"
        mandatory = [c for c in summary["checks"] if c["mandatory"]]
        assert all(c["status"] != "FAIL" for c in mandatory)

        # exact column set and 17-significant-digit round-trip
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        reports = read_csv(tmp_path / "trajectory.csv")
        assert reports[0].E == pytest.approx(summary["E0"], rel=1e-16)

    def test_byte_identical_reruns(self, tmp_path):
        cfg = fast_run_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", cfg, "--output-dir", str(a), "--quiet"]) == EXIT_OK
        assert main(["run", "--config", cfg, "--output-dir", str(b), "--quiet"]) == EXIT_OK
        assert (a / "trajectory.csv").read_bytes() == (b / "trajectory.csv").read_bytes()
        assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()

    def test_blowup_exit_code(self, tmp_path):
        cfg = write_config(tmp_path / "blow.json", {
            "domain": {"dim": 1, "length": math.pi, "modes_per_dim": 16},
            "model": {"gamma": 4.0, "unsafe_gamma": True},
            "solver": {"dt": 1e-3, "t_end": 5.0},
            "initial": {"amplitude": 10.0},
            "well": {"trial_count": 1},
        })
        code = main(["run", "--config", cfg, "--output-dir", str(tmp_path), "--quiet"])
        assert code == EXIT_BLOWUP
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["status"] == "BLOWUP"
        assert summary["t_max"] < 5.0

    def test_overflowing_amplitude_names_key(self, tmp_path, capsys):
        # |u|^g overflows, so neither the source of the initial data (run)
        # nor E(0) (every command that integrates) is finite
        for amplitude in (1e100, 1e200):
            cfg = fast_run_config(tmp_path, initial={"amplitude": amplitude})
            for command in ("run", "converge", "depend"):
                with np.errstate(over="ignore", invalid="ignore"):
                    code = main([command, "--config", cfg, "--output-dir", str(tmp_path),
                                 "--quiet"])
                assert code == EXIT_CONFIG
                assert f"'initial.amplitude' ({amplitude:g})" in capsys.readouterr().err

    @pytest.mark.parametrize("amplitude", [1e100, 1e200])
    def test_overflowing_amplitude_warns_nothing(self, tmp_path, capsys, amplitude):
        cfg = fast_run_config(tmp_path, initial={"amplitude": amplitude})
        for command in ("run", "converge", "depend"):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main([command, "--config", cfg, "--output-dir", str(tmp_path)])
            assert code == EXIT_CONFIG
            assert [str(w.message) for w in caught] == []
            err = capsys.readouterr().err
            assert err.startswith("data error: 'initial.amplitude'")
            assert err.count("\n") == 1

    def test_config_error_exit_code(self, tmp_path):
        bad = write_config(tmp_path / "bad.json", dict(MINIMAL, model={"gamma": 3.0}))
        assert main(["run", "--config", bad, "--quiet"]) == EXIT_CONFIG
        assert main(["run", "--config", str(tmp_path / "missing.json"), "--quiet"]) == EXIT_CONFIG


class TestOtherCommands:
    def test_welldepth_single_trial(self, tmp_path):
        cfg = fast_run_config(tmp_path, well={"trial_count": 0})
        code = main(["welldepth", "--config", cfg, "--output-dir", str(tmp_path), "--quiet"])
        assert code == EXIT_OK
        report = json.loads((tmp_path / "summary.json").read_text())
        assert report["d_hat"] > 0
        assert len(report["trials"]) == 1
        assert report["trials"][0]["lambda_star"] > 0

    def test_welldepth_degenerate_field_exits_config(self, tmp_path, capsys):
        # on a box of side 1e-100 the trials' Nehari points lie near 1e100,
        # where lambda*^gamma leaves the float range
        cfg = fast_run_config(tmp_path, domain={"length": 1e-100})
        code = main(["welldepth", "--config", cfg, "--output-dir", str(tmp_path), "--quiet"])
        assert code == EXIT_CONFIG
        assert "data error" in capsys.readouterr().err

    def test_converge_linear_machine_precision(self, tmp_path):
        cfg = fast_run_config(
            tmp_path,
            model={"source_enabled": False},
            solver={"t_end": 0.5},
            study={"m_list": [2, 4]},
        )
        code = main(["converge", "--config", cfg, "--output-dir", str(tmp_path), "--quiet"])
        assert code == EXIT_OK
        report = json.loads((tmp_path / "summary.json").read_text())
        assert report["passed"]
        assert max(report["E_diffs"]) <= 1e-15

    def test_depend_zero_epsilon(self, tmp_path):
        cfg = fast_run_config(tmp_path, solver={"t_end": 0.5},
                              study={"epsilons": [0.0]})
        code = main(["depend", "--config", cfg, "--output-dir", str(tmp_path), "--quiet"])
        assert code == EXIT_OK
        report = json.loads((tmp_path / "summary.json").read_text())
        assert all(d == 0.0 for d in report["D"][0])

    def test_verify_roundtrip(self, tmp_path):
        cfg = fast_run_config(tmp_path)
        checks = {}
        for command in ("run", "verify"):
            assert main([command, "--config", cfg, "--output-dir", str(tmp_path), "--quiet"]) == EXIT_OK
            checks[command] = json.loads((tmp_path / "summary.json").read_text())["checks"]
        names = {c["name"]: c for c in checks["verify"]}
        assert names["energy_identity"]["status"] == "PASS"
        # the velocity-gradient column is not in the CSV
        assert names["poincare_margin"]["status"] == "SKIP"
        # both commands evaluate one check table; verify has no stable-set
        # verdict either, so it skips those rows and agrees on all others
        assert [c["name"] for c in checks["run"]] == [c["name"] for c in checks["verify"]]
        skipped = {"invariance_I_positive", "invariance_E_below_threshold", "uniform_bound",
                   "poincare_margin"}
        for ran, verified in zip(checks["run"], checks["verify"]):
            if ran["name"] in skipped:
                assert (ran["status"], verified["status"]) == ("PASS", "SKIP")
            else:
                assert ({k: ran[k] for k in ("status", "measured", "tolerance")}
                        == {k: verified[k] for k in ("status", "measured", "tolerance")})

    @pytest.mark.parametrize("command", ["run", "verify", "depend", "converge", "welldepth"])
    @pytest.mark.parametrize("length", [1e150, 1e-160])
    def test_length_out_of_float_range_exits_config(self, tmp_path, capsys, command, length):
        cfg = fast_run_config(tmp_path, domain={"length": length})
        assert main([command, "--config", cfg, "--output-dir", str(tmp_path), "--quiet"]) == EXIT_CONFIG
        assert "length" in capsys.readouterr().err

    def test_verify_rejects_malformed_csv(self, tmp_path):
        cfg = fast_run_config(tmp_path)
        (tmp_path / "trajectory.csv").write_text("t,E\n0,1\n")
        code = main(["verify", "--config", cfg, "--output-dir", str(tmp_path), "--quiet"])
        assert code == EXIT_CONFIG

    def test_verify_flags_corrupted_ledger(self, tmp_path):
        cfg = fast_run_config(tmp_path)
        assert main(["run", "--config", cfg, "--output-dir", str(tmp_path), "--quiet"]) == EXIT_OK
        csv_path = tmp_path / "trajectory.csv"
        lines = csv_path.read_text().splitlines()
        cells = lines[-1].split(",")
        cells[-1] = "0.5"  # identity residual far above tolerance
        lines[-1] = ",".join(cells)
        csv_path.write_text("\n".join(lines) + "\n")
        code = main(["verify", "--config", cfg, "--output-dir", str(tmp_path), "--quiet"])
        assert code == EXIT_CHECKS
        report = json.loads((tmp_path / "summary.json").read_text())
        names = {c["name"]: c for c in report["checks"]}
        assert names["energy_identity"]["status"] == "FAIL"

    def test_verify_fails_infinite_initial_energy(self, tmp_path, capsys):
        # every check relative to an infinite E(0) would read 0 and pass
        cfg = fast_run_config(tmp_path)
        (tmp_path / "trajectory.csv").write_text(
            f"{','.join(CSV_COLUMNS)}\n0,inf,1,1,inf,1,1,1,0,0,0\n")
        code = main(["verify", "--config", cfg, "--output-dir", str(tmp_path)])
        assert code == EXIT_CHECKS
        out = capsys.readouterr().out
        assert "FAIL energy_identity" in out
        assert "FAIL monotone_dissipation" in out
        assert "PASS" not in out

    def test_verify_infinite_rows_warn_nothing(self, tmp_path, capsys):
        cfg = fast_run_config(tmp_path)
        (tmp_path / "trajectory.csv").write_text(
            f"{','.join(CSV_COLUMNS)}\n0,inf,1,1,inf,1,1,1,0,0,0\n0.01,inf,1,1,inf,1,1,1,0,0,0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["verify", "--config", cfg, "--output-dir", str(tmp_path)])
        assert code == EXIT_CHECKS
        captured = capsys.readouterr()
        for name in ("energy_identity", "monotone_dissipation", "virial_identity",
                     "integral_bound_finite"):
            assert f"FAIL {name} measured=nan" in captured.out
        assert "PASS" not in captured.out
        assert captured.err == ""


class TestSeedOverride:
    def test_seed_changes_random_initial(self, tmp_path):
        cfg = fast_run_config(tmp_path, initial={"type": "random", "amplitude": 0.02},
                              solver={"t_end": 0.1})
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        main(["run", "--config", cfg, "--output-dir", str(a), "--seed", "1", "--quiet"])
        main(["run", "--config", cfg, "--output-dir", str(b), "--seed", "2", "--quiet"])
        main(["run", "--config", cfg, "--output-dir", str(c), "--seed", "1", "--quiet"])
        csv_a = (a / "trajectory.csv").read_bytes()
        assert csv_a != (b / "trajectory.csv").read_bytes()
        assert csv_a == (c / "trajectory.csv").read_bytes()

    def test_negative_seed_exits_config(self, tmp_path, capsys):
        cfg = fast_run_config(tmp_path, initial={"type": "random", "amplitude": 0.02})
        code = main(["run", "--config", cfg, "--output-dir", str(tmp_path), "--seed", "-1",
                     "--quiet"])
        assert code == EXIT_CONFIG
        assert "'--seed'" in capsys.readouterr().err


def test_cli_import_leaves_scipy_out():
    # a fresh interpreter, so modules imported by other tests do not count
    src = str(Path(logwave.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    probe = ("import sys, logwave.cli; "
             "print(','.join(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout.strip()
    assert out == ""


# Config fuzzing: every JSON document ends in exit code 0, 2, 3 or 4, never in
# a traceback.  A document is mostly well formed; up to three keys with cheap
# defaults are left out, and at most one key gets a value of any type or an
# unknown name.  Only sizes are bounded, to keep the test well under 10 s:
# modes_per_dim and m_list entries <= 4, oversample <= 3, at most 50 steps
# (so dt and t_end never get a wrong number), trial_count <= 4 and at most
# two epsilons.  Lengths, amplitudes, exponents, time steps, thresholds and
# seeds range over all floats (nan and infinities included) and all integers.
# Output paths are relative, so nothing is written outside the test directory.
_TEXT = st.booleans() | st.text(max_size=3) | st.lists(st.integers(-1, 4), max_size=3)
_OPTIONAL = ("domain.oversample model.unsafe_gamma model.source_enabled solver.scheme "
             "solver.blowup_threshold solver.report_every initial.type initial.mode "
             "initial.seed initial.path well.safety well.seed outputs.csv_path "
             "outputs.json_path study.epsilons").split()


def _mostly(typical, rare):
    # hypothesis favours boundary values, so the rare branch sits in the middle
    return st.integers(0, 19).flatmap(lambda i: rare if i == 7 else typical)


def _extreme(low, high):
    return _mostly(st.floats(low, high), st.floats() | st.integers())


@st.composite
def config_documents(draw, data_files):
    dim = draw(_mostly(st.sampled_from([1, 2, 3]), st.integers(0, 4)))
    m = draw(_mostly(st.integers(1, 4), st.integers(-1, 0)))
    dt = draw(_extreme(1e-4, 0.1))
    seed = _mostly(st.integers(0, 2 ** 70), st.integers())
    paths = st.sampled_from(["t.csv", "s.json", "", ".", "..", "sub/t.csv"])
    doc = {
        "domain": {"dim": dim, "length": draw(_extreme(0.5, 5.0)), "modes_per_dim": m,
                   "oversample": draw(_mostly(st.integers(2, 3), st.integers(0, 1)))},
        "model": {"gamma": draw(_extreme(4.0, 5.9)),
                  "unsafe_gamma": draw(_mostly(st.just(dim < 3), st.booleans())),
                  "source_enabled": draw(_mostly(st.just(True), st.just(False)))},
        # a t_end 1 % off a multiple of dt is rejected
        "solver": {"dt": dt, "t_end": draw(st.integers(1, 50)) * dt
                   * draw(_mostly(st.just(1.0), st.just(1.01))),
                   "scheme": draw(st.sampled_from(["IMEX2", "IMEX1"])),
                   "blowup_threshold": draw(_extreme(2.0, 1e10)),
                   "report_every": draw(_mostly(st.integers(1, 60), st.integers(-1, 0)))},
        "initial": {"type": draw(_mostly(st.sampled_from(["eigenmode", "random"]), st.just("file"))),
                    "amplitude": draw(_extreme(-0.1, 0.1)),
                    "mode": draw(_mostly(st.lists(st.integers(1, max(m, 1)), min_size=dim,
                                                  max_size=dim),
                                         st.lists(st.integers(0, 5), max_size=4))),
                    "seed": draw(seed), "path": draw(st.sampled_from(data_files))},
        "well": {"trial_count": draw(_mostly(st.integers(0, 4), st.just(-1))),
                 "safety": draw(_extreme(0.01, 1.0)), "seed": draw(seed)},
        "outputs": {"csv_path": draw(_mostly(st.just("t.csv"), paths)),
                    "json_path": draw(_mostly(st.just("s.json"), paths))},
        "study": {"m_list": draw(_mostly(st.lists(st.integers(1, 4), min_size=2, max_size=3,
                                                  unique=True).map(sorted),
                                         st.lists(st.integers(-1, 4), max_size=3))),
                  "epsilons": draw(st.lists(_extreme(0.0, 1e-2), max_size=2))},
    }
    for path in draw(st.lists(st.sampled_from(_OPTIONAL), max_size=3)):
        section, key = path.split(".")
        doc[section].pop(key, None)
    if draw(st.integers(0, 4)) == 2:
        section = draw(st.sampled_from(sorted(doc)))
        key = draw(st.sampled_from(sorted(doc[section]) or ["x"]) | st.text(max_size=2))
        junk = _TEXT if key in ("dt", "t_end") else _TEXT | st.integers(-3, 3) | st.floats()
        doc[section][key] = draw(junk)
    return doc


@pytest.mark.parametrize("command", ["run", "verify", "depend", "converge", "welldepth"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_any_config_document_exits_cleanly(command, data):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        np.savez(tmp / "good.npz", u0=np.full((2, 2, 2), 0.01))
        np.savez(tmp / "flat.npz", u0=np.ones(3), u1=np.zeros(3))
        doc = data.draw(config_documents([str(tmp / "good.npz"), str(tmp / "flat.npz"),
                                          str(tmp / "absent.npz"), ""]))
        out = tmp / "out"
        out.mkdir()
        for name in ("t.csv", "trajectory.csv"):  # one sample for verify to read
            (out / name).write_text(f"{','.join(CSV_COLUMNS)}\n{','.join(['0.5'] * 11)}\n")
        config = write_config(tmp / "config.json", doc)
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")
            code = main([command, "--config", config, "--output-dir", str(out), "--quiet"])
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_BLOWUP, EXIT_CHECKS)
