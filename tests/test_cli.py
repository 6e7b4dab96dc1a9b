import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import warnings
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import logwave
from logwave import analysis, well
from logwave.analysis import CHECKS
from logwave.cli import (
    _SCHEMA,
    EXIT_BLOWUP,
    EXIT_CHECKS,
    EXIT_CONFIG,
    EXIT_OK,
    ConfigError,
    build_initial,
    main,
    parse_config,
    read_csv,
    write_csv,
)
from logwave.functionals import CSV_COLUMNS, EnergyReport
from logwave.solver import integrate

MINIMAL = {
    "domain": {"dim": 3, "length": math.pi},
    "model": {"gamma": 4.0},
    "initial": {"amplitude": 0.05},
}


# a row of E = inf; the cells it does not name are 1
INFINITE_ROW = {"t": 0, "E": "inf", "kinetic": "inf", "cross_term": 0,
                "damping_integral": 0, "identity_residual": 0}


def csv_text(*rows) -> str:
    """A trajectory CSV of the given rows, each a dict of cells by column;
    a cell that a row does not name is 1."""
    return "".join(",".join(str(row.get(c, 1)) for c in CSV_COLUMNS) + "\n"
                   for row in ({c: c for c in CSV_COLUMNS}, *rows))


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


def lower_range_config(tmp_path, gamma):
    """(0, pi)^3 at m=6 with first-eigenmode data of amplitude 0.05, to t_end 1."""
    return write_config(tmp_path / "config.json", {
        "domain": {"dim": 3, "length": math.pi, "modes_per_dim": 6},
        "model": {"gamma": gamma},
        "solver": {"t_end": 1.0},
        "initial": {"amplitude": 0.05},
    })


class TestParseConfig:
    def test_minimal_defaults(self):
        cfg = parse_config(json.dumps(MINIMAL))
        assert cfg.domain.modes_per_dim == 8
        assert cfg.domain.oversample == 2
        assert cfg.solver.dt == 1e-3
        assert cfg.solver.t_end == 20.0
        assert cfg.solver.report_every == 10
        assert cfg.initial.type == "eigenmode"
        assert cfg.initial.mode == (1, 1, 1)
        assert cfg.well.trial_count == 32
        assert cfg.well.safety == 0.5
        assert cfg.solver.blowup_threshold == 1e8
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
                    "model": ["source_enabled"],
                    "solver": ["dt", "t_end", "blowup_threshold", "report_every"],
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
        ("study", "m_list", 8), ("outputs", "csv_path", "sub/t.csv"),
        ("outputs", "json_path", "/tmp/s.json"), ("outputs", "json_path", "trajectory.csv"),
        ("outputs", "csv_path", "summary.json.tmp"), ("initial", "type", "wave"),
        ("well", "safety", 1.5), ("study", "epsilons", [1e200]), ("study", "epsilons", []),
    ])
    def test_bad_value_message_names_key_first(self, section, key, value):
        # the reader's message is not wrapped again in the section's name
        doc = json.loads(json.dumps(MINIMAL))
        doc.setdefault(section, {})[key] = value
        with pytest.raises(ConfigError) as info:
            parse_config(json.dumps(doc))
        assert str(info.value).startswith(f"'{section}.{key}' must")

    @pytest.mark.parametrize("section,key,value", [
        ("outputs", "csv_path", 3), ("outputs", "json_path", ["a"]),
        ("initial", "type", False), ("initial", "path", 0),
    ])
    def test_string_keys_take_only_strings(self, tmp_path, capsys, section, key, value):
        # str() would turn these into a file named '3' or drop the path
        cfg = fast_run_config(tmp_path, **{section: {key: value}})
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--output-dir", str(out), "--quiet"]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: '{section}.{key}' must be a string, got {value!r}\n")
        assert not out.exists()

    @pytest.mark.parametrize("doc,message", [
        ([], "top-level document must be an object"),
        ({"domain": 3}, "section 'domain' must be an object"),
        (dict(MINIMAL, solver={"dt": 10 ** 400}), "'solver.dt' is out of floating-point range"),
        (dict(MINIMAL, study={"m_list": [4, 8, 10 ** 160]}), "'study.m_list': "),
    ], ids=["list", "section-not-object", "dt-huge-integer", "m-list-huge"])
    def test_document_rejected_naming_the_fault(self, tmp_path, capsys, doc, message):
        cfg = write_config(tmp_path / "config.json", doc)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--output-dir", str(out), "--quiet"]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("model,path", [
        ('"model": {"gamma": 4.0, "gamma": 5.5}', "model.gamma"),
        ('"model": {"gamma": 4.0}, "model": {"gamma": 5.5}', "model"),
    ], ids=["key", "section"])
    def test_repeated_key_exits_before_work(self, tmp_path, capsys, model, path):
        # plain json.loads keeps the last value, so this ran at gamma 5.5
        cfg = tmp_path / "config.json"
        cfg.write_text('{"domain": {"dim": 3, "length": 3.0, "modes_per_dim": 4}, '
                       f'{model}, "initial": {{"amplitude": 0.05}}, '
                       '"well": {"trial_count": 2}}')
        out = tmp_path / "out"
        assert main(["welldepth", "--config", str(cfg), "--output-dir", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr() == ("", f"config error: repeated key '{path}'\n")
        assert not out.exists()

    def test_config_not_utf8_exits_config(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_bytes(b"\xff\xfe{}")
        assert main(["run", "--config", str(cfg), "--output-dir", str(tmp_path / "out")]) == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"config error: '{cfg}' is not UTF-8 text: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_docstring_defaults_match_the_dataclasses(self):
        # logwave.cli.__doc__ lists every default for users; its dataclass
        # field owns the value
        documented = {}
        section = None
        for line in logwave.cli.__doc__.splitlines():
            if not line.startswith("    "):  # the indented block of sections
                continue
            head, _, body = line.strip().partition(":")
            if head in _SCHEMA:
                section, line = head, body
            for key, value in re.findall(r'(\w+)=("[^"]*"|\[[^]]*\]|[^,\s]+)', line):
                documented[f"{section}.{key}"] = value
        del documented["initial.mode"]  # [1,...]: its length is domain.dim
        defaults = {f"{name}.{f.name}": f.default
                    for name, (cls, readers) in _SCHEMA.items()
                    for f in fields(cls)
                    if f.name in readers and f.default not in (MISSING, None)}
        assert sorted(documented) == sorted(defaults)
        for key, text in documented.items():
            value = json.loads(text)
            value = tuple(value) if isinstance(value, list) else value
            assert (type(value), value) == (type(defaults[key]), defaults[key]), key

    def test_gamma_window_enforced(self):
        for gamma in (2.0, 6.0):
            doc = dict(MINIMAL, model={"gamma": gamma})
            with pytest.raises(ConfigError, match=r"model: gamma=.* outside \(2, 6\) for dim=3"):
                parse_config(json.dumps(doc))
        for gamma in (3.5, 5.9):
            doc = dict(MINIMAL, model={"gamma": gamma})
            assert parse_config(json.dumps(doc)).model.gamma == gamma

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
        with pytest.raises(ConfigError, match="'initial.path' for type=file"):
            parse_config(json.dumps(dict(MINIMAL, initial={"type": "file"})))

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

    @pytest.mark.parametrize("kind,key,value", [
        ("eigenmode", "path", "u.npz"), ("random", "mode", [2, 2, 2]),
        ("random", "path", "u.npz"), ("file", "mode", [1, 1, 1]),
    ])
    def test_initial_key_its_type_does_not_read_is_rejected(self, kind, key, value):
        initial = {"type": kind, "amplitude": 0.05, key: value}
        if kind == "file":
            initial.setdefault("path", "u.npz")
        with pytest.raises(ConfigError, match=f"^'initial.{key}' is not read by type={kind}$"):
            parse_config(json.dumps(dict(MINIMAL, initial=initial)))

    @pytest.mark.parametrize("kind", ["eigenmode", "random", "file"])
    def test_initial_keys_of_every_type(self, kind):
        # seed for every type (depend draws from it), and null means unset
        initial = {"type": kind, "amplitude": 0.05, "seed": 3, "mode": None, "path": None}
        initial.update({"eigenmode": {"mode": [2, 1, 1]}, "random": {},
                        "file": {"path": "u.npz"}}[kind])
        spec = parse_config(json.dumps(dict(MINIMAL, initial=initial))).initial
        assert (spec.type, spec.amplitude, spec.seed) == (kind, 0.05, 3)
        assert spec.mode == ((2, 1, 1) if kind == "eigenmode" else (1, 1, 1))
        assert spec.path == ("u.npz" if kind == "file" else None)

    def test_unread_initial_key_exits_before_work(self, tmp_path, capsys):
        cfg = fast_run_config(tmp_path, initial={"type": "random", "mode": [2, 2, 2],
                                                 "path": "nope.npz"})
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--output-dir", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr() == (
            "", "config error: 'initial.mode' is not read by type=random\n")
        assert not out.exists()

    def test_type_errors_carry_paths(self):
        doc = dict(MINIMAL, solver={"dt": "fast"})
        with pytest.raises(ConfigError, match="solver.dt"):
            parse_config(json.dumps(doc))

    @pytest.mark.parametrize("key", ["source_enabled"])
    @pytest.mark.parametrize("value", ["false", "true", 0, 1, []])
    def test_booleans_must_be_json_booleans(self, key, value):
        doc = dict(MINIMAL, model={"gamma": 4.0, key: value})
        with pytest.raises(ConfigError, match=f"model.{key}"):
            parse_config(json.dumps(doc))

    def test_string_false_does_not_admit_unsafe_gamma(self, tmp_path, capsys):
        # the key is gone, so a supercritical gamma cannot be forced
        for value in ("false", True):
            cfg = fast_run_config(tmp_path, model={"gamma": 7.0, "unsafe_gamma": value})
            assert main(["run", "--config", cfg, "--output-dir", str(tmp_path),
                         "--quiet"]) == EXIT_CONFIG
            assert "unknown key 'model.unsafe_gamma'" in capsys.readouterr().err

    def test_scheme_is_an_unknown_key(self, tmp_path, capsys):
        # there is one time-stepping scheme, so no key chooses it
        for value in ("IMEX2", "IMEX1"):
            cfg = fast_run_config(tmp_path, solver={"scheme": value})
            out = tmp_path / "out"
            assert main(["run", "--config", cfg, "--output-dir", str(out)]) == EXIT_CONFIG
            captured = capsys.readouterr()
            assert captured.err == "config error: unknown key 'solver.scheme'\n"
            assert captured.out == ""
            assert not out.exists()

    # a subnormal dt gives an infinite step count, and t_end / dt underflowing
    # to 0 gives no step
    @pytest.mark.parametrize("t_end,dt", [(1.0, 0.3), (0.25, 0.1), (1e-4, 1e-3), (1.0, 5e-324),
                                          (1e-300, 1e300)])
    def test_t_end_must_be_multiple_of_dt(self, tmp_path, t_end, dt):
        doc = dict(MINIMAL, solver={"dt": dt, "t_end": t_end})
        with pytest.raises(ConfigError, match="solver: t_end .* whole number of dt"):
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

    @pytest.mark.parametrize("name", ["s\u0000.json", "s\ud800.json", "s" * 248 + ".json"],
                             ids=["nul", "lone-surrogate", "tmp-over-name-max"])
    def test_output_name_no_file_can_have_exits_before_work(self, tmp_path, capsys, name):
        # the '.tmp' name of the third is 257 bytes, past NAME_MAX
        for key in ("csv_path", "json_path"):
            cfg = fast_run_config(tmp_path, outputs={key: name})
            out = tmp_path / "out"
            assert main(["welldepth", "--config", cfg, "--output-dir", str(out)]) == EXIT_CONFIG
            captured = capsys.readouterr()
            assert captured.err.startswith(f"config error: 'outputs.{key}' ")
            assert captured.out == ""
            assert not out.exists()


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

    def test_from_file_overflowing_source_names_path(self, tmp_path, capsys):
        # the norms are finite, but |u|^(g-1) ln|u| of the dual norm is not
        npz = tmp_path / "init.npz"
        np.savez(npz, u0=np.full((2, 2, 2), 1e100))
        cfg = fast_run_config(tmp_path, domain={"modes_per_dim": 2},
                              initial={"type": "file", "path": str(npz)})
        assert main(["run", "--config", cfg, "--output-dir", str(tmp_path), "--quiet"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"data error: 'initial.path' ({npz}) puts the initial source "
                              "out of floating-point range")

    def test_from_file_without_u0_names_path(self, tmp_path, capsys):
        npz = tmp_path / "init.npz"
        np.savez(npz, u1=np.zeros((4, 4, 4)))
        cfg = fast_run_config(tmp_path, initial={"type": "file", "path": str(npz)})
        assert main(["run", "--config", cfg, "--output-dir", str(tmp_path), "--quiet"]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"data error: 'initial.path' ({npz}): no 'u0' array\n"

    @pytest.mark.parametrize("name,u0,message", [
        ("init.npy", np.zeros((4, 4, 4)), "not an .npz archive"),
        ("init.npz", np.full((4, 4, 4), "0"), "'u0' has dtype <U1"),
        ("init.npz", np.full((4, 4, 4), 0.05j), "'u0' has dtype complex128"),
        ("init.npz", np.ones((4, 4, 4), bool), "'u0' has dtype bool"),
        ("init.npz", b"PK\x03\x04", "File is not a zip file"),
        ("init.npz", b"", "No data left in file"),
    ], ids=["npy", "string", "complex", "bool", "truncated", "empty"])
    def test_from_file_takes_only_a_real_npz(self, tmp_path, capsys, name, u0, message):
        # a plain array, strings, complex or bool values are not real
        # coefficients, and a cut-off archive is no archive
        path = tmp_path / name
        if isinstance(u0, bytes):
            path.write_bytes(u0)
        elif name.endswith(".npy"):
            np.save(path, u0)
        else:
            np.savez(path, u0=u0)
        cfg = fast_run_config(tmp_path, initial={"type": "file", "path": str(path)})
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--output-dir", str(out)]) == EXIT_CONFIG
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err.startswith(f"data error: 'initial.path' ({path}): {message}")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_from_missing_file(self, tmp_path):
        cfg = fast_run_config(tmp_path, initial={"type": "file",
                                                 "path": str(tmp_path / "absent.npz")})
        assert main(["run", "--config", cfg, "--output-dir", str(tmp_path), "--quiet"]) == EXIT_CONFIG

    @pytest.mark.parametrize("command", ["run", "converge", "depend"])
    def test_missing_file_exits_before_any_work(self, tmp_path, capsys, monkeypatch, command):
        # the initial data are read before the output directory is made and
        # before the well depth is estimated
        calls = []
        project = well.project_to_nehari

        def counted(*args):
            calls.append(args)
            return project(*args)

        monkeypatch.setattr(well, "project_to_nehari", counted)
        cfg = fast_run_config(tmp_path, initial={"type": "file",
                                                 "path": str(tmp_path / "absent.npz")})
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--output-dir", str(out), "--quiet"]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("data error: 'initial.path' (")
        assert not out.exists()
        assert calls == []
        # the wrapper does see the projections of a run that gets going
        assert main(["welldepth", "--config", cfg, "--output-dir", str(out), "--quiet"]) == EXIT_OK
        assert len(calls) == 3

    @pytest.mark.parametrize("command,sections", [
        ("verify", {}),  # no CSV to read
        ("welldepth", {"domain": {"length": 1e-100}}),  # degenerate trial fields
    ], ids=["verify-no-csv", "welldepth-degenerate"])
    def test_data_error_leaves_no_output_dir(self, tmp_path, capsys, command, sections):
        # the output directory is made only once a command has its result
        cfg = fast_run_config(tmp_path, **sections)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--output-dir", str(out), "--quiet"]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("data error: ")
        assert not out.exists()


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

    # the lower range 2 < gamma < 4 of earlier work, which the window joins
    # to the paper's upper range [4, 6)
    @pytest.mark.parametrize("gamma", [3.0, 2.001])
    def test_lower_subcritical_range(self, tmp_path, gamma):
        cfg = lower_range_config(tmp_path, gamma)
        code = main(["run", "--config", cfg, "--output-dir", str(tmp_path), "--quiet"])
        assert code == EXIT_OK
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert (summary["status"], summary["stable_set"]["status"]) == ("COMPLETED", "IN")
        mandatory = [c["status"] for c in summary["checks"] if c["mandatory"]]
        assert mandatory == ["PASS"] * 7

    def test_lower_subcritical_well_depth(self, tmp_path):
        # the code's own value at m=6; it reads 63.72 at m=8 as well
        cfg = lower_range_config(tmp_path, 3.0)
        code = main(["welldepth", "--config", cfg, "--output-dir", str(tmp_path), "--quiet"])
        assert code == EXIT_OK
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["d_hat"] == pytest.approx(63.72675573486259, rel=1e-12)

    # verify re-checks the CSV that run wrote into its directory; both runs
    # write into one fresh directory, since verify's summary names its CSV
    @pytest.mark.parametrize("command", ["run", "welldepth", "converge", "depend", "verify"])
    def test_byte_identical_reruns(self, tmp_path, command):
        cfg = fast_run_config(tmp_path, solver={"t_end": 0.1}, study={"m_list": [2, 4]})
        out = tmp_path / "out"
        written = []
        for _ in range(2):
            shutil.rmtree(out, ignore_errors=True)
            if command == "verify":
                assert main(["run", "--config", cfg, "--output-dir", str(out), "--quiet"]) == EXIT_OK
            assert main([command, "--config", cfg, "--output-dir", str(out), "--quiet"]) == EXIT_OK
            written.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert sorted(written[0]) == (["summary.json", "trajectory.csv"]
                                      if command in ("run", "verify") else ["summary.json"])
        assert written[0] == written[1]

    def test_blowup_exit_code(self, tmp_path):
        cfg = write_config(tmp_path / "blow.json", {
            "domain": {"dim": 1, "length": math.pi, "modes_per_dim": 16},
            "model": {"gamma": 4.0},
            "solver": {"dt": 1e-3, "t_end": 5.0},
            "initial": {"amplitude": 10.0},
            "well": {"trial_count": 1},
        })
        code = main(["run", "--config", cfg, "--output-dir", str(tmp_path), "--quiet"])
        assert code == EXIT_BLOWUP
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["status"] == "BLOWUP"
        assert 0 < summary["t_max"] < 5.0

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

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = write_config(tmp_path / "bad.json", dict(MINIMAL, model={"gamma": 6.0}))
        assert main(["run", "--config", bad, "--quiet"]) == EXIT_CONFIG
        assert "outside (2, 6) for dim=3" in capsys.readouterr().err
        assert main(["run", "--config", str(tmp_path / "missing.json"), "--quiet"]) == EXIT_CONFIG


class TestOtherCommands:
    # 40 random trials are more than one block (well.TRIAL_BLOCK) of the
    # streamed trial family
    @pytest.mark.parametrize("trial_count", [0, 40])
    def test_welldepth_single_trial(self, tmp_path, trial_count):
        cfg = fast_run_config(tmp_path, well={"trial_count": trial_count})
        code = main(["welldepth", "--config", cfg, "--output-dir", str(tmp_path), "--quiet"])
        assert code == EXIT_OK
        report = json.loads((tmp_path / "summary.json").read_text())
        assert report["d_hat"] > 0
        assert [t["label"] for t in report["trials"]] == (
            ["eigenmode-1"] + [f"random-{i:02d}" for i in range(trial_count)])
        assert all(t["lambda_star"] > 0 for t in report["trials"])

    def test_welldepth_degenerate_field_exits_config(self, tmp_path, capsys):
        # on a box of side 1e-100 the trials' Nehari points lie near 1e100,
        # where lambda*^gamma leaves the float range
        cfg = fast_run_config(tmp_path, domain={"length": 1e-100})
        code = main(["welldepth", "--config", cfg, "--output-dir", str(tmp_path), "--quiet"])
        assert code == EXIT_CONFIG
        assert "data error" in capsys.readouterr().err

    # |u|^gamma leaves the float range on some trial: at a huge gamma on a
    # unit-scale box (where exp overflows at 500 and 5000, with no warning), and
    # at a moderate gamma on a box of side 1e101 at m=8 (at m=4 that box still
    # has a Nehari point on every trial)
    @pytest.mark.parametrize("command", ["run", "welldepth"])
    @pytest.mark.parametrize("domain,gamma,keys,reason", [
        ({"dim": 1}, 1e10, "'model.gamma' (1e+10) and 'domain.length' (3.14159)",
         "degenerate trial (A=1.5708, G=0)"),
        ({"length": 1e101, "modes_per_dim": 8}, 5.9,
         "'model.gamma' (5.9) and 'domain.length' (1e+101)", "non-finite fibering moments"),
        ({"dim": 1, "modes_per_dim": 8}, 500.0,
         "'model.gamma' (500) and 'domain.length' (3.14159)", "non-finite fibering moments"),
        ({"dim": 1, "modes_per_dim": 8}, 5000.0,
         "'model.gamma' (5000) and 'domain.length' (3.14159)", "non-finite fibering moments"),
    ], ids=["gamma", "length", "gamma500", "gamma5000"])
    def test_no_nehari_point_names_gamma_and_length(self, tmp_path, capsys, command, domain,
                                                    gamma, keys, reason):
        cfg = fast_run_config(tmp_path, domain=domain, model={"gamma": gamma})
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--config", cfg, "--output-dir", str(out)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.startswith(f"data error: {keys} give no Nehari point: {reason}")
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert not out.exists()

    # 200000 modes per axis in 3-D ask for 56.8 PiB, more than any address
    # space holds, so the allocation fails at once.  Never test with a size
    # that fits in virtual memory: the system may grant it, then kill the
    # process when the memory is first touched.  3000000 modes, or an
    # oversample of 1e6, ask for arrays past sys.maxsize bytes, which NumPy
    # refuses with a ValueError, so the config check rejects them first.
    @pytest.mark.parametrize("command,sections,prefix", [
        ("run", {"domain": {"modes_per_dim": 200000}}, "data error: 'domain.modes_per_dim' (200000)"),
        ("welldepth", {"domain": {"modes_per_dim": 200000}}, "data error: 'domain.modes_per_dim' (200000)"),
        ("depend", {"domain": {"modes_per_dim": 200000}}, "data error: 'domain.modes_per_dim' (200000)"),
        ("converge", {"domain": {"modes_per_dim": 200000}}, "data error: 'domain.modes_per_dim' (200000)"),
        ("converge", {"study": {"m_list": [4, 200000]}}, "data error: 'study.m_list' ([4, 200000])"),
        ("run", {"domain": {"modes_per_dim": 3000000}}, "config error: domain: modes_per_dim 3000000"),
        ("welldepth", {"domain": {"modes_per_dim": 3000000}}, "config error: domain: modes_per_dim 3000000"),
        ("depend", {"domain": {"modes_per_dim": 3000000}}, "config error: domain: modes_per_dim 3000000"),
        ("converge", {"domain": {"modes_per_dim": 3000000}}, "config error: domain: modes_per_dim 3000000"),
        ("converge", {"study": {"m_list": [4, 3000000]}},
         "config error: 'study.m_list': modes_per_dim 3000000"),
        ("run", {"domain": {"oversample": 10 ** 6}},
         "config error: domain: modes_per_dim 4 with oversample 1000000"),
        ("welldepth", {"domain": {"oversample": 10 ** 6}},
         "config error: domain: modes_per_dim 4 with oversample 1000000"),
    ], ids=["run", "welldepth", "depend", "converge", "converge-level", "run-limit",
            "welldepth-limit", "depend-limit", "converge-limit", "converge-level-limit",
            "run-oversample", "welldepth-oversample"])
    def test_band_beyond_memory_names_the_key(self, tmp_path, capsys, command, sections, prefix):
        cfg = fast_run_config(tmp_path, solver={"t_end": 0.01}, **sections)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--output-dir", str(out)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        if prefix.startswith("data error"):
            assert captured.err.startswith(f"{prefix}: Unable to allocate 56.8 PiB")
        else:
            assert captured.err.startswith(prefix)
            assert captured.err.endswith(" gives arrays beyond NumPy's size limit\n")
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.xfail(strict=True, reason="depend draws its perturbation direction from "
                       "initial.seed, the seed of random initial data, so it perturbs "
                       "u0 along u0 itself")
    def test_depend_perturbs_random_data_off_itself(self, tmp_path, monkeypatch):
        starts = []
        real = analysis.integrate

        def capture(u0, *args, **kwargs):
            starts.append(u0)
            return real(u0, *args, **kwargs)

        monkeypatch.setattr(analysis, "integrate", capture)
        cfg = fast_run_config(tmp_path, solver={"t_end": 0.01}, study={"epsilons": [1e-3]},
                              initial={"type": "random", "seed": 7})
        assert main(["depend", "--config", cfg, "--output-dir", str(tmp_path), "--quiet"]) == EXIT_OK
        base, perturbed = starts
        lam, d, u = base.domain.eigenvalues, (perturbed - base).coeffs, base.coeffs
        # the H^1_0 cosine; the basis norm cancels
        cosine = (lam * d * u).sum() / math.sqrt((lam * d * d).sum() * (lam * u * u).sum())
        assert abs(cosine) < 0.5

    @pytest.mark.parametrize("command", ["run", "welldepth"])
    def test_output_dir_naming_a_file_exits_config(self, tmp_path, capsys, command):
        # reported once the command has its result, with the file left as it was
        cfg = fast_run_config(tmp_path)
        out = tmp_path / "taken"
        out.write_text("keep\n")
        assert main([command, "--config", cfg, "--output-dir", str(out), "--quiet"]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("data error: ")
        assert out.read_text() == "keep\n"
        # without --quiet, stdout stays empty too
        assert main([command, "--config", cfg, "--output-dir", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().out == ""

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
        summaries = {}
        for command in ("run", "verify"):
            assert main([command, "--config", cfg, "--output-dir", str(tmp_path), "--quiet"]) == EXIT_OK
            summaries[command] = json.loads((tmp_path / "summary.json").read_text())
        for block in ("estimates", "decay_fit"):
            assert summaries["run"][block] == summaries["verify"][block]
        checks = {command: summary["checks"] for command, summary in summaries.items()}
        names = {c["name"]: c for c in checks["verify"]}
        assert names["energy_identity"]["status"] == "PASS"
        assert names["poincare_margin"]["status"] == "PASS"
        # both commands evaluate one check table on one record; verify has no
        # stable-set verdict, so it skips the three rows that need it and
        # agrees on all others, and on the estimates and the decay fit
        assert [c["name"] for c in checks["run"]] == [c["name"] for c in checks["verify"]]
        skipped = {"invariance_I_positive", "invariance_E_below_threshold", "uniform_bound"}
        for ran, verified in zip(checks["run"], checks["verify"]):
            if ran["name"] in skipped:
                assert (ran["status"], verified["status"]) == ("PASS", "SKIP")
            else:
                assert ran == verified

    @pytest.mark.parametrize("command", ["run", "verify", "depend", "converge", "welldepth"])
    @pytest.mark.parametrize("length", [1e150, 1e-160])
    def test_length_out_of_float_range_exits_config(self, tmp_path, capsys, command, length):
        cfg = fast_run_config(tmp_path, domain={"length": length})
        assert main([command, "--config", cfg, "--output-dir", str(tmp_path), "--quiet"]) == EXIT_CONFIG
        assert "length" in capsys.readouterr().err

    def test_verify_rejects_malformed_csv(self, tmp_path, capsys):
        cfg = fast_run_config(tmp_path)
        header = ",".join(CSV_COLUMNS).encode()
        for content, message in [
            (b"t,E\n0,1\n", "does not carry the expected column set"),
            (b"\xff\xfe\x00t,E\n", "is not a CSV file"),
            (csv_text({"E": "x"}).encode(), "malformed row"),
            (header + b"\n", "holds no samples"),
        ]:
            (tmp_path / "trajectory.csv").write_bytes(content)
            code = main(["verify", "--config", cfg, "--output-dir", str(tmp_path), "--quiet"])
            assert code == EXIT_CONFIG
            assert message in capsys.readouterr().err

    def test_verify_flags_corrupted_ledger(self, tmp_path):
        cfg = fast_run_config(tmp_path)
        assert main(["run", "--config", cfg, "--output-dir", str(tmp_path), "--quiet"]) == EXIT_OK
        csv_path = tmp_path / "trajectory.csv"
        lines = csv_path.read_text().splitlines()
        cells = lines[-1].split(",")
        cells[CSV_COLUMNS.index("identity_residual")] = "0.5"  # far above tolerance
        lines[-1] = ",".join(cells)
        csv_path.write_text("\n".join(lines) + "\n")
        code = main(["verify", "--config", cfg, "--output-dir", str(tmp_path), "--quiet"])
        assert code == EXIT_CHECKS
        report = json.loads((tmp_path / "summary.json").read_text())
        names = {c["name"]: c for c in report["checks"]}
        assert names["energy_identity"]["status"] == "FAIL"

    @pytest.mark.parametrize("row", [1, 3])
    def test_verify_fails_a_nan_ledger_in_any_row(self, tmp_path, capsys, row):
        cfg = fast_run_config(tmp_path, solver={"t_end": 0.1})
        assert main(["run", "--config", cfg, "--output-dir", str(tmp_path), "--quiet"]) == EXIT_OK
        csv_path = tmp_path / "trajectory.csv"
        lines = csv_path.read_text().splitlines()
        cells = lines[row].split(",")
        cells[CSV_COLUMNS.index("identity_residual")] = "nan"
        lines[row] = ",".join(cells)
        csv_path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = main(["verify", "--config", cfg, "--output-dir", str(tmp_path)])
        assert code == EXIT_CHECKS
        assert "FAIL energy_identity measured=nan" in capsys.readouterr().out

    def test_verify_fails_infinite_initial_energy(self, tmp_path, capsys):
        # every check relative to an infinite E(0) would read 0 and pass
        cfg = fast_run_config(tmp_path)
        (tmp_path / "trajectory.csv").write_text(csv_text(INFINITE_ROW))
        code = main(["verify", "--config", cfg, "--output-dir", str(tmp_path)])
        assert code == EXIT_CHECKS
        out = capsys.readouterr().out
        assert "FAIL energy_identity" in out
        assert "FAIL monotone_dissipation" in out
        assert "PASS" not in out

    def test_verify_infinite_rows_warn_nothing(self, tmp_path, capsys):
        cfg = fast_run_config(tmp_path)
        (tmp_path / "trajectory.csv").write_text(
            csv_text(INFINITE_ROW, {**INFINITE_ROW, "t": 0.01}))
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

    @pytest.mark.parametrize("sections,n_times,n_rows", [
        # the base run blows up: nothing to compare against
        ({"initial": {"amplitude": 20.0}, "solver": {"blowup_threshold": 50.0}}, 0, 0),
        # the second perturbed run blows up: the base times and the first row stay
        ({"solver": {"t_end": 0.05, "blowup_threshold": 1e3},
          "study": {"epsilons": [1e-3, 1e6]}}, 6, 1),
    ], ids=["base", "perturbed"])
    def test_depend_blowup_exits_blowup(self, tmp_path, sections, n_times, n_rows):
        cfg = fast_run_config(tmp_path, **sections)
        assert main(["depend", "--config", cfg, "--output-dir", str(tmp_path), "--quiet"]) == EXIT_BLOWUP
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["status"] == "BLOWUP"
        assert len(summary["times"]) == n_times
        assert [len(row) for row in summary["D"]] == [n_times] * n_rows

    # gamma ** 2 overflows above about 1.34e154, and 1-D and 2-D admit every gamma > 2
    @pytest.mark.parametrize("command,dim,gamma", [("converge", 2, 1.4e154),
                                                   ("depend", 2, 1.4e154),
                                                   ("verify", 1, 1e200)])
    def test_gamma_whose_square_overflows_exits_cleanly(self, tmp_path, capsys, command,
                                                        dim, gamma):
        sections = {"domain": {"dim": dim}, "study": {"m_list": [2, 4]}}
        if command == "verify":  # the trajectory to verify, from a run at gamma 4
            cfg = fast_run_config(tmp_path, **sections)
            assert main(["run", "--config", cfg, "--output-dir", str(tmp_path), "--quiet"]) == EXIT_OK
        cfg = fast_run_config(tmp_path, model={"gamma": gamma}, **sections)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, "--config", cfg, "--output-dir", str(tmp_path), "--quiet"])
        assert code == EXIT_OK
        assert capsys.readouterr().err == ""
        assert json.loads((tmp_path / "summary.json").read_text())["command"] == command

    def test_converge_blowup_names_the_level(self, tmp_path):
        cfg = fast_run_config(tmp_path, initial={"amplitude": 20.0},
                              solver={"blowup_threshold": 50.0}, study={"m_list": [2, 4]})
        assert main(["converge", "--config", cfg, "--output-dir", str(tmp_path), "--quiet"]) == EXIT_BLOWUP
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert (summary["status"], summary["failed_level"], summary["E_end"]) == ("BLOWUP", 0, [])


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """The output directory of one fast run, with its config."""
    out = tmp_path_factory.mktemp("run")
    cfg = fast_run_config(out)
    assert main(["run", "--config", cfg, "--output-dir", str(out), "--quiet"]) == EXIT_OK
    return out, cfg


# the mandatory rows that read each column when no stable-set verdict is at
# hand, as in verify; E(0) scales every row, so the NaN goes in a later row.
# No mandatory row reads J, lgamma, logterm or damping_integral.
MANDATORY_READERS = {
    "t": {"virial_identity"},
    "E": {"monotone_dissipation"},
    "J": set(),
    "I": {"virial_identity"},
    "kinetic": {"virial_identity", "poincare_margin"},
    "grad_sq": {"virial_identity"},
    "lgamma": set(),
    "logterm": set(),
    "cross_term": {"virial_identity"},
    "damping_integral": set(),
    "identity_residual": {"energy_identity"},
    "grad_ut_sq": {"poincare_margin"},
}


class TestTrajectoryRecord:
    """trajectory.csv carries every EnergyReport field, so verify reads the
    record run wrote and a NaN in any column fails the rows that read it."""

    def test_readers_cover_every_column(self):
        assert tuple(MANDATORY_READERS) == CSV_COLUMNS

    def test_roundtrip_of_a_run(self, run_dir):
        out, cfg = run_dir
        config = parse_config(Path(cfg).read_text())
        reports = integrate(*build_initial(config), config.solver, config.model).reports
        assert read_csv(out / "trajectory.csv") == reports

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.builds(EnergyReport, *[st.floats(allow_nan=False, allow_infinity=False)]
                              * len(CSV_COLUMNS)), min_size=1, max_size=5))
    def test_roundtrip_of_finite_floats(self, reports):
        with tempfile.TemporaryDirectory() as tmp:
            write_csv(Path(tmp) / "t.csv", reports)
            assert read_csv(Path(tmp) / "t.csv") == reports

    def test_eleven_column_csv_exits_config(self, run_dir, tmp_path, capsys):
        # the format before grad_ut_sq joined the columns: no path reads it
        out, cfg = run_dir
        lines = (out / "trajectory.csv").read_text().splitlines()
        (tmp_path / "trajectory.csv").write_text(
            "".join(line.rsplit(",", 1)[0] + "\n" for line in lines))
        assert main(["verify", "--config", cfg, "--output-dir", str(tmp_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "does not carry the expected column set" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("column", CSV_COLUMNS)
    def test_nan_in_a_column_fails_its_readers(self, run_dir, tmp_path, capsys, column):
        out, cfg = run_dir
        lines = (out / "trajectory.csv").read_text().splitlines()
        cells = lines[len(lines) // 2].split(",")
        cells[CSV_COLUMNS.index(column)] = "nan"
        lines[len(lines) // 2] = ",".join(cells)
        (tmp_path / "trajectory.csv").write_text("\n".join(lines) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["verify", "--config", cfg, "--output-dir", str(tmp_path), "--quiet"])
        assert capsys.readouterr().err == ""
        readers = MANDATORY_READERS[column]
        assert code == (EXIT_CHECKS if readers else EXIT_OK)
        checks = json.loads((tmp_path / "summary.json").read_text())["checks"]
        statuses = {c["name"]: c["status"] for c in checks if c["mandatory"]}
        assert {name for name, status in statuses.items() if status == "FAIL"} == readers
        assert "SKIP" not in {statuses[name] for name in readers}


def check_lines(summary):
    """The check lines a command prints from its summary."""
    def g(value):
        return "n/a" if value is None else f"{value:.6g}"
    return [f"{c['status']:4s} {c['name']} measured={g(c['measured'])} tolerance={g(c['tolerance'])}"
            for c in summary["checks"]]


class TestStdout:
    """What each command prints without --quiet, line for line."""

    def run(self, capsys, command, cfg, out, code=EXIT_OK):
        assert main([command, "--config", cfg, "--output-dir", str(out)]) == code
        return (capsys.readouterr().out.splitlines(),
                json.loads((out / "summary.json").read_text()))

    def test_run_then_verify(self, tmp_path, capsys):
        cfg = fast_run_config(tmp_path)
        out = tmp_path / "out"
        lines, s = self.run(capsys, "run", cfg, out)
        assert [c["name"] for c in s["checks"]] == [row.name for row in CHECKS]
        assert lines == [
            f"well depth estimate d_hat={s['well_depth']['d_hat']:.6g} "
            f"(threshold {s['stable_set']['threshold']:.6g}); stable set: IN",
            *check_lines(s),
            f"wrote {out}/trajectory.csv and {out}/summary.json",
        ]
        lines, s = self.run(capsys, "verify", cfg, out)
        assert len(lines) == len(CHECKS)
        assert lines == check_lines(s)

    def test_blowup_run(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "blow.json", {
            "domain": {"dim": 1, "length": math.pi, "modes_per_dim": 16},
            "model": {"gamma": 4.0},
            "solver": {"dt": 1e-3, "t_end": 5.0},
            "initial": {"amplitude": 10.0},
            "well": {"trial_count": 1},
        })
        out = tmp_path / "out"
        lines, s = self.run(capsys, "run", cfg, out, EXIT_BLOWUP)
        assert lines == [
            f"well depth estimate d_hat={s['well_depth']['d_hat']:.6g} "
            f"(threshold {s['stable_set']['threshold']:.6g}); "
            f"stable set: {s['stable_set']['status']}",
            f"BLOWUP at t={s['t_max']:.6g}; wrote {out}/trajectory.csv and {out}/summary.json",
        ]

    @pytest.mark.parametrize("command,sections,closing", [
        ("welldepth", {}, lambda s: f"d_hat={s['d_hat']:.12g} over 3 trials"),
        ("converge", {"solver": {"t_end": 0.5}, "study": {"m_list": [2, 4]}},
         lambda s: f"convergence PASS E_diffs={s['E_diffs']}"),
        ("depend", {"solver": {"t_end": 0.5}},
         lambda s: f"dependence status=COMPLETED growth_rate={s['growth_rate']:.6g}"),
    ], ids=["welldepth", "converge", "depend"])
    def test_summary_only_commands(self, tmp_path, capsys, command, sections, closing):
        cfg = fast_run_config(tmp_path, **sections)
        out = tmp_path / "out"
        lines, s = self.run(capsys, command, cfg, out)
        assert lines == [f"{closing(s)}; wrote {out}/summary.json"]


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
# (so dt and t_end never get a wrong number), trial_count <= 4 and one or two
# epsilons (none on the rare branch).  Lengths, amplitudes, exponents, time
# steps, thresholds and seeds range over all floats (nan and infinities
# included) and all integers; the typical exponent lies in the 3-D window.
# Output paths are relative, so nothing is written outside the test directory.
_TEXT = st.booleans() | st.text(max_size=3) | st.lists(st.integers(-1, 4), max_size=3)
_OPTIONAL = ("domain.oversample model.source_enabled solver.blowup_threshold "
             "solver.report_every initial.type initial.mode initial.seed initial.path "
             "well.safety well.seed outputs.csv_path outputs.json_path study.epsilons").split()


def _mostly(typical, rare):
    # hypothesis favours boundary values, so the rare branch sits in the middle
    return st.integers(0, 19).flatmap(lambda i: rare if i == 7 else typical)


def _extreme(low, high):
    return _mostly(st.floats(low, high), st.floats() | st.integers())


@st.composite
def config_documents(draw, data_files):
    dim = draw(_mostly(st.sampled_from([1, 2, 3]), st.integers(0, 4)))
    kind = draw(_mostly(st.sampled_from(["eigenmode", "random"]), st.just("file")))
    m = draw(_mostly(st.integers(1, 4), st.integers(-1, 0)))
    dt = draw(_extreme(1e-4, 0.1))
    seed = _mostly(st.integers(0, 2 ** 70), st.integers())
    paths = st.sampled_from(["t.csv", "s.json", "", ".", "..", "sub/t.csv"])
    doc = {
        "domain": {"dim": dim, "length": draw(_extreme(0.5, 5.0)), "modes_per_dim": m,
                   "oversample": draw(_mostly(st.integers(2, 3), st.integers(0, 1)))},
        "model": {"gamma": draw(_mostly(st.floats(2.0, 5.9, exclude_min=True),
                                        st.floats() | st.integers())),
                  "source_enabled": draw(_mostly(st.just(True), st.just(False)))},
        # a t_end 1 % off a multiple of dt is rejected
        "solver": {"dt": dt, "t_end": draw(st.integers(1, 50)) * dt
                   * draw(_mostly(st.just(1.0), st.just(1.01))),
                   "blowup_threshold": draw(_extreme(2.0, 1e10)),
                   "report_every": draw(_mostly(st.integers(1, 60), st.integers(-1, 0)))},
        "initial": {"type": kind,
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
                  "epsilons": draw(_mostly(st.lists(_extreme(0.0, 1e-2), min_size=1,
                                                    max_size=2), st.just([])))},
    }
    # mode and path go to the one type that reads each, but on the rare branch
    for key, reader in (("mode", "eigenmode"), ("path", "file")):
        if kind != reader and draw(_mostly(st.just(True), st.just(False))):
            del doc["initial"][key]
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
            (out / name).write_text(csv_text({c: 0.5 for c in CSV_COLUMNS}))
        config = write_config(tmp / "config.json", doc)
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")
            code = main([command, "--config", config, "--output-dir", str(out), "--quiet"])
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_BLOWUP, EXIT_CHECKS)
