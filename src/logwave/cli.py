"""Configuration parsing, experiment orchestration and file output.

One JSON config document drives every subcommand.  Each section is read
into one dataclass, and the defaults below are its fields' defaults: a key
left out or null takes the default, and one without a default is required.

    domain:  dim (required), length (required), modes_per_dim=8, oversample=2
    model:   gamma (required; 2 < gamma < 6 at dim 3, any gamma > 2 at dim 1
             and 2), source_enabled=true
    solver:  dt=1e-3, t_end=20.0 (an integer multiple of dt),
             blowup_threshold=1e8, report_every=10
    initial: type="eigenmode" | "random" | "file", seed=0, and only its type's
             keys: eigenmode: amplitude (required), mode=[1,...]; random:
             amplitude (required); file: path (required), amplitude (1.0)
    well:    trial_count=32, safety=0.5, seed=0
    outputs: csv_path="trajectory.csv", json_path="summary.json"
    study:   m_list=[4,8,16], epsilons=[1e-3,1e-4]

Seeds and trial_count are nonnegative integers; type, path,
csv_path and json_path take only strings.  path names an .npz archive
holding u0 and, optionally, u1: integer or float coefficient arrays of the
modal shape.  csv_path and json_path are two distinct bare file names, both
written in --output-dir, and neither is the other plus ".tmp" (each file is
written to its name plus ".tmp" first), and has no NUL byte and at most 251
bytes encoded; any other name exits 2 before any work.  SolverConfig itself
rejects a t_end that is not a whole number of dt steps, or is zero steps.
Unknown and repeated keys are rejected.
Exit codes: 0 success, 2 configuration or data error, 3 blow-up, 4 mandatory
check failure.  Only ``main`` prints, and a command that exits 2 prints
nothing on stdout.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import zipfile
from dataclasses import MISSING, asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .analysis import continuous_dependence, convergence_study, mandatory_ok, run_checks
from .domain import DomainSpec, ModalField, grad_norm_sq, l2_norm_sq, random_band_limited
from .functionals import CSV_COLUMNS, EnergyReport, ModelParams, source_dual_norm
from .solver import BLOWUP, COMPLETED, InitialEnergyError, SolverConfig, integrate
from .well import DegenerateFieldError, default_trial_family, estimate_depth, stable_set_check

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BLOWUP = 3
EXIT_CHECKS = 4


class ConfigError(ValueError):
    """Configuration document rejected; message carries the key path."""


@dataclass(frozen=True, kw_only=True)
class InitialSpec:
    type: str = "eigenmode"
    amplitude: float
    mode: tuple[int, ...]
    seed: int = 0
    path: str | None = None


@dataclass(frozen=True)
class WellSpec:
    trial_count: int = 32
    safety: float = 0.5
    seed: int = 0


@dataclass(frozen=True)
class OutputSpec:
    csv_path: str = "trajectory.csv"
    json_path: str = "summary.json"


@dataclass(frozen=True)
class StudySpec:
    m_list: tuple[int, ...] = (4, 8, 16)
    epsilons: tuple[float, ...] = (1e-3, 1e-4)


@dataclass(frozen=True)
class RunConfig:
    domain: DomainSpec
    model: ModelParams
    solver: SolverConfig
    initial: InitialSpec
    well: WellSpec
    outputs: OutputSpec
    study: StudySpec


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"'{path}' must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"'{path}' is out of floating-point range") from None


def _boolean(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"'{path}' must be true or false, got {value!r}")
    return value


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"'{path}' must be an integer, got {value!r}")
    return value


def _count(value, path: str) -> int:
    """A nonnegative integer: a seed or a number of items."""
    if _integer(value, path) < 0:
        raise ConfigError(f"'{path}' must be a nonnegative integer, got {value!r}")
    return value


def _string(value, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"'{path}' must be a string, got {value!r}")
    return value


def _unchecked(value, path: str):
    """A value that a cross-key rule of ``parse_config`` checks: ``initial.mode``,
    whose length and range depend on ``domain``."""
    return value


def _m_list(value, path: str) -> tuple[int, ...]:
    if (not isinstance(value, list) or len(value) < 2
            or not all(isinstance(m, int) and not isinstance(m, bool) and m >= 1 for m in value)
            or any(b <= a for a, b in zip(value, value[1:]))):
        raise ConfigError(f"'{path}' must be a strictly increasing list of >= 2 "
                          "positive integers")
    return tuple(value)


def _epsilons(value, path: str) -> tuple[float, ...]:
    # the report divides by eps^2, which must neither overflow nor vanish
    if not isinstance(value, list) or not value or not all(
            isinstance(e, (int, float)) and not isinstance(e, bool)
            and (e == 0 or (0 < e < 1e154 and e * e > 0)) for e in value):
        raise ConfigError(f"'{path}' must be a nonempty list of numbers, each 0 or in "
                          "(0, 1e154) with a nonzero square")
    return tuple(float(e) for e in value)


# Each section's dataclass and its keys, each with the reader that checks and
# converts its value; any other section or key is rejected.  parse_config sets
# the defaults of initial.mode and a file's amplitude; the rest are the fields'.
_SCHEMA = {
    "domain": (DomainSpec, {"dim": _integer, "length": _number,
                            "modes_per_dim": _integer, "oversample": _integer}),
    "model": (ModelParams, {"gamma": _number, "source_enabled": _boolean}),
    "solver": (SolverConfig, {"dt": _number, "t_end": _number,
                              "blowup_threshold": _number, "report_every": _integer}),
    "initial": (InitialSpec, {"type": _string, "amplitude": _number, "mode": _unchecked,
                              "seed": _count, "path": _string}),
    "well": (WellSpec, {"trial_count": _count, "safety": _number, "seed": _count}),
    "outputs": (OutputSpec, {"csv_path": _string, "json_path": _string}),
    "study": (StudySpec, {"m_list": _m_list, "epsilons": _epsilons}),
}

# the initial keys each type reads; seed for every type, as depend draws from it
_INITIAL_KEYS = {"eigenmode": ("type", "amplitude", "mode", "seed"),
                 "random": ("type", "amplitude", "seed"),
                 "file": ("type", "path", "amplitude", "seed")}


def _read(doc: dict, section: str) -> dict:
    """The section's keys that are set, each through its reader.  A key left
    out or set to null is not passed, so its field's default applies."""
    body = doc.get(section, {})
    return {key: read(body[key], f"{section}.{key}")
            for key, read in _SCHEMA[section][1].items() if body.get(key) is not None}


def _build(section: str, values: dict):
    """The section's dataclass from ``values``; a key whose field has no
    default is required.  Only the constructor's own errors get the section
    as a prefix."""
    cls, readers = _SCHEMA[section]
    for f in fields(cls):
        if f.name in readers and f.name not in values and f.default is MISSING:
            raise ConfigError(f"missing required key '{section}.{f.name}'")
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


class _Object(dict):
    """A JSON object; ``repeated`` is the path of its first repeated key,
    counting the keys of the objects it holds."""

    repeated: str | None = None


def _object(pairs: list[tuple[str, object]]) -> _Object:
    """``json.loads``'s object hook.  json keeps the last value of a repeated
    key, so the object records the key's path for ``parse_config`` to reject."""
    obj, seen = _Object(pairs), set()
    for key, value in pairs:
        if key in seen:
            obj.repeated = key
        elif isinstance(value, _Object) and value.repeated:
            obj.repeated = f"{key}.{value.repeated}"
        if obj.repeated:
            break
        seen.add(key)
    return obj


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON config document into a RunConfig."""
    try:
        doc = json.loads(text, object_pairs_hook=_object)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("top-level document must be an object")
    if doc.repeated:
        raise ConfigError(f"repeated key '{doc.repeated}'")
    for section, body in doc.items():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section '{section}'")
        if not isinstance(body, dict):
            raise ConfigError(f"section '{section}' must be an object")
        for key in body:
            if key not in _SCHEMA[section][1]:
                raise ConfigError(f"unknown key '{section}.{key}'")

    domain = _build("domain", _read(doc, "domain"))
    model = _build("model", {**_read(doc, "model"), "dim": domain.dim})
    solver = _build("solver", _read(doc, "solver"))

    values = _read(doc, "initial")
    kind = values.get("type", InitialSpec.type)
    if kind not in _INITIAL_KEYS:
        raise ConfigError(f"'initial.type' must be eigenmode, random or file, got {kind!r}")
    for key in values:
        if key not in _INITIAL_KEYS[kind]:
            raise ConfigError(f"'initial.{key}' is not read by type={kind}")
    if kind == "file":
        if not values.get("path"):
            raise ConfigError("missing required key 'initial.path' for type=file")
        values.setdefault("amplitude", 1.0)
    mode = values.get("mode", [1] * domain.dim)
    if (not isinstance(mode, list) or len(mode) != domain.dim
            or not all(isinstance(k, int) and not isinstance(k, bool) for k in mode)):
        raise ConfigError(f"'initial.mode' must be a list of {domain.dim} integers")
    if not all(1 <= k <= domain.modes_per_dim for k in mode):
        raise ConfigError(f"'initial.mode' indices must lie in 1..{domain.modes_per_dim}")
    initial = _build("initial", {**values, "mode": tuple(mode)})

    well = _build("well", _read(doc, "well"))
    if not 0 < well.safety <= 1:
        raise ConfigError(f"'well.safety' must lie in (0, 1], got {well.safety}")

    outputs = _build("outputs", _read(doc, "outputs"))
    # both files go in --output-dir, and neither may replace the other: each
    # writer renames its '<name>.tmp' onto the name, so that too must be a file
    # name: encodable, with no NUL byte, within NAME_MAX = 255 bytes
    names = asdict(outputs)
    for key, name in names.items():
        try:
            size = len(os.fsencode(name))
        except UnicodeEncodeError:
            size = math.inf
        if name in ("", "..") or Path(name).name != name or "\0" in name or size > 251:
            raise ConfigError(f"'outputs.{key}' must be a bare file name of at most 251 bytes, got {name!r}")
    for key, other in (("json_path", "csv_path"), ("csv_path", "json_path")):
        if names[key] in (names[other], names[other] + ".tmp"):
            raise ConfigError(f"'outputs.{key}' must differ from 'outputs.{other}' and its "
                              f"'.tmp' file, got {names[key]!r}")

    study = _build("study", _read(doc, "study"))
    try:
        DomainSpec(domain.dim, domain.length, study.m_list[-1], domain.oversample)
    except ValueError as exc:
        raise ConfigError(f"'study.m_list': {exc}") from exc

    return RunConfig(domain=domain, model=model, solver=solver, initial=initial,
                     well=well, outputs=outputs, study=study)


def _initial_key(spec: InitialSpec) -> str:
    """The config key that scales the initial data, with its value."""
    return (f"'initial.path' ({spec.path})" if spec.type == "file"
            else f"'initial.amplitude' ({spec.amplitude:g})")


def build_initial(cfg: RunConfig) -> tuple[ModalField, ModalField]:
    """Construct (u0, u1) from the initial section."""
    dom = cfg.domain
    spec = cfg.initial
    u1 = ModalField.zeros(dom)
    if spec.type == "eigenmode":
        u0 = ModalField.eigenmode(dom, spec.mode, spec.amplitude)
    elif spec.type == "random":
        raw = random_band_limited(dom, np.random.default_rng(spec.seed))
        u0 = raw.scaled(spec.amplitude / math.sqrt(grad_norm_sq(raw)))
    else:
        try:
            data = np.load(spec.path)
            if not isinstance(data, np.lib.npyio.NpzFile):
                raise ValueError("not an .npz archive")
            with data:
                arrays = {name: data[name] for name in ("u0", "u1") if name in data}
        except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
            raise ConfigError(f"'initial.path' ({spec.path}): {exc}") from exc
        if "u0" not in arrays:
            raise ConfigError(f"'initial.path' ({spec.path}): no 'u0' array")
        for name, arr in arrays.items():
            # bool, complex and string arrays would be cast or fail in the cast
            if arr.dtype.kind not in "iuf":
                raise ConfigError(f"'initial.path' ({spec.path}): '{name}' has dtype "
                                  f"{arr.dtype}, expected integers or floats")
            if arr.shape != dom.modal_shape:
                raise ConfigError(
                    f"'initial.path' ({spec.path}): '{name}' has shape {arr.shape}, "
                    f"expected the modal band {dom.modal_shape}"
                )
            if not np.all(np.isfinite(arr)):
                raise ConfigError(
                    f"'initial.path' ({spec.path}): '{name}' contains non-finite coefficients"
                )
        u0 = ModalField(dom, arrays["u0"] * spec.amplitude)
        if "u1" in arrays:
            u1 = ModalField(dom, arrays["u1"])
    for name, f in (("u0", u0), ("u1", u1)):
        # finite coefficients can still have norms that overflow
        with np.errstate(over="ignore"):
            finite = math.isfinite(l2_norm_sq(f)) and math.isfinite(grad_norm_sq(f))
        if not finite:
            where = _initial_key(spec) + (f": '{name}'" if spec.type == "file" else "")
            raise ConfigError(f"{where} gives initial data out of floating-point range")
    return u0, u1


# ---------------------------------------------------------------------------
# file output

def _jsonable(obj):
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, (np.floating, np.integer)):
        return _jsonable(obj.item())
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def write_json(path: Path, payload: dict):
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)


def write_csv(path: Path, reports: list[EnergyReport]):
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w", newline="") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for rep in reports:
            fh.write(",".join(f"{getattr(rep, c):.17g}" for c in CSV_COLUMNS) + "\n")
    os.replace(tmp, path)


def read_csv(path: Path) -> list[EnergyReport]:
    with open(path, newline="") as fh:
        try:
            rows = list(csv.reader(fh))
        except (UnicodeDecodeError, csv.Error) as exc:
            raise ConfigError(f"'{path}' is not a CSV file: {exc}") from exc
    if not rows or tuple(rows[0]) != CSV_COLUMNS:
        raise ConfigError(
            f"'{path}' does not carry the expected column set {CSV_COLUMNS}"
        )
    try:
        reports = [EnergyReport(**dict(zip(CSV_COLUMNS, map(float, row), strict=True)))
                   for row in rows[1:]]
    except ValueError as exc:
        raise ConfigError(f"'{path}': malformed row: {exc}") from exc
    if not reports:
        raise ConfigError(f"'{path}' holds no samples")
    return reports


# ---------------------------------------------------------------------------
# subcommands: each computes its result, writes no file and prints nothing;
# only ``main`` makes the output directory, writes the files and prints

# (exit code, summary, closing note or None for no closing line, trajectory or None)
_Result = tuple[int, dict, str | None, list[EnergyReport] | None]


def _well_depth(cfg: RunConfig) -> dict:
    """Estimate the well depth over the configured trial family, as the
    ``{d_hat, safety, trials}`` block of the summary."""
    trials, labels = default_trial_family(cfg.domain, cfg.well.trial_count,
                                          cfg.well.seed)
    try:
        depth = estimate_depth(trials, cfg.model)
    except DegenerateFieldError as exc:
        raise ConfigError(f"'model.gamma' ({cfg.model.gamma:g}) and 'domain.length' "
                          f"({cfg.domain.length:g}) give no Nehari point: {exc}") from exc
    return {
        "d_hat": depth.d_hat,
        "safety": cfg.well.safety,
        "trials": [
            {"label": lab, "lambda_star": ls, "j_max": jm}
            for lab, (ls, jm) in zip(labels, depth.trials, strict=True)
        ],
    }


def cmd_run(cfg: RunConfig, out_dir: Path) -> _Result:
    # bad initial data exits before any projection; the range test comes
    # before the stable-set test, whose energy would overflow (with warnings)
    # on the same data
    u0, u1 = build_initial(cfg)
    try:
        dual_norm = source_dual_norm(u0, cfg.model) if cfg.model.source_enabled else None
    except ValueError as exc:
        raise ConfigError(f"{_initial_key(cfg.initial)} puts the initial source out "
                          f"of floating-point range: {exc}") from exc
    depth = _well_depth(cfg)
    verdict = stable_set_check(u0, u1, depth["d_hat"], cfg.well.safety, cfg.model)

    result = integrate(u0, u1, cfg.solver, cfg.model)
    summary = {
        "command": "run",
        "status": result.status,
        "t_max": result.t_max,
        "well_depth": depth,
        "stable_set": asdict(verdict),
        "E0": result.reports[0].E,
        "E_end": result.reports[-1].E,
        "n_reports": len(result.reports),
        "model": {"gamma": cfg.model.gamma, "dim": cfg.model.dim,
                  "rho": cfg.model.rho, "mu": cfg.model.mu,
                  "source_dual_norm_initial": dual_norm},
    }
    if result.status == BLOWUP:
        summary.update(checks=[], exit_code=EXIT_BLOWUP)
        return EXIT_BLOWUP, summary, f"BLOWUP at t={result.t_max:.6g}", result.reports

    checks, extras = run_checks(result.reports, cfg.domain, cfg.model, verdict)
    code = EXIT_OK if mandatory_ok(checks) else EXIT_CHECKS
    summary.update(extras, checks=checks, exit_code=code)
    return code, summary, "", result.reports


def cmd_welldepth(cfg: RunConfig, out_dir: Path) -> _Result:
    depth = _well_depth(cfg)
    return (EXIT_OK, {"command": "welldepth", **depth},
            f"d_hat={depth['d_hat']:.12g} over {len(depth['trials'])} trials", None)


def cmd_converge(cfg: RunConfig, out_dir: Path) -> _Result:
    u0, u1 = build_initial(cfg)
    try:
        study = convergence_study(u0, u1, cfg.solver, cfg.model, list(cfg.study.m_list))
    except MemoryError as exc:
        raise ConfigError(f"'study.m_list' ({list(cfg.study.m_list)}): {exc}") from exc
    code = EXIT_BLOWUP if study.status == BLOWUP else EXIT_OK if study.passed else EXIT_CHECKS
    return (code, {"command": "converge", **asdict(study)},
            f"convergence {'PASS' if study.passed else 'FAIL'} E_diffs={list(study.E_diffs)}",
            None)


def cmd_depend(cfg: RunConfig, out_dir: Path) -> _Result:
    u0, u1 = build_initial(cfg)
    report = continuous_dependence(
        u0, u1, cfg.solver, cfg.model,
        epsilons=cfg.study.epsilons, seed=cfg.initial.seed,
    )
    return (EXIT_OK if report.status == COMPLETED else EXIT_BLOWUP,
            {"command": "depend", **asdict(report)},
            f"dependence status={report.status} growth_rate={report.growth_rate:.6g}", None)


def cmd_verify(cfg: RunConfig, out_dir: Path) -> _Result:
    csv_path = out_dir / cfg.outputs.csv_path
    checks, extras = run_checks(read_csv(csv_path), cfg.domain, cfg.model, verdict=None)
    code = EXIT_OK if mandatory_ok(checks) else EXIT_CHECKS
    return (code, {"command": "verify", "csv_path": str(csv_path), "checks": checks,
                   **extras, "exit_code": code}, None, None)


_COMMANDS = {
    "run": cmd_run,
    "welldepth": cmd_welldepth,
    "converge": cmd_converge,
    "depend": cmd_depend,
    "verify": cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="logwave",
        description="Spectral simulator for the strongly damped wave equation "
                    "with a logarithmic source",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--output-dir", default=".", help="directory for output files")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the initial and well seeds")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(Path(args.config).read_text(encoding="utf-8"))
        if args.seed is not None:
            seed = _count(args.seed, "--seed")
            cfg = replace(cfg, initial=replace(cfg.initial, seed=seed),
                          well=replace(cfg.well, seed=seed))
    except UnicodeDecodeError as exc:
        print(f"config error: '{args.config}' is not UTF-8 text: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = Path(args.output_dir)
    try:
        code, summary, note, reports = _COMMANDS[args.command](cfg, out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        written = []
        if reports is not None:
            written.append(out_dir / cfg.outputs.csv_path)
            write_csv(written[-1], reports)
        written.append(out_dir / cfg.outputs.json_path)
        write_json(written[-1], summary)
    except InitialEnergyError as exc:
        print(f"data error: {_initial_key(cfg.initial)}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        print(f"data error: 'domain.modes_per_dim' ({cfg.domain.modes_per_dim}): {exc}",
              file=sys.stderr)
        return EXIT_CONFIG
    except (ConfigError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if not args.quiet:
        if "stable_set" in summary:
            verdict = summary["stable_set"]
            print(f"well depth estimate d_hat={summary['well_depth']['d_hat']:.6g} "
                  f"(threshold {verdict['threshold']:.6g}); stable set: {verdict['status']}")
        for c in summary.get("checks", ()):
            measured = "n/a" if c["measured"] is None else f"{c['measured']:.6g}"
            tol = "n/a" if c["tolerance"] is None else f"{c['tolerance']:.6g}"
            print(f"{c['status']:4s} {c['name']} measured={measured} tolerance={tol}")
        if note is not None:
            wrote = "wrote " + " and ".join(map(str, written))
            print(f"{note}; {wrote}" if note else wrote)
    return code


if __name__ == "__main__":
    sys.exit(main())
