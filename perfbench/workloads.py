"""The benchmark's workloads: one CLI subcommand and config each, the output
checks that decide whether an operation succeeded, and the call counts a
traced operation must show.

Sizes are chosen so that one operation takes under a second on a 2-core
machine and a measured run holds dozens of operations; README.md says why
each workload exists.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

CSV_NAME = "trajectory.csv"
JSON_NAME = "summary.json"

# relative Nehari residual |I(lambda*)| / (lambda*^2 A) a projection must reach
NEHARI_REL_TOL = 1e-10
# admissible ratio of D/eps^2 at the last time between the two epsilons
DEPEND_RATIO = (0.5, 2.0)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: dict
    # (seeded config, output dir, exit code) -> problems; empty means correct
    check: Callable[[dict, Path, int], list[str]]
    # config -> exact call counts of a traced operation
    expected_calls: Callable[[dict], dict[str, int]]


def _steps_and_reports(config: dict) -> tuple[int, int]:
    solver = config["solver"]
    n = round(solver["t_end"] / solver["dt"])
    every = solver.get("report_every", 10)
    return n, n // every + 1 + (1 if n % every else 0)


# ---------------------------------------------------------------------------
# output checks

def check_run(config: dict, out: Path, code: int) -> list[str]:
    from logwave.functionals import CSV_COLUMNS

    problems = []
    if code != 0:
        problems.append(f"exit code {code}, expected 0")
    summary = json.loads((out / JSON_NAME).read_text())
    if summary.get("status") != "COMPLETED":
        problems.append(f"status {summary.get('status')!r}")
    checks = summary.get("checks", [])
    if not checks:
        problems.append("summary carries no checks")
    for c in checks:
        if c["mandatory"] and c["status"] != "PASS":
            problems.append(f"mandatory check {c['name']} is {c['status']}")
    with open(out / CSV_NAME) as fh:
        header = tuple(fh.readline().rstrip("\n").split(","))
    if header != CSV_COLUMNS:
        problems.append(f"CSV header {header} differs from {CSV_COLUMNS}")
    return problems


def check_depend(config: dict, out: Path, code: int) -> list[str]:
    problems = []
    if code != 0:
        problems.append(f"exit code {code}, expected 0")
    summary = json.loads((out / JSON_NAME).read_text())
    if summary.get("status") != "COMPLETED":
        problems.append(f"status {summary.get('status')!r}")
        return problems
    rows = summary["D_over_eps_sq"]
    if len(rows) != 2 or not all(rows):
        problems.append("expected one D/eps^2 row per epsilon")
        return problems
    ratio = rows[0][-1] / rows[1][-1]
    if not DEPEND_RATIO[0] <= ratio <= DEPEND_RATIO[1]:
        problems.append(f"D/eps^2 ratio {ratio:.6g} outside {DEPEND_RATIO}")
    return problems


def check_welldepth(config: dict, out: Path, code: int) -> list[str]:
    from logwave.domain import DomainSpec
    from logwave.functionals import ModelParams
    from logwave.well import default_trial_family, fiber_I, fiber_moments

    problems = []
    if code != 0:
        problems.append(f"exit code {code}, expected 0")
    summary = json.loads((out / JSON_NAME).read_text())
    if not summary["d_hat"] > 0:
        problems.append(f"d_hat {summary['d_hat']} is not positive")
    dom = DomainSpec(**config["domain"])
    params = ModelParams(gamma=config["model"]["gamma"], dim=dom.dim)
    fields, labels = default_trial_family(dom, config["well"]["trial_count"],
                                          config["well"]["seed"])
    trials = summary["trials"]
    if [t["label"] for t in trials] != labels:
        problems.append("trial labels differ from the trial family")
        return problems
    worst = 0.0
    for field, trial in zip(fields, trials):
        m = fiber_moments(field, params)
        lam = trial["lambda_star"]
        worst = max(worst, abs(fiber_I(m, lam, params.gamma)) / (lam * lam * m.A))
    if not worst <= NEHARI_REL_TOL:
        problems.append(f"relative Nehari residual {worst:.3g} > {NEHARI_REL_TOL:g}")
    if summary["d_hat"] != min(t["j_max"] for t in trials):
        problems.append("d_hat is not the minimal fibering supremum")
    return problems


# ---------------------------------------------------------------------------
# exact call counts of one traced operation

def calls_run(config: dict) -> dict[str, int]:
    n, reports = _steps_and_reports(config)
    trials = config["well"]["trial_count"] + 1
    return {
        "solver.integrate": 1,
        "solver.step": n,
        "solver.blowup_scan": n,
        "domain.analyze": n,
        "functionals.source_eval": n,
        # one per report, plus the stable-set test of the initial data
        "functionals.energy": reports + 1,
        # per step, per report, per trial, stable-set test, source dual norm
        "domain.synthesize": n + reports + trials + 2,
        "well.project_to_nehari": trials,
        "well.estimate_depth": 1,
        "cli.run_checks": 1,
        "cli.write_csv": 1,
        "cli.write_json": 1,
    }


def calls_depend(config: dict) -> dict[str, int]:
    n, reports = _steps_and_reports(config)
    runs = 1 + len(config["study"]["epsilons"])
    return {
        "solver.integrate": runs,
        "solver.step": runs * n,
        "solver.blowup_scan": runs * n,
        "domain.analyze": runs * n,
        "functionals.source_eval": runs * n,
        "functionals.energy": runs * reports,
        "domain.synthesize": runs * (n + reports),
        "well.project_to_nehari": 0,
        "analysis.continuous_dependence": 1,
        "cli.write_json": 1,
    }


def calls_welldepth(config: dict) -> dict[str, int]:
    trials = config["well"]["trial_count"] + 1
    return {
        "solver.step": 0,
        "domain.analyze": 0,
        "domain.synthesize": trials,
        "well.project_to_nehari": trials,
        "well.estimate_depth": 1,
        "cli.write_json": 1,
    }


# ---------------------------------------------------------------------------
# the workloads at benchmark size

def _config(m: int, gamma: float, initial: dict, **sections) -> dict:
    doc = {
        "domain": {"dim": 3, "length": math.pi, "modes_per_dim": m, "oversample": 2},
        "model": {"gamma": gamma},
        "solver": {"dt": 1e-3, "t_end": 1.0, "report_every": 10},
        "initial": initial,
        "well": {"trial_count": 32, "safety": 0.5, "seed": 0},
        "outputs": {"csv_path": CSV_NAME, "json_path": JSON_NAME},
    }
    for section, keys in sections.items():
        doc.setdefault(section, {}).update(keys)
    return doc


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="run-ref",
            command="run",
            config=_config(8, 4.0, {"type": "eigenmode", "amplitude": 0.05},
                           solver={"t_end": 0.5}),
            check=check_run,
            expected_calls=calls_run,
        ),
        Workload(
            name="depend-m16",
            command="depend",
            config=_config(16, 5.5, {"type": "random", "amplitude": 0.05},
                           solver={"t_end": 0.05},
                           study={"epsilons": [1e-3, 1e-4]}),
            check=check_depend,
            expected_calls=calls_depend,
        ),
        Workload(
            name="welldepth-m8",
            command="welldepth",
            config=_config(8, 4.0, {"type": "eigenmode", "amplitude": 0.05},
                           well={"trial_count": 1000}),
            check=check_welldepth,
            expected_calls=calls_welldepth,
        ),
    )
}


def with_seed(config: dict, seed: int) -> dict:
    """The config as the CLI sees it under ``--seed``: both seeds replaced."""
    doc = copy.deepcopy(config)
    doc["initial"]["seed"] = seed
    doc["well"]["seed"] = seed
    return doc
