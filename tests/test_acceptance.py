"""End-to-end acceptance checks at desk scale.

Each test prints one PASS/FAIL line (visible with pytest -s) and asserts
the same condition.  The expensive trajectories are shared module-scoped
fixtures; the reference configuration is the box (0, pi)^3 at 8 modes per
axis, gamma = 4, first-eigenfunction data of amplitude 0.05, dt = 1e-3,
t_end = 20.  Its one integration is the first 20 000 steps of ``run_t40``,
which the README's example and well-depth table are checked against too.
"""

import json
import math
import re
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import logwave
from logwave import cli
from logwave.analysis import (
    CHECKS,
    ENERGY_FLOOR,
    CheckInput,
    check_energy_identity,
    check_integral_bound,
    continuous_dependence,
    convergence_study,
    fit_decay,
)
from logwave.cli import EXIT_OK, main, parse_config
from logwave.domain import DomainSpec, ModalField, random_band_limited
from logwave.functionals import (
    ModelParams,
    log_bound_large,
    log_bound_small,
    uniform_bound_constant,
)
from logwave.solver import COMPLETED, SolverConfig, integrate
from logwave.well import default_trial_family, estimate_depth, fiber_I, fiber_moments, project_to_nehari, stable_set_check

DOMAIN = DomainSpec(3, math.pi, 8, 2)
PARAMS = ModelParams(4.0, 3)
ALPHA = 0.05
SAFETY = 0.5
README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")

_timings: dict[str, float] = {}


def _timed_run(tag, dt, t_end, params=PARAMS, report_every=None):
    u0 = ModalField.eigenmode(DOMAIN, (1, 1, 1), ALPHA)
    u1 = ModalField.zeros(DOMAIN)
    if report_every is None:
        report_every = max(1, round(0.01 / dt))
    cfg = SolverConfig(dt=dt, t_end=t_end, report_every=report_every)
    start = time.perf_counter()
    result = integrate(u0, u1, cfg, params)
    _timings[tag] = time.perf_counter() - start
    assert result.status == COMPLETED
    return result


@pytest.fixture(scope="module")
def run_half():
    return _timed_run("half", 5e-4, 20.0)


@pytest.fixture(scope="module")
def run_quarter():
    return _timed_run("quarter", 2.5e-4, 20.0)


@pytest.fixture(scope="module")
def run_gamma55():
    return _timed_run("gamma55", 1e-3, 20.0, params=ModelParams(5.5, 3))


@pytest.fixture(scope="module")
def run_t40():
    return _timed_run("t40", 1e-3, 40.0)


@pytest.fixture(scope="module")
def run_base(run_t40):
    """The reference run to t_end 20: the first 2001 reports of run_t40, which
    has the same dt, data and report_every, so they are the same reports bit
    for bit.  It has no final state, so that nothing reads t = 40's state as
    t = 20's."""
    reports = run_t40.reports[:2001]
    assert len(reports) == 2001 and reports[-1].t == 20.0
    return SimpleNamespace(reports=reports, status=COMPLETED, t_max=None)


@pytest.fixture(scope="module")
def well_depth():
    trials, _ = default_trial_family(DOMAIN, count=32, seed=0)
    return estimate_depth(trials, PARAMS)


@pytest.fixture(scope="module")
def verdict(well_depth):
    u0 = ModalField.eigenmode(DOMAIN, (1, 1, 1), ALPHA)
    return stable_set_check(u0, ModalField.zeros(DOMAIN), well_depth.d_hat,
                            SAFETY, PARAMS)


def measure(name, run, verdict=None):
    """The verification table's measure of one check on a trajectory."""
    row = next(c for c in CHECKS if c.name == name)
    return row.measure(CheckInput(run.reports, DOMAIN, PARAMS, verdict))


def report_line(num, name, ok, detail):
    print(f"[criterion {num:02d}] {name}: {detail}: {'PASS' if ok else 'FAIL'}")
    return ok


def test_01_energy_law(run_base, run_half, run_quarter):
    res = {tag: check_energy_identity(r.reports)
           for tag, r in (("base", run_base), ("half", run_half),
                          ("quarter", run_quarter))}
    ratio1 = res["base"] / res["half"]
    ratio2 = res["half"] / res["quarter"]
    # run_t40 holds the base trajectory, so its whole time counts
    runtime = _timings["t40"] + _timings["half"] + _timings["quarter"]
    ok = (res["base"] <= 1e-4 and ratio1 >= 3.5 and ratio2 >= 3.5
          and runtime <= 120.0)
    assert report_line(
        1, "energy law",
        ok,
        f"residual={res['base']:.3e} (<=1e-4), halving ratios="
        f"{ratio1:.2f},{ratio2:.2f} (>=3.5), runtime={runtime:.0f}s (<=120s)",
    )


def test_02_monotone_dissipation(run_base):
    worst = measure("monotone_dissipation", run_base)
    assert report_line(2, "monotone dissipation", worst <= 1e-10,
                       f"max E increase / E(0)={worst:.3e} (<= 1e-10)")


def test_03_stable_set_invariance(run_base, verdict):
    min_i = measure("invariance_I_positive", run_base, verdict)
    max_e = measure("invariance_E_below_threshold", run_base, verdict)
    ok = (verdict.status == "IN" and min_i > 0 and max_e < verdict.threshold)
    assert report_line(
        3, "stable-set invariance", ok,
        f"verdict={verdict.status}, min I={min_i:.3e} (>0), "
        f"max E={max_e:.3e} (< {verdict.threshold:.3e})",
    )


def test_04_uniform_bound(run_base, verdict):
    assert uniform_bound_constant(PARAMS.gamma) == 1.0 / 16.0
    worst = measure("uniform_bound", run_base, verdict)
    assert report_line(4, "uniform bound", worst < 1.0,
                       f"C3=1/16, max bound / E(0)={worst:.3e} (< 1)")


def test_05_exponential_decay(run_base, run_gamma55):
    # the one decay fit: every positive sample of [2, 15], the window of t_end 20
    results = []
    for tag, run in (("gamma=4", run_base), ("gamma=5.5", run_gamma55)):
        fit = fit_decay(run.reports)
        results.append((tag, fit))
    ok = all(f.C2 > 0 and f.r_squared >= 0.99 for _, f in results)
    detail = "; ".join(
        f"{tag}: C2={f.C2:.3f} (>0), r2={f.r_squared:.4f} (>=0.99)"
        for tag, f in results
    )
    assert report_line(5, "exponential decay", ok, detail)


def test_06_integral_estimate(run_base, run_t40):
    s20 = check_integral_bound(run_base.reports, DOMAIN, PARAMS)
    s40 = check_integral_bound(run_t40.reports, DOMAIN, PARAMS)
    drift = abs(s40.c0_hat - s20.c0_hat) / s20.c0_hat
    # every report up to T/2, but the last, with E above the floor is an S
    t_half = run_base.reports[-1].t / 2.0
    n_s = sum(r.E >= ENERGY_FLOOR and r.t <= t_half for r in run_base.reports[:-1])
    ok = (math.isfinite(s20.c0_hat) and s20.n_s_samples == n_s
          and math.isfinite(s40.c0_hat) and drift <= 0.05)
    assert report_line(
        6, "integral estimate", ok,
        f"C0(20)={s20.c0_hat:.6f} over {s20.n_s_samples} S values, "
        f"C0(40)={s40.c0_hat:.6f}, drift={drift:.2e} (<=0.05)",
    )


def test_07_linear_oracle():
    dom = DomainSpec(3, math.pi, 2, 2)
    params = ModelParams(4.0, 3, source_enabled=False)
    cfg = SolverConfig(dt=1e-4, t_end=1.0, report_every=50)
    u0 = ModalField.eigenmode(dom, (1, 1, 1))
    result = integrate(u0, ModalField.zeros(dom), cfg, params, store_states=True)
    ts = np.array([r.t for r in result.reports])
    got = np.array([u.coeffs[0, 0, 0] for u, _ in result.states])
    # a'' + 3 a' + 3 a = 0, a(0)=1, a'(0)=0; roots (-3 +- i sqrt(3))/2
    sig, om = -1.5, math.sqrt(3) / 2
    exact = np.exp(sig * ts) * (np.cos(om * ts) - sig / om * np.sin(om * ts))
    err = float(np.abs(got - exact).max() / np.abs(exact).max())
    assert report_line(7, "linear oracle", err <= 1e-6,
                       f"relative error={err:.3e} (<=1e-6) at dt=1e-4")


def test_08_nehari_projection(well_depth):
    rng = np.random.default_rng(12345)
    worst_residual = 0.0
    for _ in range(32):
        u = random_band_limited(DOMAIN, rng)
        m = fiber_moments(u, PARAMS)
        lam, j_max = project_to_nehari(u, PARAMS)
        scale = max(m.A, lam ** PARAMS.gamma * m.G)
        worst_residual = max(worst_residual, abs(fiber_I(m, lam, PARAMS.gamma)) / scale)
        assert j_max > 0
    u = random_band_limited(DOMAIN, rng)
    _, j_ref = project_to_nehari(u, PARAMS)
    worst_scale_dev = max(
        abs(project_to_nehari(u.scaled(c), PARAMS)[1] - j_ref) / j_ref
        for c in (0.5, 2.0, 10.0)
    )
    ok = (worst_residual <= 1e-10 and worst_scale_dev <= 1e-10
          and well_depth.d_hat > 0)
    assert report_line(
        8, "nehari projection", ok,
        f"max |I(lambda*)|={worst_residual:.2e} (<=1e-10), scale dev="
        f"{worst_scale_dev:.2e} (<=1e-10), d_hat={well_depth.d_hat:.4f} (>0)",
    )


def test_09_pointwise_log_inequalities():
    n = 100001
    ok = True
    s_small = np.linspace(0.0, 1.0, n + 2)[1:-1]
    for gamma in (4.0, 5.0, 5.9):
        lhs, bound = log_bound_small(s_small, gamma)
        ok = ok and bool(np.all(lhs <= bound * (1 + 1e-14)))
    s_large = np.geomspace(1.0, 1e6, n)
    for mu in (0.1, 0.5, 1.0):
        lhs, bound = log_bound_large(s_large, mu)
        ok = ok and bool(np.all(lhs <= bound * (1 + 1e-14)))
    assert report_line(
        9, "pointwise log inequalities", ok,
        f"{n} point scans, gamma in {{4,5,5.9}}, mu in {{0.1,0.5,1}}",
    )


def test_10_continuous_dependence():
    u0 = ModalField.eigenmode(DOMAIN, (1, 1, 1), ALPHA)
    u1 = ModalField.zeros(DOMAIN)
    cfg = SolverConfig(dt=1e-3, t_end=5.0, report_every=10)

    # one base run serves the epsilon = 0 determinism check and both ratios
    rep = continuous_dependence(u0, u1, cfg, PARAMS, epsilons=(0.0, 1e-3, 1e-4), seed=99)
    bitwise = all(d == 0.0 for d in rep.D[0])
    i5 = rep.times.index(5.0)
    r1 = rep.D_over_eps_sq[1][i5]
    r2 = rep.D_over_eps_sq[2][i5]
    ratio = r1 / r2
    ok = bitwise and 0.5 <= ratio <= 2.0
    assert report_line(
        10, "continuous dependence", ok,
        f"eps=0 exact zero: {bitwise}; D/eps^2 ratio at t=5: {ratio:.4f} (in [0.5,2])",
    )


def test_11_galerkin_self_convergence():
    u0 = ModalField.eigenmode(DOMAIN, (1, 1, 1), ALPHA)
    u1 = ModalField.zeros(DOMAIN)
    cfg = SolverConfig(dt=1e-3, t_end=20.0, report_every=1000)
    study = convergence_study(u0, u1, cfg, PARAMS, [4, 8, 16])
    ok = study.status == COMPLETED and study.passed
    assert report_line(
        11, "galerkin self-convergence", ok,
        f"E(t_end) diffs={[f'{d:.2e}' for d in study.E_diffs]} decreasing",
    )


def test_12_sharp_poincare_margin(run_base):
    worst = measure("poincare_margin", run_base)
    assert worst is not None
    assert report_line(12, "sharp poincare margin", worst <= 1 + 1e-10,
                       f"max margin={worst:.12f} (<= 1+1e-10)")


# The README's quoted results, checked against the reference run above: the
# example integrates nothing of its own, because integrate is deterministic
# and the stub in the first test pins every input it is given.

def test_readme_example_is_the_reference_run(run_base, tmp_path, monkeypatch):
    config = re.search(r"```json\n(.*?)```", README, re.S).group(1)
    cfg = parse_config(config)
    assert (cfg.domain, cfg.model, cfg.solver) == (DOMAIN, PARAMS, SolverConfig())
    assert (cfg.initial.type, cfg.initial.mode, cfg.initial.amplitude) == (
        "eigenmode", (1, 1, 1), ALPHA)

    u0 = ModalField.eigenmode(DOMAIN, (1, 1, 1), ALPHA)
    calls = []

    def reference_integrate(v0, v1, solver_cfg, params):
        """run_base, for exactly the reference run's inputs."""
        assert (v0.domain, v1.domain) == (DOMAIN, DOMAIN)
        assert v0.coeffs.tobytes() == u0.coeffs.tobytes()
        assert not v1.coeffs.any()
        assert (solver_cfg, params) == (SolverConfig(dt=1e-3, t_end=20.0, report_every=10),
                                        PARAMS)
        calls.append(solver_cfg)
        return run_base

    # logwave run on the README's config
    monkeypatch.setattr(cli, "integrate", reference_integrate)
    path, out = tmp_path / "readme.json", tmp_path / "out"
    path.write_text(config)
    assert main(["run", "--config", str(path), "--output-dir", str(out), "--quiet"]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert {c["status"] for c in summary["checks"] if c["mandatory"]} == {"PASS"}

    # the library example, as the README prints it
    monkeypatch.setattr(logwave, "integrate", reference_integrate)
    scope = {}
    exec(re.search(r"## Library\n\n```python\n(.*?)```", README, re.S).group(1), scope)
    fit = scope["fit"]
    assert len(calls) == 2
    decay_fit = summary["decay_fit"]
    assert (fit.C2, fit.r_squared) == (decay_fit["C2"], decay_fit["r_squared"])
    assert fit.r_squared >= 0.99

    # the digits the README quotes, to as many places as it gives
    quoted = re.search(r"It prints C2 ≈ ([\d.]+) and R² ≈ ([\d.]+):", README).groups()
    assert tuple(f"{x:.{len(q.split('.')[1])}f}"
                 for x, q in zip((fit.C2, fit.r_squared), quoted)) == quoted


def test_readme_well_depth_table():
    # `logwave welldepth` on (0, pi)^3 at m=8, 32 trials, seed 0: the code's d_hat
    # at each gamma of the table, rounded as the table gives it
    header, values = re.search(r"\| `γ` \|(.*)\|\n\|[-|]*\n\| `d̂` \|(.*)\|", README).groups()
    gammas = [float(g) for g in header.split("|")]
    quoted = [d.strip() for d in values.split("|")]
    trials = list(default_trial_family(DOMAIN, 32, 0)[0])
    got = [f"{estimate_depth(trials, ModelParams(g, 3)).d_hat:.2f}" for g in gammas]
    assert len(gammas) == 9 and got == quoted
