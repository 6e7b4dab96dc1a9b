import math
import operator
import warnings
import weakref
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from logwave import analysis
from logwave.analysis import (
    CHECKS,
    ENERGY_FLOOR,
    CheckInput,
    FitError,
    check_energy_identity,
    check_integral_bound,
    check_virial_identity,
    continuous_dependence,
    convergence_study,
    fit_decay,
    run_checks,
)
from logwave.domain import DomainSpec, ModalField
from logwave.functionals import EnergyReport, ModelParams
from logwave.solver import COMPLETED, SolverConfig, integrate
from logwave.well import (
    IN,
    StableSetVerdict,
    default_trial_family,
    estimate_depth,
    fiber_I,
    fiber_moments,
    project_to_nehari,
    stable_set_check,
)

PARAMS = ModelParams(4.0, 3)
LINEAR = ModelParams(4.0, 3, source_enabled=False)


@pytest.fixture(scope="module")
def linear_runs():
    # fixed report_every so the report spacing (and with it the time
    # quadrature of the identity) scales together with dt
    dom = DomainSpec(3, np.pi, 4, 2)
    u0 = ModalField(dom, ModalField.eigenmode(dom, (1, 1, 1), 0.4).coeffs
                    + ModalField.eigenmode(dom, (2, 1, 1), 0.2).coeffs)
    u1 = ModalField.zeros(dom)
    runs = {}
    for dt in (2e-3, 1e-3, 5e-4):
        cfg = SolverConfig(dt=dt, t_end=2.0, report_every=10)
        runs[dt] = integrate(u0, u1, cfg, LINEAR)
    return runs


def synthetic_reports(ts, es, **overrides):
    rows = []
    for t, e in zip(ts, es):
        fields = dict(t=t, E=e, J=e, I=0.0, kinetic=0.0, grad_sq=0.0,
                      lgamma=0.0, logterm=0.0, cross_term=0.0,
                      damping_integral=0.0, identity_residual=0.0)
        fields.update(overrides)
        rows.append(EnergyReport(**fields))
    return rows


class TestFitDecay:
    def test_exact_exponential(self):
        ts = np.linspace(0, 10, 200)
        fit = fit_decay(synthetic_reports(ts, 2.0 * np.exp(-0.5 * ts)))
        assert fit.C1 == pytest.approx(2.0, rel=1e-12)
        assert fit.C2 == pytest.approx(0.5, rel=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_constant_energy(self):
        ts = np.linspace(0, 10, 100)
        fit = fit_decay(synthetic_reports(ts, np.full_like(ts, 3.0)))
        assert fit.C2 == pytest.approx(0.0, abs=1e-13)
        assert fit.r_squared == pytest.approx(1.0)

    def test_window_restricts_samples(self):
        # on t in [0, 10] the window is [1, 7.5]; the rate doubles after it
        ts = np.linspace(0, 10, 101)
        es = np.where(ts <= 7.5, np.exp(-ts), np.exp(-2 * ts + 7.5))
        fit = fit_decay(synthetic_reports(ts, es))
        assert fit.window == (1.0, 7.5)
        assert fit.C2 == pytest.approx(1.0, rel=1e-10)

    def test_samples_below_floor_enter_fit(self):
        ts = np.linspace(0, 10, 101)
        es = np.exp(-10 * ts)  # drops below 1e-14 near t = 3.2
        fit = fit_decay(synthetic_reports(ts, es))
        # every sample of [1, 7.5], the 43 below the floor among them
        assert fit.n_samples == 66
        assert fit.C2 == pytest.approx(10.0, rel=1e-14)

    @given(c1=st.floats(1e-3, 1e3), c2=st.floats(0.05, 10.0),
           t_end=st.floats(1.0, 40.0), n=st.integers(30, 400))
    @settings(deadline=None, max_examples=200)
    def test_pure_exponential_recovers_rate(self, c1, c2, t_end, n):
        ts = np.linspace(0, t_end, n)
        es = c1 * np.exp(-c2 * ts)
        in_window = (ts >= 0.1 * ts[-1]) & (ts <= 0.75 * ts[-1])
        reports = synthetic_reports(ts, es)
        if np.sum(in_window & (es > ENERGY_FLOOR)) >= 10:
            fit = fit_decay(reports)
            assert fit.C2 == pytest.approx(c2, rel=1e-9)
            assert fit.n_samples == np.sum(in_window & (es > 0))
        else:
            with pytest.raises(FitError):
                fit_decay(reports)

    def test_insufficient_samples(self):
        ts = np.linspace(0, 1, 5)
        with pytest.raises(FitError):
            fit_decay(synthetic_reports(ts, np.exp(-ts)))
        ts = np.linspace(0, 1, 100)
        with pytest.raises(FitError):
            fit_decay(synthetic_reports(ts, np.full_like(ts, 1e-16)))


class TestEnergyIdentity:
    def test_zero_trajectory(self):
        ts = np.linspace(0, 1, 20)
        assert check_energy_identity(synthetic_reports(ts, np.zeros_like(ts))) == 0.0

    def test_reads_ledger_column(self):
        ts = np.linspace(0, 1, 20)
        reports = synthetic_reports(ts, np.ones_like(ts), identity_residual=0.25)
        assert check_energy_identity(reports) == pytest.approx(0.25)

    def test_empty_trajectory_rejected(self):
        with pytest.raises(ValueError, match="empty trajectory"):
            check_energy_identity([])


class TestVirialIdentity:
    def test_zero_trajectory(self):
        ts = np.linspace(0, 1, 50)
        assert check_virial_identity(synthetic_reports(ts, np.zeros_like(ts))) == 0.0

    def test_nan_cross_term_gives_nan_measure(self):
        ts = np.linspace(0, 1, 50)
        reports = synthetic_reports(ts, np.ones_like(ts))
        reports[20] = replace(reports[20], cross_term=math.nan)
        assert math.isnan(check_virial_identity(reports))

    @settings(deadline=None, max_examples=300)
    @given(data=st.data(), n=st.integers(2, 60))
    def test_closed_form_is_worst_interval(self, data, n):
        # oracle: the trapezoid identity on each interval [t_i, t_j], i < j,
        # each interval summing its own panels p = i..j-1 (a triangular mask)
        def column(lo, hi):
            return np.array(data.draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n)))
        t = np.cumsum(column(1e-3, 1.0))
        I, kin, cross, grad = column(-1e3, 1e3), column(0.0, 1e3), column(-1e3, 1e3), column(0.0, 1e3)
        e0 = data.draw(st.floats(1e-3, 1e3))
        reports = [EnergyReport(t=t[k], E=e0 if k == 0 else 0.0, J=0.0, I=I[k], kinetic=kin[k],
                                grad_sq=grad[k], lgamma=0.0, logterm=0.0, cross_term=cross[k])
                   for k in range(n)]
        bracket = cross + 0.5 * grad
        i, j = np.triu_indices(n, 1)
        p = np.arange(n - 1)
        inside = (i[:, None] <= p) & (p < j[:, None])

        def integral(y):
            return np.where(inside, np.diff(t) * (y[1:] + y[:-1]) / 2.0, 0.0).sum(axis=1)
        worst = np.abs(integral(I) - integral(2.0 * kin) + bracket[j] - bracket[i]).max()
        # both sides sum at most n + 2 terms, none larger than this scale
        scale = (np.sum(np.diff(t) * (np.abs(I) + 2.0 * kin)[1:])
                 + np.sum(np.diff(t) * (np.abs(I) + 2.0 * kin)[:-1])
                 + np.max(np.abs(bracket)))
        slack = 8.0 * (n + 2) * np.finfo(float).eps * scale / e0
        assert abs(check_virial_identity(reports) - worst / e0) <= slack

    def test_early_transient_is_found(self):
        # I is out of balance only on [t_0, t_2]: every interval that starts
        # at t_0 or t_1 violates the identity and no other interval does
        ts = np.linspace(0.0, 1.0, 50)
        reports = synthetic_reports(ts, np.ones_like(ts))
        reports[:2] = [replace(r, I=0.49) for r in reports[:2]]
        assert check_virial_identity(reports) == pytest.approx(1.5 * 0.49 / 49, rel=1e-12)
        assert check_virial_identity(reports) > 1e-3

    def test_linear_self_convergence(self, linear_runs):
        res = {dt: check_virial_identity(r.reports) for dt, r in linear_runs.items()}
        assert res[2e-3] / res[1e-3] > 3.0
        assert res[1e-3] / res[5e-4] > 3.0

    def test_stable_nonlinear_within_tolerance(self):
        dom = DomainSpec(3, np.pi, 8, 2)
        u0 = ModalField.eigenmode(dom, (1, 1, 1), 0.05)
        cfg = SolverConfig(dt=1e-3, t_end=2.0, report_every=10)
        result = integrate(u0, ModalField.zeros(dom), cfg, PARAMS)
        assert check_virial_identity(result.reports) <= 1e-3


class TestIntegralBound:
    def test_synthetic_pure_exponential(self):
        dom = DomainSpec(3, np.pi, 4)
        ts = np.linspace(0, 30, 3001)
        reports = synthetic_reports(ts, np.exp(-ts))
        suite = check_integral_bound(reports, dom, PARAMS)
        # for E = exp(-t) and T >> S the ratio equals 1 for every S
        assert suite.c0_hat == pytest.approx(1.0, rel=1e-3)
        assert suite.n_s_samples == 1501

    @settings(max_examples=100, deadline=None)
    @given(arrays(float, st.tuples(st.integers(1, 100), st.just(2)),
                  elements=st.one_of(st.floats(1e-3, 1e3),
                                     st.sampled_from([0.0, 1e-15, ENERGY_FLOOR]))))
    def test_c0_hat_is_the_worst_ratio_over_every_admissible_s(self, rows):
        # column 0, raised by 1e-3, spaces the reports; column 1 holds E
        ts = np.cumsum(rows[:, 0] + 1e-3)
        ts -= ts[0]
        E = rows[:, 1]
        suite = check_integral_bound(synthetic_reports(ts, E), DomainSpec(3, np.pi, 4), PARAMS)
        admissible = [i for i in range(len(ts) - 1)
                      if E[i] >= ENERGY_FLOOR and ts[i] <= ts[-1] / 2.0]
        assert suite.n_s_samples == len(admissible)
        if admissible:
            brute = max(np.trapezoid(E[i:], ts[i:]) / E[i] for i in admissible)
            assert suite.c0_hat == pytest.approx(brute, rel=1e-12)
        else:
            assert math.isnan(suite.c0_hat)

    def test_zero_trajectory_empty(self):
        dom = DomainSpec(3, np.pi, 4)
        ts = np.linspace(0, 1, 50)
        suite = check_integral_bound(synthetic_reports(ts, np.zeros_like(ts)), dom, PARAMS)
        assert suite.n_s_samples == 0
        assert math.isnan(suite.c0_hat)
        assert math.isnan(suite.delta_hat)

    def test_nan_in_any_row_makes_delta_hat_nan(self):
        dom = DomainSpec(3, np.pi, 4)
        ts = np.linspace(0, 1, 11)
        reports = synthetic_reports(ts, 0.1 * np.exp(-ts), I=1.0, grad_sq=0.5)
        assert check_integral_bound(reports, dom, PARAMS).delta_hat == 1.0
        reports[5] = replace(reports[5], I=math.nan)
        assert math.isnan(check_integral_bound(reports, dom, PARAMS).delta_hat)

    def test_stable_run_estimates(self):
        dom = DomainSpec(3, np.pi, 8, 2)
        u0 = ModalField.eigenmode(dom, (1, 1, 1), 0.05)
        cfg = SolverConfig(dt=1e-3, t_end=4.0, report_every=10)
        result = integrate(u0, ModalField.zeros(dom), cfg, PARAMS)
        suite = check_integral_bound(result.reports, dom, PARAMS)
        assert 0 < suite.delta_hat <= 1.0
        assert math.isfinite(suite.c0_hat) and suite.c0_hat > 0
        assert math.isfinite(suite.cw_hat) and suite.cw_hat > 0
        assert suite.poincare_margin <= 1 + 1e-10
        assert suite.m_hat > 0.5
        # pure function: identical on repeat evaluation
        again = check_integral_bound(result.reports, dom, PARAMS)
        assert again == suite

    def test_poincare_margin_reads_every_nonzero_velocity_gradient(self):
        dom = DomainSpec(3, np.pi, 4)
        cp = 1 / math.sqrt(3)
        ts = np.linspace(0, 1, 11)
        # no sample with a nonzero ||grad u_t||^2: nothing to measure
        reports = synthetic_reports(ts, np.exp(-ts), kinetic=0.5)
        assert check_integral_bound(reports, dom, PARAMS).poincare_margin is None
        reports[3] = replace(reports[3], grad_ut_sq=4.0)
        assert check_integral_bound(reports, dom, PARAMS).poincare_margin == 0.5 / cp

    @pytest.mark.parametrize("cells", [
        {"grad_ut_sq": math.nan}, {"kinetic": math.nan}, {"grad_ut_sq": -1.0},
        {"kinetic": math.inf, "grad_ut_sq": math.inf}, {"grad_ut_sq": 1e-320},
    ], ids=["nan-gradient", "nan-kinetic", "negative", "inf-over-inf", "overflow"])
    def test_poincare_row_fails_bad_samples_quietly(self, cells):
        ts = np.linspace(0, 1, 11)
        reports = synthetic_reports(ts, np.exp(-ts), kinetic=0.5, grad_ut_sq=4.0)
        reports[5] = replace(reports[5], **cells)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            checks, _ = run_checks(reports, DomainSpec(3, np.pi, 4), PARAMS)
        row = {c["name"]: c for c in checks}["poincare_margin"]
        assert row["status"] == "FAIL"
        assert not math.isfinite(row["measured"])


@pytest.fixture(scope="module")
def setup():
    dom = DomainSpec(3, np.pi, 4, 2)
    u0 = ModalField.eigenmode(dom, (1, 1, 1), 0.05)
    u1 = ModalField.zeros(dom)
    cfg = SolverConfig(dt=1e-3, t_end=2.0, report_every=100)
    return u0, u1, cfg


@pytest.fixture(scope="module")
def study(setup):
    # one study for the tests that read a fixed epsilon: a row depends only on
    # its own epsilon, and the base run is integrated once
    u0, u1, cfg = setup
    return continuous_dependence(u0, u1, cfg, PARAMS, epsilons=(0.0, 1e-3, 1e-4), seed=4)


class TestContinuousDependence:
    def test_zero_perturbation_exact_zero(self, study):
        assert study.status == COMPLETED
        assert all(d == 0.0 for d in study.D[0])

    def test_quadratic_scaling(self, study):
        assert study.status == COMPLETED
        # compare D/eps^2 at the final sample
        r1 = study.D_over_eps_sq[1][-1]
        r2 = study.D_over_eps_sq[2][-1]
        assert 0.5 < r1 / r2 < 2.0

    def test_initial_norm_matches_epsilon(self, study):
        # perturbation has unit gradient norm: D(0) = eps^2
        assert study.D[1][0] == pytest.approx(1e-6, rel=1e-10)

    def test_growth_rate_fits_the_largest_epsilon_in_any_order(self, setup):
        # the rows of one epsilon do not depend on the others, so the fit on
        # the row of the largest |epsilon| gives one rate for every order
        u0, u1, _ = setup
        cfg = SolverConfig(dt=1e-3, t_end=0.2, report_every=10)
        rates = [continuous_dependence(u0, u1, cfg, PARAMS, epsilons=order, seed=4).growth_rate
                 for order in [(0.0, 1e-3), (1e-3, 0.0), (1e-4, 1e-3), (1e-3, 1e-4)]]
        assert math.isfinite(rates[0])
        assert [r.hex() for r in rates] == [rates[0].hex()] * 4

    def test_each_perturbed_run_is_freed_before_the_next(self, setup, monkeypatch):
        u0, u1, _ = setup
        results, alive = [], []

        def tracked(*args, **kwargs):
            # earlier perturbed results still held when this run starts
            alive.append(sum(ref() is not None for ref in results[1:]))
            result = integrate(*args, **kwargs)
            results.append(weakref.ref(result))
            return result

        monkeypatch.setattr(analysis, "integrate", tracked)
        cfg = SolverConfig(dt=1e-3, t_end=0.05, report_every=10)
        report = continuous_dependence(u0, u1, cfg, PARAMS, epsilons=(1e-3, 1e-4, 0.0), seed=4)
        assert report.status == COMPLETED
        assert alive == [0, 0, 0, 0]

    @pytest.mark.parametrize("eps", [1e-170, -1e-170, float("nan"), float("inf")])
    def test_bad_epsilon_rejected_before_integrating(self, setup, eps, monkeypatch):
        u0, u1, cfg = setup
        monkeypatch.setattr(analysis, "integrate", lambda *a, **k: pytest.fail("integrated"))
        with pytest.raises(ValueError, match="epsilon"):
            continuous_dependence(u0, u1, cfg, PARAMS, epsilons=(1e-3, eps), seed=4)

    def test_no_epsilon_rejected_before_integrating(self, setup, monkeypatch):
        # with no perturbed run the study would return no D row and a NaN rate
        u0, u1, cfg = setup
        monkeypatch.setattr(analysis, "integrate", lambda *a, **k: pytest.fail("integrated"))
        with pytest.raises(ValueError, match="epsilon"):
            continuous_dependence(u0, u1, cfg, PARAMS, epsilons=(), seed=4)


class TestConvergenceStudy:
    def test_linear_band_preserving(self):
        dom = DomainSpec(3, np.pi, 4, 2)
        u0 = ModalField.eigenmode(dom, (1, 1, 1), 0.4)
        u1 = ModalField.zeros(dom)
        cfg = SolverConfig(dt=1e-3, t_end=1.0, report_every=100)
        study = convergence_study(u0, u1, cfg, LINEAR, [1, 2, 4])
        assert study.status == COMPLETED
        assert study.passed
        # linear dynamics never leave the band: levels agree to rounding
        assert max(study.E_diffs) <= 1e-14 * max(study.E_end)
        assert all(loss == 0.0 for loss in study.projection_loss)

    def test_projection_loss_reported(self):
        dom = DomainSpec(3, np.pi, 4, 2)
        u0 = ModalField(dom, ModalField.eigenmode(dom, (1, 1, 1), 0.4).coeffs
                        + ModalField.eigenmode(dom, (2, 2, 2), 0.3).coeffs)
        u1 = ModalField.zeros(dom)
        cfg = SolverConfig(dt=1e-3, t_end=0.2, report_every=100)
        study = convergence_study(u0, u1, cfg, LINEAR, [1, 2, 4])
        assert study.projection_loss[0] > 0
        assert study.projection_loss[1] == 0.0

    def test_monotonicity_requirement(self):
        dom = DomainSpec(3, np.pi, 4, 2)
        u0 = ModalField.eigenmode(dom, (1, 1, 1), 0.05)
        u1 = ModalField.zeros(dom)
        with pytest.raises(ValueError):
            convergence_study(u0, u1, SolverConfig(dt=1e-3, t_end=0.1), PARAMS, [4, 4])
        with pytest.raises(ValueError):
            convergence_study(u0, u1, SolverConfig(dt=1e-3, t_end=0.1), PARAMS, [4])


class TestCheckTable:
    def test_rows_pin_the_spec(self):
        # a loosened tolerance, a weaker comparison or a dropped row fails here
        rows = [(c.name, c.mandatory, c.tolerance, c.compare) for c in CHECKS]
        threshold = rows[3][2]
        assert rows == [
            ("energy_identity", True, 1e-4, operator.le),
            ("monotone_dissipation", True, 1e-10, operator.le),
            ("invariance_I_positive", True, 0.0, operator.gt),
            ("invariance_E_below_threshold", True, threshold, operator.lt),
            ("uniform_bound", True, 1.0, operator.lt),
            ("virial_identity", True, 1e-3, operator.le),
            ("poincare_margin", True, 1.0 + 1e-10, operator.le),
            ("integral_bound_finite", False, None, analysis._finite),
            ("decay_rate_positive", False, 0.0, operator.gt),
            ("decay_fit_r_squared", False, 0.99, operator.ge),
        ]
        # that tolerance is the threshold of an IN stable-set verdict, else None
        run = CheckInput(synthetic_reports([0.0], [1.0]), DomainSpec(3, np.pi, 4), PARAMS)
        assert threshold(run) is None
        for status, expected in ((IN, 0.25), ("OUT_E", None)):
            verdict = StableSetVerdict(status, I0=1.0, E0=0.1, threshold=0.25)
            assert threshold(replace(run, verdict=verdict)) == expected

    @pytest.mark.parametrize("column,row", [
        ("identity_residual", "energy_identity"),
        ("I", "invariance_I_positive"),
        ("E", "invariance_E_below_threshold"),
        ("kinetic", "uniform_bound"),
    ])
    def test_nan_in_a_middle_row_fails_its_row(self, column, row):
        ts = np.linspace(0, 1, 11)
        reports = synthetic_reports(ts, 0.1 * np.exp(-ts), I=1.0)
        verdict = StableSetVerdict(IN, I0=1.0, E0=0.1, threshold=1.0)

        def status():
            checks, _ = run_checks(reports, DomainSpec(3, np.pi, 4), PARAMS, verdict)
            return {c["name"]: c["status"] for c in checks}[row]

        assert status() == "PASS"
        reports[5] = replace(reports[5], **{column: math.nan})
        assert status() == "FAIL"

    def test_library_fit_is_the_table_fit(self):
        # the tail crosses the energy floor near t = 11, inside the window
        # [2, 15]: the library and the summary fit the same samples
        ts = np.linspace(0, 20, 401)
        es = np.exp(-3 * ts) * (1 + 0.1 * np.cos(5 * ts))
        reports = synthetic_reports(ts, es)
        _, extras = run_checks(reports, DomainSpec(3, np.pi, 4), PARAMS)
        assert extras["decay_fit"] == asdict(fit_decay(reports))

    def test_each_check_function_runs_once_by_module_name(self, monkeypatch):
        # the table must reach rebound names: the benchmark's tracer rebinds them
        calls = []
        for name in ("check_energy_identity", "check_virial_identity",
                     "check_integral_bound", "fit_decay"):
            monkeypatch.setattr(analysis, name, lambda *a, _f=getattr(analysis, name), _n=name,
                                **k: calls.append(_n) or _f(*a, **k))
        ts = np.linspace(0, 10, 200)
        reports = synthetic_reports(ts, np.exp(-ts), cross_term=0.0)
        run_checks(reports, DomainSpec(3, np.pi, 4), PARAMS)
        assert sorted(calls) == ["check_energy_identity", "check_integral_bound",
                                 "check_virial_identity", "fit_decay"]


class TestGammaSweep:
    """The paper's window [4, 6) in 3-D, integer and non-integer exponents:
    every mandatory row of the check table, second order of the energy
    identity, the Nehari residual and the scale invariance of the fibering
    maximum at each gamma."""

    @pytest.mark.parametrize("gamma", [4.0, 4.5, 5.0, 5.5, 5.9])
    def test_checks_and_projection(self, gamma):
        params = ModelParams(gamma, 3)
        dom = DomainSpec(3, np.pi, 4, 2)
        trials, _ = default_trial_family(dom, count=4, seed=7)
        depth = estimate_depth(trials, params)
        u0 = ModalField.eigenmode(dom, (1, 1, 1), 0.05)
        u1 = ModalField.zeros(dom)
        verdict = stable_set_check(u0, u1, depth.d_hat, 0.5, params)
        assert verdict.status == IN

        result = integrate(u0, u1, SolverConfig(dt=1e-3, t_end=0.5), params)
        assert result.status == COMPLETED
        checks, _ = run_checks(result.reports, dom, params, verdict)
        mandatory = {c["name"]: c["status"] for c in checks if c["mandatory"]}
        assert set(mandatory.values()) == {"PASS"}, mandatory
        halved = integrate(u0, u1, SolverConfig(dt=5e-4, t_end=0.5), params)
        assert (check_energy_identity(result.reports)
                >= 3.5 * check_energy_identity(halved.reports))

        for trial in trials:
            lam, j_max = project_to_nehari(trial, params)
            m = fiber_moments(trial, params)
            assert abs(fiber_I(m, lam, gamma)) <= 1e-10 * lam ** 2 * m.A
            lam_scaled, j_scaled = project_to_nehari(trial.scaled(1e3), params)
            assert j_scaled == pytest.approx(j_max, rel=1e-10)
            assert lam_scaled * 1e3 == pytest.approx(lam, rel=1e-10)
