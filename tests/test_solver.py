import gc
import math
import operator
import os
import platform
import subprocess
import sys
import textwrap
import tracemalloc
import weakref
from dataclasses import FrozenInstanceError, astuple, fields
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import logwave
from logwave import solver
from logwave.analysis import CHECKS, CheckInput, continuous_dependence
from logwave.domain import (
    DomainSpec,
    ModalField,
    analyze,
    coeff_grad_norm_sq,
    grad_norm_sq,
    l2_inner,
    random_band_limited,
    synthesize,
)
from logwave.functionals import ModelParams, energy, source_eval
from logwave.solver import (
    BLOWUP,
    COMPLETED,
    RUNNING,
    IntegrationResult,
    SolverConfig,
    _trapezoid,
    blowup_scan,
    integrate,
    source_projection,
    step,
)
from logwave.well import default_trial_family, estimate_depth, project_to_nehari, stable_set_check

PARAMS = ModelParams(4.0, 3)


def measure(name, dom, result, verdict=None):
    """The check table's measure of one check on a trajectory."""
    row = next(c for c in CHECKS if c.name == name)
    return row.measure(CheckInput(result.reports, dom, PARAMS, verdict))


def scan(dom, a, b, threshold):
    """``blowup_scan`` given the two gradient norms that the loop computes."""
    return blowup_scan(a, b, coeff_grad_norm_sq(dom, a), coeff_grad_norm_sq(dom, b), threshold)


def fresh_source_projection(dom, a, gamma):
    """F(a) by the fresh-array chain, the reference for ``source_projection``."""
    return analyze(dom, source_eval(synthesize(dom, a), gamma))


def same_bits(x, y):
    return x is y or np.asarray(x).tobytes() == np.asarray(y).tobytes()


def params_1d(gamma=4.0, source=True):
    return ModelParams(gamma, 1, source_enabled=source)


def damped_mode_exact(lam: float, t: np.ndarray, a0: float = 1.0, b0: float = 0.0) -> np.ndarray:
    """Closed form of a'' + lam a' + lam a = 0."""
    disc = lam * lam - 4.0 * lam
    if disc < 0:
        sig = -lam / 2.0
        om = np.sqrt(-disc) / 2.0
        c2 = (b0 - sig * a0) / om
        return np.exp(sig * t) * (a0 * np.cos(om * t) + c2 * np.sin(om * t))
    r1 = (-lam + np.sqrt(disc)) / 2.0
    r2 = (-lam - np.sqrt(disc)) / 2.0
    c1 = (b0 - r2 * a0) / (r1 - r2)
    c2 = a0 - c1
    return c1 * np.exp(r1 * t) + c2 * np.exp(r2 * t)


class TestRhsNonlinear:
    def test_zero(self):
        dom = DomainSpec(3, np.pi, 4)
        F = source_projection(dom, np.zeros(dom.modal_shape), 4.0)
        assert not np.any(F)

    def test_plateau_nearly_annihilated(self):
        # grid values ~ 1 in the interior make ln|u| ~ 0 there
        dom = DomainSpec(1, np.pi, 32, 16)
        plateau = analyze(dom, np.ones(dom.grid_shape))
        F_plateau = source_projection(dom, plateau, 4.0)
        F_lifted = source_projection(dom, np.e * plateau, 4.0)
        assert np.abs(F_plateau).max() < 0.1 * np.abs(F_lifted).max()

    def test_against_dense_quadrature_oracle(self):
        dom = DomainSpec(1, np.pi, 8, 32)
        u = ModalField.eigenmode(dom, (1,), 0.3)
        F = source_projection(dom, u.coeffs, 4.0)
        x = np.linspace(0, np.pi, 200001)
        uv = 0.3 * np.sin(x)
        fv = np.abs(uv) ** 2 * uv * np.log(np.maximum(np.abs(uv), 1e-300))
        oracle = np.array([
            np.trapezoid(fv * np.sin(k * x), x) / (np.pi / 2) for k in range(1, 9)
        ])
        scale = np.abs(oracle).max()
        assert np.abs(F - oracle).max() <= 1e-8 * scale

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("gamma", [3.0, 4.0, 5.0, 5.5])
    def test_equals_the_fresh_array_reference(self, dim, gamma):
        # gamma - 2 = 1, 2 and 3 take the log kernel's products, 3.5 its exp
        dom = DomainSpec(dim, np.pi, 4)
        a = 0.5 * np.random.default_rng(dim).standard_normal(dom.modal_shape)
        a_before = a.copy()
        want = fresh_source_projection(dom, a, gamma)
        assert same_bits(source_projection(dom, a, gamma), want)
        # the second call runs on the scratch the first left, here made NaN
        for w in dom.scratch:
            w.fill(np.nan)
        got = source_projection(dom, a, gamma)
        assert same_bits(got, want)
        assert same_bits(a, a_before)
        assert not any(np.shares_memory(got, w) for w in dom.scratch)


class TestStep:
    def test_zero_fixed_point(self):
        dom = DomainSpec(3, np.pi, 4)
        zero = np.zeros(dom.modal_shape)
        a, b, f = step(dom, zero, zero, None, _trapezoid(dom, 1e-3), PARAMS)
        assert not np.any(a)
        assert not np.any(b)
        assert not np.any(f)
        one = integrate(ModalField.zeros(dom), ModalField.zeros(dom),
                        SolverConfig(dt=1e-3, t_end=1e-3), PARAMS)
        assert one.reports[-1].damping_integral == 0.0

    def test_steps_match_trapezoid_and_extrapolated_source(self):
        # the first step has no history and adds af F(a0); a later step adds
        # af (3/2 F - 1/2 F_prev), the source extrapolated to the step midpoint
        dom = DomainSpec(3, np.pi, 4)
        coeffs = aa, ab, af, ba, bb, bf = _trapezoid(dom, 1e-3)

        def source(a):
            # step's source and source_projection both give the reference's bits
            want = fresh_source_projection(dom, a, PARAMS.gamma)
            assert same_bits(source_projection(dom, a, PARAMS.gamma), want)
            return want

        a0 = ModalField.eigenmode(dom, (1, 1, 1), 0.3).coeffs
        b0 = ModalField.eigenmode(dom, (2, 1, 1), 0.1).coeffs
        a1, b1, f0 = step(dom, a0, b0, None, coeffs, PARAMS)
        assert same_bits(f0, source(a0))
        assert np.array_equal(a1, aa * a0 + ab * b0 + af * f0)
        assert np.array_equal(b1, ba * a0 + bb * b0 + bf * f0)
        a2, b2, f1 = step(dom, a1, b1, f0, coeffs, PARAMS)
        assert same_bits(f1, source(a1))
        f_star = 1.5 * f1 - 0.5 * f0
        assert np.array_equal(a2, aa * a1 + ab * b1 + af * f_star)
        assert np.array_equal(b2, ba * a1 + bb * b1 + bf * f_star)

    def test_history_changes_the_step(self):
        dom = DomainSpec(3, np.pi, 4)
        u = ModalField.eigenmode(dom, (1, 1, 1), 0.5).coeffs
        ut = np.zeros(dom.modal_shape)
        coeffs = _trapezoid(dom, 1e-2)
        a1, b1, f0 = step(dom, u, ut, None, coeffs, PARAMS)
        with_history, _, _ = step(dom, a1, b1, f0, coeffs, PARAMS)
        without_history, _, _ = step(dom, a1, b1, None, coeffs, PARAMS)
        assert not np.array_equal(with_history, without_history)

    @pytest.mark.parametrize("k,expect_complex", [((1, 1, 1), True), ((2, 2, 2), False)])
    def test_linear_matches_closed_form(self, k, expect_complex):
        dom = DomainSpec(3, np.pi, 4)
        lam = sum(ki ** 2 for ki in k)
        assert (lam * lam - 4 * lam < 0) == expect_complex
        params = ModelParams(4.0, 3, source_enabled=False)
        dt = 1e-4
        cfg = SolverConfig(dt=dt, t_end=1.0, report_every=100)
        u0 = ModalField.eigenmode(dom, k, 1.0)
        result = integrate(u0, ModalField.zeros(dom), cfg, params, store_states=True)
        idx = tuple(ki - 1 for ki in k)
        ts = np.array([r.t for r in result.reports])
        got = np.array([u.coeffs[idx] for u, _ in result.states])
        exact = damped_mode_exact(float(lam), ts)
        assert np.abs(got - exact).max() <= 1e-6 * np.abs(exact).max()


class TestBlowupScan:
    def test_zero_running(self):
        dom = DomainSpec(3, np.pi, 4)
        zero = np.zeros(dom.modal_shape)
        assert scan(dom, zero, zero, 1e8) == RUNNING

    def test_non_finite_flags(self):
        dom = DomainSpec(1, np.pi, 4)
        bad = np.array([np.inf, 0.0, 0.0, 0.0])
        assert scan(dom, bad, np.zeros(4), 1e8) == BLOWUP

    def test_threshold_flags(self):
        dom = DomainSpec(1, np.pi, 4)
        big = ModalField.eigenmode(dom, (1,), 1e9).coeffs
        assert scan(dom, big, np.zeros(4), 1e8) == BLOWUP

    def test_overflowing_velocity_norm_runs(self):
        # finite coefficients whose ||grad u_t||^2 overflows are no blow-up
        dom = DomainSpec(1, np.pi, 4)
        huge = np.full(4, 1e160)
        with np.errstate(over="ignore"):
            assert coeff_grad_norm_sq(dom, huge) == np.inf
            assert scan(dom, np.zeros(4), huge, 1e8) == RUNNING

    @staticmethod
    def isfinite_then_norm(dom, a, b, threshold):
        """The scan before it took the norms: two isfinite passes, then ||grad u||^2."""
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            return BLOWUP
        if coeff_grad_norm_sq(dom, a) > threshold * threshold:
            return BLOWUP
        return RUNNING

    @settings(deadline=None, max_examples=300)
    @given(data=st.data(), dim=st.integers(1, 3), m=st.integers(1, 3),
           threshold=st.sampled_from([10.0, 1e8]), ulps=st.integers(-3, 3),
           at_threshold=st.booleans())
    def test_matches_isfinite_then_norm(self, data, dim, m, threshold, ulps, at_threshold):
        dom = DomainSpec(dim, np.pi, m)
        n = m ** dim

        def coeffs():
            # finite entries, up to two of them replaced by NaN, +-inf or a
            # finite value whose square overflows
            c = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)))
            for i in data.draw(st.lists(st.integers(0, n - 1), max_size=2)):
                c[i] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf, 1e160, -1e160]))
            return c.reshape(dom.modal_shape)

        a, b = coeffs(), coeffs()
        with np.errstate(over="ignore", invalid="ignore"):
            grad_sq = coeff_grad_norm_sq(dom, a)
            if at_threshold and 0.0 < grad_sq < np.inf:
                # ||grad u|| within a few ulps of the threshold, either side
                a *= threshold / math.sqrt(grad_sq) * (1.0 + ulps * 2.0 ** -52)
                grad_sq = coeff_grad_norm_sq(dom, a)
            grad_ut_sq = coeff_grad_norm_sq(dom, b)
            expected = self.isfinite_then_norm(dom, a, b, threshold)
        with mock.patch.object(np, "isfinite", wraps=np.isfinite) as isfinite:
            got = blowup_scan(a, b, grad_sq, grad_ut_sq, threshold)
        assert got == expected
        if math.isfinite(grad_sq) and math.isfinite(grad_ut_sq):
            assert isfinite.call_count == 0

    def test_unstable_large_amplitude_blows_up(self):
        # I(u0) < 0 and E(0) far above any well-depth estimate
        dom = DomainSpec(1, np.pi, 16, 2)
        cfg = SolverConfig(dt=1e-3, t_end=20.0)
        u0 = ModalField.eigenmode(dom, (1,), 10.0)
        result = integrate(u0, ModalField.zeros(dom), cfg, params_1d())
        assert result.status == BLOWUP
        assert result.t_max < 20.0


@pytest.fixture(scope="module")
def short_stable_run():
    dom = DomainSpec(3, np.pi, 8, 2)
    u0 = ModalField.eigenmode(dom, (1, 1, 1), 0.05)
    u1 = ModalField.zeros(dom)
    runs = {}
    for dt in (2e-3, 1e-3, 5e-4):
        cfg = SolverConfig(dt=dt, t_end=2.0, report_every=max(1, round(0.01 / dt)))
        runs[dt] = integrate(u0, u1, cfg, PARAMS)
    return dom, runs


class TestIntegrate:
    def test_zero_data_trivial_run(self):
        dom = DomainSpec(3, np.pi, 4)
        cfg = SolverConfig(dt=1e-2, t_end=0.5)
        result = integrate(ModalField.zeros(dom), ModalField.zeros(dom), cfg, PARAMS)
        assert result.status == COMPLETED
        for rep in result.reports:
            assert rep.E == 0.0 and rep.identity_residual == 0.0

    def test_energy_monotone(self, short_stable_run):
        dom, runs = short_stable_run
        assert measure("monotone_dissipation", dom, runs[1e-3]) <= 1e-10

    def test_energy_identity_self_convergence(self, short_stable_run):
        _, runs = short_stable_run
        res = {}
        for dt, result in runs.items():
            e0 = result.reports[0].E
            res[dt] = max(abs(r.identity_residual) for r in result.reports) / e0
        assert res[1e-3] < 1e-4
        assert res[2e-3] / res[1e-3] > 3.0
        assert res[1e-3] / res[5e-4] > 3.0

    def test_energy_law_catches_a_first_order_step(self, monkeypatch):
        # criterion 01's measure under a seeded fault: every step forgets the
        # source history, so the scheme is first order.  The residual at
        # dt 1e-3 (7.4e-5) stays under the 1e-4 gate; only the halving ratios
        # (about 2 against 4) catch the fault.
        dom = DomainSpec(3, np.pi, 4)
        phi = ModalField.eigenmode(dom, (1, 1, 1))
        u0 = phi.scaled(0.6 * project_to_nehari(phi, PARAMS)[0])
        u1 = ModalField.zeros(dom)

        def residual_and_ratios():
            res = [measure("energy_identity", dom,
                           integrate(u0, u1, SolverConfig(dt=dt, t_end=1.0), PARAMS))
                   for dt in (2e-3, 1e-3, 5e-4)]
            return res[1], res[0] / res[1], res[1] / res[2]

        residual, *second_order = residual_and_ratios()
        assert residual < 1e-4 and min(second_order) >= 3.5
        real_step = solver.step
        monkeypatch.setattr(solver, "step", lambda domain, a, b, f_prev, coeffs, params:
                            real_step(domain, a, b, None, coeffs, params))
        residual, *first_order = residual_and_ratios()
        assert residual < 1e-4
        assert max(first_order) < 3.5

    def test_damping_integral_nondecreasing(self, short_stable_run):
        _, runs = short_stable_run
        d = np.array([r.damping_integral for r in runs[1e-3].reports])
        assert np.all(np.diff(d) >= 0)

    def test_pointwise_poincare(self, short_stable_run):
        dom, runs = short_stable_run
        assert measure("poincare_margin", dom, runs[1e-3]) <= 1 + 1e-10

    def test_uniform_bound_along_run(self, short_stable_run):
        dom, runs = short_stable_run
        u0 = ModalField.eigenmode(dom, (1, 1, 1), 0.05)
        d_hat = estimate_depth([u0], PARAMS).d_hat
        verdict = stable_set_check(u0, ModalField.zeros(dom), d_hat, 0.5, PARAMS)
        assert measure("invariance_I_positive", dom, runs[1e-3], verdict) > 0
        assert measure("uniform_bound", dom, runs[1e-3], verdict) < 1.0

    @settings(deadline=None, max_examples=60)
    @given(dim=st.integers(1, 3), m=st.integers(1, 4), source=st.booleans(), report_every=st.sampled_from([1, 3, 7]),
           n_steps=st.integers(1, 25), log10_amplitude=st.floats(-2.0, 2.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_chain_of_steps(self, dim, m, source, report_every, n_steps,
                                    log10_amplitude, seed):
        # amplitudes above about 1 cross the threshold, at the first step or later
        dom = DomainSpec(dim, np.pi, m)
        params = ModelParams(4.0, dim, source_enabled=source)
        dt = 1e-2
        cfg = SolverConfig(dt=dt, t_end=n_steps * dt, blowup_threshold=1e3,
                           report_every=report_every)
        rng = np.random.default_rng(seed)
        u0 = random_band_limited(dom, rng).scaled(10.0 ** log10_amplitude)
        u1 = random_band_limited(dom, rng).scaled(10.0 ** log10_amplitude)
        result = integrate(u0, u1, cfg, params, store_states=True)

        a, b, f, damp = u0.coeffs, u1.coeffs, None, 0.0
        expected = [(0, a, b, damp)]
        status = COMPLETED
        coeffs = _trapezoid(dom, dt)
        for n in range(1, n_steps + 1):
            a_new, b_new, f = step(dom, a, b, f, coeffs, params)
            damp += 0.5 * dt * (grad_norm_sq(ModalField(dom, b))
                                + grad_norm_sq(ModalField(dom, b_new)))
            a, b = a_new, b_new
            if scan(dom, a, b, cfg.blowup_threshold) == BLOWUP:
                status = BLOWUP
                break
            if n % report_every == 0 or n == n_steps:
                expected.append((n, a, b, damp))

        assert result.status == status
        assert len(result.states) == len(result.reports) == len(expected)
        for (u, ut), rep, (k, a_k, b_k, damp_k) in zip(result.states, result.reports, expected):
            assert np.array_equal(u.coeffs, a_k)
            assert np.array_equal(ut.coeffs, b_k)
            assert rep.t == k * dt
            assert rep.damping_integral == damp_k
        ledger = [r.damping_integral for r in result.reports]
        assert all(d1 >= d0 for d0, d1 in zip(ledger, ledger[1:]))
        assert np.array_equal(result.u.coeffs, a) and np.array_equal(result.ut.coeffs, b)
        if status == BLOWUP:
            assert result.t_max == n * dt
        else:
            assert result.t_max is None
            assert result.states[-1][0] is result.u and result.states[-1][1] is result.ut

    @pytest.mark.parametrize("call", [
        lambda u, v: integrate(u, v, SolverConfig(dt=1e-2, t_end=0.1), PARAMS),
        lambda u, v: energy(u, v, PARAMS),
        l2_inner,
        operator.add,
        operator.sub,
    ], ids=["integrate", "energy", "l2_inner", "add", "sub"])
    def test_fields_on_different_domains_rejected(self, call):
        u = ModalField.eigenmode(DomainSpec(3, np.pi, 4), (1, 1, 1))
        v = ModalField.zeros(DomainSpec(3, 2 * np.pi, 4))
        with pytest.raises(ValueError, match="different domains"):
            call(u, v)

    def test_one_frozen_record_per_trajectory(self):
        assert [f.name for f in fields(IntegrationResult)] == [
            "reports", "status", "u", "ut", "t_max", "states"]
        dom = DomainSpec(1, np.pi, 16, 2)
        u0 = ModalField.eigenmode(dom, (1,), 0.1)
        done = integrate(u0, ModalField.zeros(dom), SolverConfig(dt=1e-3, t_end=0.05),
                         params_1d(), store_states=True)
        assert done.status == COMPLETED and done.t_max is None
        assert len(done.states) == len(done.reports) == 6
        assert done.states[-1][0] is done.u and done.states[-1][1] is done.ut
        with pytest.raises(FrozenInstanceError):
            done.t_max = 1.0

        dt, threshold = 1e-3, 1e3
        cfg = SolverConfig(dt=dt, t_end=20.0, blowup_threshold=threshold)
        blown = integrate(u0.scaled(100.0), ModalField.zeros(dom), cfg, params_1d(),
                          store_states=True)
        assert blown.status == BLOWUP
        n = round(blown.t_max / dt)
        assert blown.reports[-1].t < blown.t_max == n * dt
        # u is the state at the blow-up step, not at the last report
        assert grad_norm_sq(blown.u) > threshold * threshold
        assert len(blown.states) == len(blown.reports)

    def test_report_cadence_and_times(self, short_stable_run):
        _, runs = short_stable_run
        reports = runs[1e-3].reports
        assert reports[0].t == 0.0
        dts = np.diff([r.t for r in reports])
        assert np.allclose(dts, 0.01, rtol=1e-9)

    def test_step_coefficients_built_once_per_integrate(self, monkeypatch):
        # integrate owns the coefficients of its one dt: one build per call,
        # whatever the step count, so one per trajectory of a study
        built = []
        real = solver._trapezoid
        monkeypatch.setattr(solver, "_trapezoid",
                            lambda domain, dt: built.append(dt) or real(domain, dt))
        dom = DomainSpec(3, np.pi, 4)
        u0, u1 = ModalField.eigenmode(dom, (1, 1, 1), 0.05), ModalField.zeros(dom)
        for n_steps in (1, 7, 40):
            built.clear()
            result = integrate(u0, u1, SolverConfig(dt=1e-3, t_end=n_steps * 1e-3), PARAMS)
            assert result.reports[-1].t == n_steps * 1e-3
            assert built == [1e-3]
        built.clear()
        report = continuous_dependence(u0, u1, SolverConfig(dt=1e-3, t_end=0.02), PARAMS,
                                       epsilons=(1e-3, 1e-4), seed=1)
        assert report.status == COMPLETED
        assert built == [1e-3] * 3


class TestWorkspace:
    """One grid scratch per domain, reused by every step, report and trial."""

    @staticmethod
    def state(dom, seed=5, amplitude=0.05):
        rng = np.random.default_rng(seed)
        return (amplitude * rng.standard_normal(dom.modal_shape),
                amplitude * rng.standard_normal(dom.modal_shape))

    @pytest.mark.parametrize("gamma", [4.0, 5.5])
    def test_allocation_per_step_and_report(self, gamma):
        # at m=16 a fresh grid array is mapped anew from the operating system
        # on every call; the grid work and the 3-D transform products live in
        # the domain's buffers, so a step allocates only its modal
        # temporaries (0.75 of a grid at m=16), a report less than one grid,
        # and source_projection only its modal result (0.13 of a grid)
        dom = DomainSpec(3, np.pi, 16)
        params = ModelParams(gamma, 3)
        # the coefficients are built outside the traced window, as integrate
        # builds them once before its loop
        coeffs = _trapezoid(dom, 1e-3)
        a, b = self.state(dom)
        f = step(dom, a, b, None, coeffs, params)[2]
        u, ut = ModalField(dom, a), ModalField(dom, b)
        calls = ((lambda: step(dom, a, b, f, coeffs, params), 1.1),
                 (lambda: energy(u, ut, params), 0.8),
                 (lambda: source_projection(dom, a, params.gamma), 0.2))
        for call, grids in calls:
            call()
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= grids * dom.scratch[0].nbytes

    def test_integrate_allocates_one_workspace(self, monkeypatch):
        # the grid scratch is built once, for the domain integrate runs on
        made = []
        build = DomainSpec.__dict__["scratch"].func

        def counted(domain):
            made.append(domain)
            return build(domain)

        monkeypatch.setattr(DomainSpec.__dict__["scratch"], "func", counted)
        dom = DomainSpec(3, np.pi, 4)
        a, b = self.state(dom)
        result = integrate(ModalField(dom, a), ModalField(dom, b),
                           SolverConfig(dt=1e-3, t_end=0.02, report_every=5), PARAMS)
        assert len(result.reports) == 5
        assert made == [dom]

    def test_domain_freed_after_integrate(self):
        dom = DomainSpec(3, np.pi, 4)
        a, b = self.state(dom)
        cfg = SolverConfig(dt=1e-3, t_end=0.02, report_every=5)
        result = integrate(ModalField(dom, a), ModalField(dom, b), cfg, PARAMS)
        ref = weakref.ref(dom)
        del dom, result
        gc.collect()
        assert ref() is None

    def test_one_scratch_per_domain(self):
        # the loop, the trials and the stable-set energy all write into the
        # scratch of the domain they run on, and leave its arrays in place
        dom = DomainSpec(3, np.pi, 4)
        scratch = dom.scratch
        a, b = self.state(dom)
        u0, u1 = ModalField(dom, a), ModalField(dom, b)
        trials, _ = default_trial_family(dom, count=4, seed=2)
        calls = (
            lambda: integrate(u0, u1, SolverConfig(dt=1e-3, t_end=0.02, report_every=5),
                              PARAMS),
            lambda: estimate_depth(trials, PARAMS),
            lambda: stable_set_check(u0, u1, 1.0, 0.5, PARAMS),
        )
        for call in calls:
            for w in scratch:
                w.fill(np.nan)
            call()
            assert dom.scratch is scratch
            assert not any(np.isnan(w).any() for w in scratch)
        assert all(w.base is scratch[0].base for w in scratch)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("source", [True, False])
    def test_stale_workspace_changes_no_bit(self, dim, source):
        # what an earlier call left in the scratch never reaches a result:
        # a scratch full of NaN gives the bits of a fresh, equal domain
        dom = DomainSpec(dim, np.pi, 4)
        params = ModelParams(5.5, dim, source_enabled=source)
        coeffs = _trapezoid(dom, 1e-2)
        a, b = self.state(dom, seed=dim, amplitude=0.5)

        def stale():
            for w in dom.scratch:
                w.fill(np.nan)
            return dom

        def fresh():
            return DomainSpec(dim, np.pi, 4)

        f_fresh = f_stale = None
        for _ in range(2):
            want = step(fresh(), a, b, f_fresh, coeffs, params)
            got = step(stale(), a, b, f_stale, coeffs, params)
            assert all(same_bits(x, y) for x, y in zip(got, want))
            assert not any(np.shares_memory(x, w)
                           for x in got if x is not None for w in dom.scratch)
            (a, b, f_fresh), f_stale = want, got[2]

        def report(domain):
            return np.array(astuple(energy(ModalField(domain, a), ModalField(domain, b),
                                           params)))

        assert same_bits(report(stale()), report(fresh()))
        out = stale().scratch[0]
        assert synthesize(dom, a, out=out) is out
        assert same_bits(out, synthesize(dom, a))

    @pytest.mark.skipif(not (sys.platform.startswith("linux")
                             and platform.libc_ver()[0] == "glibc"),
                        reason="fault counts are those of glibc's allocator on Linux")
    def test_loop_maps_no_fresh_pages(self):
        # a fresh interpreter, because earlier tests can leave glibc's dynamic
        # mmap threshold high enough that fresh grid arrays never fault either;
        # two warm-up calls build the domain's work arrays and grow the heap
        # to its steady size
        probe = textwrap.dedent("""
            import resource
            import numpy as np
            from logwave.domain import DomainSpec, ModalField
            from logwave.functionals import ModelParams
            from logwave.solver import SolverConfig, integrate
            dom = DomainSpec(3, np.pi, 16)
            rng = np.random.default_rng(5)
            u0, u1 = (ModalField(dom, 0.05 * rng.standard_normal(dom.modal_shape))
                      for _ in range(2))
            cfg = SolverConfig(dt=1e-3, t_end=0.05, report_every=10)
            for _ in range(2):
                integrate(u0, u1, cfg, ModelParams(4.0, 3))
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            integrate(u0, u1, cfg, ModelParams(4.0, 3))
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        """)
        src = str(Path(logwave.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert int(out) / 50 < 1.0


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(dt=0.0)
        with pytest.raises(ValueError):
            SolverConfig(t_end=-1.0)
        with pytest.raises(ValueError):
            SolverConfig(blowup_threshold=0.5)
        with pytest.raises(ValueError):
            SolverConfig(report_every=0)
        # integrate would stop at t = 0.9, or take an infinite number of steps
        with pytest.raises(ValueError, match="whole number of dt"):
            SolverConfig(dt=0.3, t_end=1.0)
        with pytest.raises(ValueError, match="whole number of dt"):
            SolverConfig(dt=5e-324, t_end=1.0)
        # or take no step at all: t_end / dt underflows to 0
        with pytest.raises(ValueError, match="whole number of dt"):
            SolverConfig(dt=1e300, t_end=1e-300)
