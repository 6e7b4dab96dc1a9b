import gc
import math
import os
import platform
import subprocess
import sys
import textwrap
import tracemalloc
import weakref
from dataclasses import astuple
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import logwave
from logwave.analysis import CHECKS, CheckInput
from logwave.domain import (
    DomainSpec,
    ModalField,
    analyze,
    coeff_grad_norm_sq,
    grad_norm_sq,
    random_band_limited,
    synthesize,
)
from logwave.functionals import ModelParams, energy, source_eval
from logwave.solver import (
    BLOWUP,
    COMPLETED,
    RUNNING,
    SCHEMES,
    SolverConfig,
    blowup_scan,
    integrate,
    step,
)
from logwave.well import default_trial_family, estimate_depth, stable_set_check

PARAMS = ModelParams(4.0, 3)


def measure(name, dom, result, verdict=None):
    """The check table's measure of one check on a trajectory."""
    row = next(c for c in CHECKS if c.name == name)
    return row.measure(CheckInput(result.reports, dom, PARAMS, verdict))


def scan(dom, a, b, threshold):
    """``blowup_scan`` given the two gradient norms that the loop computes."""
    return blowup_scan(a, b, coeff_grad_norm_sq(dom, a), coeff_grad_norm_sq(dom, b), threshold)


def params_1d(gamma=4.0, source=True):
    return ModelParams(gamma, 1, unsafe_gamma=True, source_enabled=source)


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
        F = analyze(dom, source_eval(synthesize(dom, np.zeros(dom.modal_shape)), 4.0))
        assert not np.any(F)

    def test_plateau_nearly_annihilated(self):
        # grid values ~ 1 in the interior make ln|u| ~ 0 there
        dom = DomainSpec(1, np.pi, 32, 16)
        plateau = analyze(dom, np.ones(dom.grid_shape))
        F_plateau = analyze(dom, source_eval(synthesize(dom, plateau), 4.0))
        F_lifted = analyze(dom, source_eval(synthesize(dom, np.e * plateau), 4.0))
        assert np.abs(F_plateau).max() < 0.1 * np.abs(F_lifted).max()

    def test_against_dense_quadrature_oracle(self):
        dom = DomainSpec(1, np.pi, 8, 32)
        u = ModalField.eigenmode(dom, (1,), 0.3)
        F = analyze(dom, source_eval(synthesize(dom, u.coeffs), 4.0))
        x = np.linspace(0, np.pi, 200001)
        uv = 0.3 * np.sin(x)
        fv = np.abs(uv) ** 2 * uv * np.log(np.maximum(np.abs(uv), 1e-300))
        oracle = np.array([
            np.trapezoid(fv * np.sin(k * x), x) / (np.pi / 2) for k in range(1, 9)
        ])
        scale = np.abs(oracle).max()
        assert np.abs(F - oracle).max() <= 1e-8 * scale


class TestStep:
    def test_zero_fixed_point(self):
        dom = DomainSpec(3, np.pi, 4)
        zero = np.zeros(dom.modal_shape)
        a, b, f = step(dom, zero, zero, None, SolverConfig(dt=1e-3), PARAMS)
        assert not np.any(a)
        assert not np.any(b)
        assert not np.any(f)
        one = integrate(ModalField.zeros(dom), ModalField.zeros(dom),
                        SolverConfig(dt=1e-3, t_end=1e-3), PARAMS)
        assert one.final.damping_integral == 0.0

    def test_first_imex2_step_equals_imex1(self):
        dom = DomainSpec(3, np.pi, 4)
        u = ModalField.eigenmode(dom, (1, 1, 1), 0.3).coeffs
        ut = ModalField.eigenmode(dom, (2, 1, 1), 0.1).coeffs
        a2, b2, _ = step(dom, u, ut, None, SolverConfig(dt=1e-3, scheme="IMEX2"), PARAMS)
        a1, b1, _ = step(dom, u, ut, None, SolverConfig(dt=1e-3, scheme="IMEX1"), PARAMS)
        assert np.array_equal(a2, a1)
        assert np.array_equal(b2, b1)

    def test_second_steps_differ_between_schemes(self):
        dom = DomainSpec(3, np.pi, 4)
        u = ModalField.eigenmode(dom, (1, 1, 1), 0.5).coeffs
        ut = np.zeros(dom.modal_shape)
        cfg2 = SolverConfig(dt=1e-2, scheme="IMEX2")
        cfg1 = SolverConfig(dt=1e-2, scheme="IMEX1")
        a2, _, _ = step(dom, *step(dom, u, ut, None, cfg2, PARAMS), cfg2, PARAMS)
        a1, _, _ = step(dom, *step(dom, u, ut, None, cfg1, PARAMS), cfg1, PARAMS)
        assert not np.array_equal(a2, a1)

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
        ts = np.array([s.t for s in result.states])
        got = np.array([s.u.coeffs[idx] for s in result.states])
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
        assert result.t_max is not None and result.t_max < 20.0
        assert result.final.t == pytest.approx(result.t_max)


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
    @given(dim=st.integers(1, 3), m=st.integers(1, 4), scheme=st.sampled_from(SCHEMES),
           source=st.booleans(), report_every=st.sampled_from([1, 3, 7]),
           n_steps=st.integers(1, 25), log10_amplitude=st.floats(-2.0, 2.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_chain_of_steps(self, dim, m, scheme, source, report_every,
                                    n_steps, log10_amplitude, seed):
        # amplitudes above about 1 cross the threshold, at the first step or later
        dom = DomainSpec(dim, np.pi, m)
        params = ModelParams(4.0, dim, unsafe_gamma=True, source_enabled=source)
        dt = 1e-2
        cfg = SolverConfig(dt=dt, t_end=n_steps * dt, scheme=scheme,
                           blowup_threshold=1e3, report_every=report_every)
        rng = np.random.default_rng(seed)
        u0 = random_band_limited(dom, rng).scaled(10.0 ** log10_amplitude)
        u1 = random_band_limited(dom, rng).scaled(10.0 ** log10_amplitude)
        result = integrate(u0, u1, cfg, params, store_states=True)

        a, b, f, damp = u0.coeffs, u1.coeffs, None, 0.0
        expected = [(0, a, b, damp)]
        status = COMPLETED
        for n in range(1, n_steps + 1):
            a_new, b_new, f = step(dom, a, b, f, cfg, params)
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
        for state, rep, (k, a_k, b_k, damp_k) in zip(result.states, result.reports, expected):
            assert np.array_equal(state.u.coeffs, a_k)
            assert np.array_equal(state.ut.coeffs, b_k)
            assert state.t == rep.t == k * dt
            assert state.damping_integral == rep.damping_integral == damp_k
        ledger = [s.damping_integral for s in result.states]
        assert all(d1 >= d0 for d0, d1 in zip(ledger, ledger[1:]))
        final = result.states[-1] if status == COMPLETED else result.final
        assert np.array_equal(final.u.coeffs, a) and np.array_equal(final.ut.coeffs, b)
        assert final.t == n * dt and final.damping_integral == damp
        if status == BLOWUP:
            assert result.t_max == n * dt
        else:
            assert result.final is final

    def test_report_cadence_and_times(self, short_stable_run):
        _, runs = short_stable_run
        reports = runs[1e-3].reports
        assert reports[0].t == 0.0
        dts = np.diff([r.t for r in reports])
        assert np.allclose(dts, 0.01, rtol=1e-9)


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
        # on every call; given the workspace, a step allocates about the
        # transforms' intermediates and a report less than one grid
        dom = DomainSpec(3, np.pi, 16)
        params = ModelParams(gamma, 3)
        cfg = SolverConfig(dt=1e-3)
        a, b = self.state(dom)
        f = step(dom, a, b, None, cfg, params)[2]
        u, ut = ModalField(dom, a), ModalField(dom, b)
        calls = ((lambda: step(dom, a, b, f, cfg, params), 1.1),
                 (lambda: energy(u, ut, params), 0.8))
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
        # the step coefficients are cached on the domain, not in the module
        dom = DomainSpec(3, np.pi, 4)
        a, b = self.state(dom)
        cfg = SolverConfig(dt=1e-3, t_end=0.02, report_every=5)
        result = integrate(ModalField(dom, a), ModalField(dom, b), cfg, PARAMS)
        assert list(dom.step_cache) == [cfg.dt]
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
        trials, labels = default_trial_family(dom, count=4, seed=2)
        calls = (
            lambda: integrate(u0, u1, SolverConfig(dt=1e-3, t_end=0.02, report_every=5),
                              PARAMS),
            lambda: estimate_depth(trials, PARAMS, labels=labels),
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
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("source", [True, False])
    def test_stale_workspace_changes_no_bit(self, dim, scheme, source):
        # what an earlier call left in the scratch never reaches a result:
        # a scratch full of NaN gives the bits of a fresh, equal domain
        dom = DomainSpec(dim, np.pi, 4)
        params = ModelParams(5.5, dim, unsafe_gamma=True, source_enabled=source)
        cfg = SolverConfig(dt=1e-2, scheme=scheme)
        a, b = self.state(dom, seed=dim, amplitude=0.5)

        def stale():
            for w in dom.scratch:
                w.fill(np.nan)
            return dom

        def fresh():
            return DomainSpec(dim, np.pi, 4)

        def same_bits(x, y):
            return x is y or np.asarray(x).tobytes() == np.asarray(y).tobytes()

        f_fresh = f_stale = None
        for _ in range(2):
            want = step(fresh(), a, b, f_fresh, cfg, params)
            got = step(stale(), a, b, f_stale, cfg, params)
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
            SolverConfig(scheme="RK4")
        with pytest.raises(ValueError):
            SolverConfig(blowup_threshold=0.5)
        with pytest.raises(ValueError):
            SolverConfig(report_every=0)
