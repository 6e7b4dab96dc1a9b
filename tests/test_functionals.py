import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logwave import functionals
from logwave.domain import DomainSpec, ModalField, grad_norm_sq, synthesize
from logwave.functionals import (
    ZERO_CLIP,
    ModelParams,
    energy,
    log_bound_large,
    log_bound_small,
    log_moments,
    source_dual_norm,
    source_eval,
    square,
    uniform_bound_constant,
)
from logwave.solver import SolverConfig, integrate
from logwave.well import FiberMoments, estimate_depth, fiber_J, stable_set_check

from test_domain import sine_sum_synthesis


def params_1d(gamma=4.0):
    return ModelParams(gamma, 1)


# the 3-D window (2, 6), with values within 1e-9 of either end
GAMMA_3D = st.floats(2.0, 6.0, exclude_min=True, exclude_max=True) | st.sampled_from(
    [2.0 + 1e-12, 2.0 + 1e-9, 6.0 - 1e-9, math.nextafter(6.0, 0.0)])


class TestModelParams:
    def test_gamma_window_3d(self):
        # the lower range (2, 4) of earlier work and the paper's upper range [4, 6)
        for gamma in (2.001, 3.0, 3.5, 4.0, 5.9):
            ModelParams(gamma, 3)
        with pytest.raises(ValueError, match=r"gamma=6.0 outside \(2, 6\) for dim=3"):
            ModelParams(6.0, 3)

    def test_gamma_must_exceed_two(self):
        with pytest.raises(ValueError, match=r"gamma=2.0 outside \(2, inf\) for dim=1"):
            ModelParams(2.0, 1)
        with pytest.raises(ValueError, match=r"gamma=1.5 outside \(2, 6\) for dim=3"):
            ModelParams(1.5, 3)

    # H^1_0 embeds in every L^p, p < inf, so the window has no upper end
    @given(gamma=st.floats(2.0, exclude_min=True, allow_infinity=False),
           dim=st.sampled_from([1, 2]))
    def test_low_dim_admits_any_gamma_above_two(self, gamma, dim):
        assert functionals.gamma_window(dim) == (2.0, math.inf)
        assert ModelParams(gamma, dim).gamma == gamma

    def test_rho_mu(self):
        p = ModelParams(4.0, 3)
        assert p.rho == pytest.approx(0.5 * (6.0 - 4.0))
        assert p.mu == pytest.approx(p.rho * 3.0 / 4.0)
        p = ModelParams(3.0, 3)
        assert (p.rho, p.mu) == (1.5, 1.0)
        for dim in (1, 2):
            assert ModelParams(4.0, dim).rho is None
            assert ModelParams(4.0, dim).mu is None

    @given(gamma=GAMMA_3D)
    def test_window_admits_the_fully_subcritical_range(self, gamma):
        p = ModelParams(gamma, 3)
        assert 0 < p.rho < 2 and 0 < p.mu < p.rho

    # st.floats draws the infinity beyond a one-sided bound
    @given(gamma=st.floats(max_value=2.0) | st.floats(min_value=6.0) | st.just(math.nan))
    def test_3d_outside_the_window_raises_naming_it(self, gamma):
        with pytest.raises(ValueError, match=r"outside \(2, 6\) for dim=3"):
            ModelParams(gamma, 3)

    @given(gamma=st.floats(max_value=2.0) | st.sampled_from([math.nan, math.inf]),
           dim=st.sampled_from([1, 2]))
    def test_low_dim_outside_the_window_raises_naming_it(self, gamma, dim):
        with pytest.raises(ValueError, match=rf"outside \(2, inf\) for dim={dim}"):
            ModelParams(gamma, dim)

    # gamma = 7 passes the 1-D window, not the 3-D one, so a 1-D model must
    # not reach a 3-D field through any path that evaluates the source
    @pytest.mark.parametrize("call", [
        lambda u, p: integrate(u, ModalField.zeros(u.domain), SolverConfig(t_end=0.01), p),
        lambda u, p: stable_set_check(u, ModalField.zeros(u.domain), 1.0, 1.0, p),
        lambda u, p: estimate_depth([u], p),
        source_dual_norm,
    ], ids=["integrate", "stable_set_check", "estimate_depth", "source_dual_norm"])
    def test_field_of_another_dim_raises_naming_both(self, call):
        u = ModalField.eigenmode(DomainSpec(3, np.pi, 4), (1, 1, 1), 0.05)
        with pytest.raises(ValueError, match=r"a field of dim=3 under a model of dim=1"):
            call(u, ModelParams(7.0, 1))


class TestSourceEval:
    def test_examples(self):
        assert source_eval(0.0, 4.0) == 0.0
        assert source_eval(1.0, 4.0) == 0.0
        assert source_eval(-1.0, 4.0) == 0.0
        assert source_eval(math.e, 4.0) == pytest.approx(math.e ** 3, rel=1e-14)
        assert source_eval(-math.e, 4.0) == pytest.approx(-math.e ** 3, rel=1e-14)

    def test_odd(self):
        rng = np.random.default_rng(0)
        s = rng.standard_normal(1000) * 3
        for gamma in (4.0, 5.5):
            assert np.array_equal(source_eval(-s, gamma), -source_eval(s, gamma))

    def test_tiny_arguments_clamp_to_zero(self):
        assert source_eval(1e-301, 4.0) == 0.0
        assert source_eval(-1e-308, 2.1) == 0.0

    def test_invalid_gamma(self):
        with pytest.raises(ValueError):
            source_eval(1.0, 2.0)


class TestEnergy:
    def test_zero_state(self):
        dom = DomainSpec(3, np.pi, 4)
        z = ModalField.zeros(dom)
        rep = energy(z, z, ModelParams(4.0, 3))
        assert rep.E == rep.J == rep.I == 0.0

    def test_pure_velocity(self):
        dom = DomainSpec(3, np.pi, 4)
        v = ModalField.eigenmode(dom, (2, 1, 1), 0.3)
        rep = energy(ModalField.zeros(dom), v, ModelParams(4.0, 3))
        assert rep.E == pytest.approx(0.5 * 0.09 * dom.mode_norm_sq, rel=1e-13)
        assert rep.J == 0.0
        assert rep.I == 0.0

    def test_refined_quadrature_oracle(self):
        # 4x-finer dense-summation quadrature as the independent reference
        dom = DomainSpec(1, np.pi, 8, 8)
        u = ModalField.eigenmode(dom, (1,), 0.1)
        rep = energy(u, ModalField.zeros(dom), params_1d())
        fine = DomainSpec(1, np.pi, 8, 32)
        vals = sine_sum_synthesis(fine, u.coeffs)
        lg, lt = log_moments(vals, fine.quad_weight, 4.0)
        oracle = 0.5 * grad_norm_sq(u) - lt / 4.0 + lg / 16.0
        assert rep.E == pytest.approx(oracle, rel=1e-8)

    def test_non_finite_rejected(self):
        dom = DomainSpec(1, np.pi, 4)
        bad = ModalField(dom, np.array([np.nan, 0.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            energy(bad, ModalField.zeros(dom), params_1d())

    def test_source_disabled_drops_log_terms(self):
        dom = DomainSpec(1, np.pi, 4)
        u = ModalField.eigenmode(dom, (1,), 0.5)
        rep = energy(u, ModalField.zeros(dom),
                     ModelParams(4.0, 1, source_enabled=False))
        assert rep.lgamma == 0.0 and rep.logterm == 0.0
        assert rep.E == pytest.approx(0.5 * grad_norm_sq(u), rel=1e-14)

    def test_splitting_identity(self):
        # E = kinetic + (g-2)/(2g) grad + I/g + lgamma/g^2
        rng = np.random.default_rng(21)
        for gamma in (4.0, 5.5):
            p = ModelParams(gamma, 3)
            dom = DomainSpec(3, np.pi, 4)
            for _ in range(5):
                u = ModalField(dom, rng.standard_normal((4, 4, 4)) * 0.4)
                ut = ModalField(dom, rng.standard_normal((4, 4, 4)) * 0.4)
                rep = energy(u, ut, p)
                rebuilt = (rep.kinetic + (gamma - 2) / (2 * gamma) * rep.grad_sq
                           + rep.I / gamma + rep.lgamma / gamma ** 2)
                assert rebuilt == pytest.approx(rep.E, rel=1e-10)

    def test_gamma_whose_square_overflows(self):
        # 1-D and 2-D admit every gamma > 2, and gamma ** 2 raises
        # OverflowError above about 1.34e154; the 1/gamma^2 terms then vanish
        assert square(4.0) == 16.0 and square(1.4e154) == math.inf
        assert uniform_bound_constant(1.4e154) == 0.0
        assert fiber_J(FiberMoments(A=1.0, B=0.0, G=1.0), 1.0, 1e200) == 0.5
        dom = DomainSpec(2, np.pi, 4)
        u = ModalField.eigenmode(dom, (1, 1), 0.5)
        rep = energy(u, ModalField.zeros(dom), ModelParams(1.4e154, 2))
        assert rep.J == 0.5 * rep.grad_sq

    def test_lower_bound_when_I_nonnegative(self):
        assert uniform_bound_constant(4.0) == pytest.approx(1.0 / 16.0)
        rng = np.random.default_rng(33)
        dom = DomainSpec(3, np.pi, 4)
        p = ModelParams(4.0, 3)
        c3 = uniform_bound_constant(4.0)
        checked = 0
        for _ in range(30):
            u = ModalField(dom, rng.standard_normal((4, 4, 4)) * 0.1)
            ut = ModalField(dom, rng.standard_normal((4, 4, 4)) * 0.1)
            rep = energy(u, ut, p)
            if rep.I >= 0:
                assert rep.E >= c3 * (2 * rep.kinetic + rep.grad_sq + rep.lgamma) * (1 - 1e-12)
                checked += 1
        assert checked > 10


class TestNehariI:
    def test_zero(self):
        dom = DomainSpec(1, np.pi, 4)
        zero = ModalField.zeros(dom)
        assert energy(zero, zero, params_1d()).I == 0.0

    def test_small_amplitude_positive(self):
        dom = DomainSpec(1, np.pi, 8, 4)
        u = ModalField.eigenmode(dom, (1,), 0.01)
        assert energy(u, ModalField.zeros(dom), params_1d()).I > 0


class TestLogBounds:
    def test_small_bound_value(self):
        _, bound = log_bound_small(0.5, 4.0)
        assert bound == pytest.approx(1.0 / (3 * math.e), rel=1e-12)
        assert bound == pytest.approx(0.1226265, rel=1e-6)

    def test_small_maximizer(self):
        s_star = math.exp(-1.0 / 3.0)
        lhs, bound = log_bound_small(s_star, 4.0)
        assert lhs == pytest.approx(bound, rel=1e-12)

    def test_small_vanishes_at_one(self):
        lhs, _ = log_bound_small(1 - 1e-12, 4.0)
        assert lhs < 1e-11

    def test_small_dense_scan(self):
        s = np.linspace(1e-9, 1.0, 100001)[:-1] + 1e-12
        for gamma in (4.0, 5.0, 5.9):
            lhs, bound = log_bound_small(s, gamma)
            assert np.all(lhs <= bound * (1 + 1e-14))

    def test_small_domain_errors(self):
        with pytest.raises(ValueError):
            log_bound_small(0.0, 4.0)
        with pytest.raises(ValueError):
            log_bound_small(1.0, 4.0)
        with pytest.raises(ValueError):
            log_bound_small(0.5, 1.5)

    def test_large_at_one(self):
        lhs, _ = log_bound_large(1.0, 1.0)
        assert lhs == 0.0

    def test_large_maximizer(self):
        lhs, bound = log_bound_large(math.e, 1.0)
        assert lhs == pytest.approx(1 / math.e, rel=1e-14)
        assert lhs <= bound
        for s in (2.0, 2.7, 2.72, 2.8, 10.0):
            lhs, bound = log_bound_large(s, 1.0)
            assert lhs < bound

    def test_large_dense_scan(self):
        s = np.geomspace(1.0, 1e6, 100001)
        for mu in (0.1, 0.5, 1.0):
            lhs, bound = log_bound_large(s, mu)
            assert np.all(lhs <= bound * (1 + 1e-14))
            # strict gap away from the maximizer
            s_star = math.exp(1.0 / mu)
            away = np.abs(s - s_star) > 0.05 * s_star
            assert np.max(lhs[away]) <= bound - 1e-12

    def test_large_domain_errors(self):
        with pytest.raises(ValueError):
            log_bound_large(0.5, 1.0)
        with pytest.raises(ValueError):
            log_bound_large(2.0, 0.0)


class TestQuadratureConvergence:
    def test_oversample_doubling(self):
        rng = np.random.default_rng(42)
        smooth = rng.standard_normal(16) / (1 + np.arange(16)) ** 2 * 0.3
        cases = [
            (DomainSpec(1, np.pi, 16, 4), DomainSpec(1, np.pi, 16, 8), smooth),
            (DomainSpec(3, np.pi, 4, 8), DomainSpec(3, np.pi, 4, 16), None),
        ]
        for coarse, fine, coeffs in cases:
            if coeffs is None:
                c = np.zeros(coarse.modal_shape)
                c[(0,) * coarse.dim] = 0.05
            else:
                c = coeffs
            lt_c = log_moments(synthesize(coarse, c), coarse.quad_weight, 4.0)[1]
            lt_f = log_moments(synthesize(fine, c), fine.quad_weight, 4.0)[1]
            assert abs(lt_c - lt_f) <= 1e-6 * abs(lt_f)


class TestSourceDualNorm:
    def test_zero(self):
        dom = DomainSpec(1, np.pi, 4)
        assert source_dual_norm(ModalField.zeros(dom), params_1d()) == 0.0

    def test_plateau_near_zero(self):
        # band-limited approximation of the indicator at unit height: the
        # integrand |u|^(g-1) ln|u| nearly vanishes where |u| ~ 1, so the
        # dual norm is far below that of the same profile scaled by e
        dom = DomainSpec(1, np.pi, 32, 16)
        ones = np.ones(dom.grid_shape)
        from logwave.domain import analyze
        plateau = ModalField(dom, analyze(dom, ones))
        small = source_dual_norm(plateau, params_1d())
        lifted = source_dual_norm(plateau.scaled(math.e), params_1d())
        assert small < 0.2 * lifted

    def test_refined_quadrature_oracle(self):
        dom = DomainSpec(1, np.pi, 8, 32)
        u = ModalField.eigenmode(dom, (1,), 0.5)
        got = source_dual_norm(u, params_1d())
        xf = np.linspace(0, np.pi, 400001)
        uv = 0.5 * np.sin(xf)
        a = np.abs(uv)
        safe = np.maximum(a, 1e-300)
        q = 4.0 / 3.0
        integrand = np.where(a < 1e-300, 0.0, np.abs(a ** 3 * np.log(safe)) ** q)
        oracle = np.trapezoid(integrand, xf) ** (1.0 / q)
        assert got == pytest.approx(oracle, rel=1e-8)


# ---------------------------------------------------------------------------
# the shared pointwise kernel against the formulas it replaced

def _oracle_pow(a, p):
    if p == 1.0:
        return a.copy()
    if p == 2.0:
        return a * a
    if p == 3.0:
        return a * a * a
    if p == 4.0:
        sq = a * a
        return sq * sq
    return np.power(a, p)


def oracle_source(s, gamma):
    a = np.abs(s)
    log_a = np.log(np.maximum(a, ZERO_CLIP))
    return np.where(a < ZERO_CLIP, 0.0, _oracle_pow(a, gamma - 2.0) * s * log_a)


def oracle_moment_terms(values, gamma):
    a = np.abs(values)
    log_a = np.log(np.maximum(a, ZERO_CLIP))
    pg = _oracle_pow(a, gamma)
    return pg, np.where(a < ZERO_CLIP, 0.0, pg * log_a)


def oracle_dual_terms(values, gamma):
    a = np.abs(values)
    log_a = np.log(np.maximum(a, ZERO_CLIP))
    q = gamma / (gamma - 1.0)
    return np.where(a < ZERO_CLIP, 0.0, np.abs(_oracle_pow(a, gamma - 1.0) * log_a) ** q)


EPS = np.finfo(float).eps
_CLIP_NEIGHBOURS = [ZERO_CLIP, np.nextafter(ZERO_CLIP, 0.0), np.nextafter(ZERO_CLIP, 1.0)]
SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan] + _CLIP_NEIGHBOURS + [-x for x in _CLIP_NEIGHBOURS]
magnitudes = st.floats(1e-310, 1e300)
points = st.one_of(magnitudes, magnitudes.map(lambda x: -x), st.sampled_from(SPECIAL))
gammas = st.one_of(st.floats(2.05, 5.95), st.sampled_from([3.0, 4.0, 5.0, 6.0]))


def bits(x):
    return int(np.float64(x).view(np.int64))


def slack(values, p):
    """4 eps (1 + |p ln|s||) per point: the rounding of p ln|s| and of exp."""
    log_a = np.log(np.maximum(np.abs(values), ZERO_CLIP))
    return 4.0 * EPS * (1.0 + np.abs(p * log_a))


def assert_close_sum(got, terms, weights):
    # pairwise sums of two arrays that differ by the per-term slack: that
    # slack summed, plus each sum's own rounding
    ref = float(np.sum(terms))
    assert (got == 0.0) == (ref == 0.0)
    assert math.isfinite(got) == math.isfinite(ref)
    if math.isfinite(ref):
        bound = (float(np.sum(weights * np.abs(terms)))
                 + 2.0 * terms.size * EPS * float(np.sum(np.abs(terms))))
        assert abs(got - ref) <= bound


class TestPointwiseKernel:
    @settings(deadline=None, max_examples=300)
    @given(values=st.lists(points, min_size=1, max_size=64), gamma=gammas)
    @np.errstate(all="ignore")  # the drawn values overflow on purpose
    def test_matches_replaced_formulas(self, values, gamma):
        s = np.array(values)
        before = s.copy()
        got = source_eval(s, gamma)
        ref = oracle_source(s, gamma)
        lgamma, logterm = log_moments(s, 1.0, gamma)
        pg, log_terms = oracle_moment_terms(s, gamma)
        dual_terms = oracle_dual_terms(s, gamma)
        assert np.array_equal(s.view(np.int64), before.view(np.int64))

        assert np.array_equal(got == 0.0, ref == 0.0)
        assert np.array_equal(np.isfinite(got), np.isfinite(ref))
        p = gamma - 2.0
        if p in (1.0, 2.0, 3.0, 4.0):
            assert np.array_equal(got.view(np.int64), ref.view(np.int64))
        else:
            normal = np.isfinite(ref) & (np.abs(ref) >= np.finfo(float).tiny)
            assert np.all(np.abs(got - ref)[normal]
                          <= (slack(s, p) * np.abs(ref))[normal])

        if gamma in (3.0, 4.0):
            assert bits(lgamma) == bits(np.sum(pg))
            assert bits(logterm) == bits(np.sum(log_terms))
        else:
            assert_close_sum(lgamma, pg, slack(s, gamma))
            assert_close_sum(logterm, log_terms, slack(s, gamma))

        # the dual norm's pointwise work, on the drawn values as its grid
        dom = DomainSpec(1, np.pi, 4)
        params = ModelParams(gamma, 1)
        q = gamma / (gamma - 1.0)
        with mock.patch.object(functionals, "synthesize", lambda _dom, _c: s):
            total = dom.quad_weight * float(np.sum(dual_terms))
            if not math.isfinite(total):
                with pytest.raises(ValueError):
                    source_dual_norm(ModalField.zeros(dom), params)
                return
            got_norm = source_dual_norm(ModalField.zeros(dom), params)
        ref_norm = total ** (1.0 / q)
        if gamma in (3.0, 4.0, 5.0):
            assert bits(got_norm) == bits(ref_norm)
        else:
            bound = float(np.max(slack(s, gamma - 1.0))) + 2.0 * s.size * EPS
            assert abs(got_norm - ref_norm) <= bound * ref_norm

    def test_scalar_in_float_out(self):
        got = source_eval(math.e, 4.0)
        assert type(got) is float
        assert bits(got) == bits(oracle_source(np.array(math.e), 4.0))
        got = source_eval(np.float64(-0.5), 5.5)
        assert type(got) is float
        assert got == pytest.approx(float(oracle_source(np.array(-0.5), 5.5)), rel=1e-14)

    @pytest.mark.parametrize("gamma", [4.0, 5.0, 5.5])
    def test_allocation_peak(self, gamma):
        # two grid buffers and a mask: with more temporaries, every call at
        # m=16 maps fresh pages from the operating system
        dom = DomainSpec(3, np.pi, 16)
        rng = np.random.default_rng(5)
        values = synthesize(dom, rng.standard_normal(dom.modal_shape) * 0.05)
        calls = (lambda: source_eval(values, gamma),
                 lambda: log_moments(values, dom.quad_weight, gamma))
        for call in calls:
            call()
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 2.25 * values.nbytes
