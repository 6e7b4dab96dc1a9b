import math
import tracemalloc
import warnings
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logwave import well
from logwave.domain import (
    DomainSpec,
    ModalField,
    coeff_grad_norm_sq,
    l2_norm_sq,
    random_band_limited,
)
from logwave.functionals import ModelParams, energy
from logwave.solver import BLOWUP, SolverConfig, integrate, source_projection
from logwave.well import (
    DegenerateFieldError,
    FiberMoments,
    default_trial_family,
    estimate_depth,
    fiber_I,
    fiber_J,
    fiber_moments,
    project_to_nehari,
    stable_set_check,
)

from test_functionals import GAMMA_3D

# fibering supremum of the first eigenfunction on (0,pi)^3 at gamma=4,
# computed from the semi-analytic moments A = 3(pi/2)^3, G = (3pi/8)^3,
# B = 3 (int sin^4 ln sin) (3pi/8)^2 with two independent 1-D optimizers
# (dense scan + bisection, golden section); 40-digit quadrature for B
DEPTH_GOLDEN = 35.14441026560649
LAMBDA_STAR_GOLDEN = 3.024583165654797
I4_LOG = -0.12937139089108353  # int_0^pi sin(x)^4 ln(sin x) dx

PARAMS = ModelParams(4.0, 3)


def params_1d(gamma=4.0):
    return ModelParams(gamma, 1)


def scan_and_bisect(m: FiberMoments, gamma: float) -> tuple[float, float]:
    """Independent maximizer: dense scan plus bisection on the derivative."""
    grid = np.geomspace(1e-4, 1e2, 20000)
    jv = fiber_J(m, grid, gamma)
    i = int(np.argmax(jv))
    lo, hi = grid[i - 1], grid[i + 1]
    f_lo, f_hi = fiber_I(m, lo, gamma), fiber_I(m, hi, gamma)
    assert f_lo > 0 > f_hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if fiber_I(m, mid, gamma) > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15 * hi:
            break
    lam = 0.5 * (lo + hi)
    return lam, fiber_J(m, lam, gamma)


def golden_section(m: FiberMoments, gamma: float, lo: float, hi: float) -> float:
    inv_phi = (math.sqrt(5) - 1) / 2
    c, d = hi - inv_phi * (hi - lo), lo + inv_phi * (hi - lo)
    for _ in range(200):
        if fiber_J(m, c, gamma) > fiber_J(m, d, gamma):
            hi, d = d, c
            c = hi - inv_phi * (hi - lo)
        else:
            lo, c = c, d
            d = lo + inv_phi * (hi - lo)
        if hi - lo < 1e-12 * hi:
            break
    return 0.5 * (lo + hi)


def descend_to_ground_state(dom: DomainSpec, params: ModelParams,
                            max_iter: int = 500) -> tuple[ModalField, float]:
    """The band's ground state and its J, by projected Sobolev-gradient descent.

    From the Nehari projection of the first eigenmode, step
    a <- P_N(a - tau (a - F/lambda)), with F = ``source_projection`` at a,
    the modal projection of the source (so a - F/lambda is the H^1_0
    gradient of J), and P_N the closed-form Nehari projection.  Each step's
    tau starts at 0.5 and halves while J rises, down to a floor: near
    convergence J moves by roundoff only, and halving would never end.
    Stops at a relative H^1 residual of 1e-9.
    """
    def project(coeffs):
        lam, j = project_to_nehari(ModalField(dom, coeffs), params)
        return lam * coeffs, j

    a, J = project(ModalField.eigenmode(dom, (1,) * dom.dim).coeffs)
    for _ in range(max_iter):
        s = a - source_projection(dom, a, params.gamma) / dom.eigenvalues
        if coeff_grad_norm_sq(dom, s) <= 1e-18 * coeff_grad_norm_sq(dom, a):
            return ModalField(dom, a), J
        tau = 0.5
        b, J_b = project(a - tau * s)
        while J_b > J and tau > 1e-6:
            tau /= 2
            b, J_b = project(a - tau * s)
        a, J = b, J_b
    pytest.fail(f"descent reached no H^1 residual of 1e-9 in {max_iter} iterations")


class TestFiberMoments:
    def test_first_eigenfunction_1d(self):
        dom = DomainSpec(1, np.pi, 8, 32)
        u = ModalField.eigenmode(dom, (1,))
        m = fiber_moments(u, params_1d())
        assert m.A == pytest.approx(np.pi / 2, rel=1e-13)
        assert m.G == pytest.approx(3 * np.pi / 8, rel=1e-13)
        assert m.B == pytest.approx(I4_LOG, rel=1e-8)


class TestFiberMaps:
    def test_J_at_one_is_definition(self):
        m = FiberMoments(A=2.0, B=0.3, G=1.1)
        expected = 2.0 / 2 - 0.3 / 4 + 1.1 / 16
        assert fiber_J(m, 1.0, 4.0) == pytest.approx(expected, rel=1e-14)

    def test_J_vanishes_at_origin(self):
        m = FiberMoments(A=1.0, B=1.0, G=1.0)
        assert abs(fiber_J(m, 1e-8, 4.0)) < 1e-12

    def test_unit_moments_arithmetic(self):
        m = FiberMoments(A=1.0, B=1.0, G=1.0)
        assert fiber_J(m, 1.0, 4.0) == pytest.approx(5.0 / 16.0, rel=1e-14)

    def test_I_zero_when_A_equals_B(self):
        m = FiberMoments(A=0.7, B=0.7, G=0.2)
        assert fiber_I(m, 1.0, 4.0) == pytest.approx(0.0, abs=1e-16)

    def test_I_positive_for_small_lambda(self):
        m = FiberMoments(A=1.0, B=5.0, G=2.0)
        assert fiber_I(m, 1e-4, 4.0) > 0

    def test_unit_moments_root_is_one(self):
        # lambda^2 = lambda^4 (1 + ln lambda) has the single positive root 1
        m = FiberMoments(A=1.0, B=1.0, G=1.0)
        lo, hi = 0.5, 2.0
        assert fiber_I(m, lo, 4.0) > 0 > fiber_I(m, hi, 4.0)
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if fiber_I(m, mid, 4.0) > 0:
                lo = mid
            else:
                hi = mid
        assert 0.5 * (lo + hi) == pytest.approx(1.0, rel=1e-12)
        # dense scan: single sign change on (0, 10]
        grid = np.geomspace(1e-3, 10, 40000)
        signs = np.sign(fiber_I(m, grid, 4.0))
        assert int(np.sum(np.diff(signs) != 0)) == 1

    def test_positive_lambda_required(self):
        m = FiberMoments(A=1.0, B=1.0, G=1.0)
        with pytest.raises(ValueError):
            fiber_J(m, 0.0, 4.0)
        with pytest.raises(ValueError):
            fiber_I(m, -1.0, 4.0)

    @pytest.mark.parametrize("fiber", [fiber_J, fiber_I])
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("as_array", [False, True])
    def test_positive_finite_lambda_required(self, fiber, bad, as_array):
        # a NaN or infinite lambda is refused before any arithmetic warns
        m = FiberMoments(A=1.0, B=1.0, G=1.0)
        lam = np.array([1.0, bad, 2.0]) if as_array else bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="lambda must be positive"):
                fiber(m, lam, 4.0)

    @pytest.mark.parametrize("fiber", [fiber_J, fiber_I])
    @pytest.mark.parametrize("bad", [0.0, -0.0, -1.0, math.inf, math.nan])
    @pytest.mark.parametrize("form", [float, np.array, lambda x: np.array([x])],
                             ids=["float", "0-d", "1-element"])
    def test_every_scalar_form_refuses_alike(self, fiber, bad, form):
        # a scalar lambda skips the array reductions, with the same verdict
        m = FiberMoments(A=1.0, B=1.0, G=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as err:
                fiber(m, form(bad), 4.0)
        assert str(err.value) == "lambda must be positive and finite"

    def test_derivative_consistency(self):
        # lambda dJ/dlambda = I on a log grid, by central differences
        m = FiberMoments(A=2.3, B=-0.4, G=1.7)
        gamma = 4.0
        scale = max(m.A, m.G)
        for lam in np.geomspace(0.05, 20, 25):
            h = 1e-6 * lam
            dj = (fiber_J(m, lam + h, gamma) - fiber_J(m, lam - h, gamma)) / (2 * h)
            lhs = lam * dj
            rhs = fiber_I(m, lam, gamma)
            assert abs(lhs - rhs) <= 1e-6 * max(abs(rhs), scale * lam ** 2)


class TestProjection:
    def test_nehari_point_projects_to_one(self):
        dom = DomainSpec(3, np.pi, 4, 4)
        u = ModalField.eigenmode(dom, (1, 1, 1), 0.8)
        lam1, _ = project_to_nehari(u, PARAMS)
        on_manifold = u.scaled(lam1)
        lam2, _ = project_to_nehari(on_manifold, PARAMS)
        assert lam2 == pytest.approx(1.0, rel=1e-10)

    def test_scaling_relation(self):
        dom = DomainSpec(3, np.pi, 4, 4)
        rng = np.random.default_rng(17)
        u = random_band_limited(dom, rng)
        lam_u, j_u = project_to_nehari(u, PARAMS)
        lam_2u, j_2u = project_to_nehari(u.scaled(2.0), PARAMS)
        assert lam_2u == pytest.approx(lam_u / 2.0, rel=1e-10)
        assert j_2u == pytest.approx(j_u, rel=1e-10)

    def test_residual_verified_by_independent_bisection(self):
        dom = DomainSpec(3, np.pi, 4, 2)
        rng = np.random.default_rng(23)
        for _ in range(10):
            u = random_band_limited(dom, rng).scaled(0.3)
            m = fiber_moments(u, PARAMS)
            lam, j_max = project_to_nehari(u, PARAMS)
            scale = max(m.A, lam ** 4 * m.G)
            assert abs(fiber_I(m, lam, 4.0)) <= 1e-10 * scale
            assert j_max > 0
            lam_oracle, j_oracle = scan_and_bisect(m, 4.0)
            assert lam == pytest.approx(lam_oracle, rel=1e-9)
            assert j_max == pytest.approx(j_oracle, rel=1e-12)

    def test_nehari_functional_vanishes_after_projection(self):
        dom = DomainSpec(3, np.pi, 4, 4)
        rng = np.random.default_rng(31)
        u = random_band_limited(dom, rng).scaled(0.5)
        lam, _ = project_to_nehari(u, PARAMS)
        projected = u.scaled(lam)
        from logwave.domain import grad_norm_sq
        I = energy(projected, ModalField.zeros(dom), PARAMS).I
        assert abs(I) <= 1e-10 * grad_norm_sq(projected)

    @settings(deadline=None, max_examples=60)
    @given(log10_scale=st.floats(-8.0, 8.0), gamma=st.sampled_from([4.0, 5.5]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_scale_invariance_and_residual(self, log10_scale, gamma, seed):
        # J_max is a property of the direction alone; lambda* carries the scale
        params = ModelParams(gamma, 3)
        dom = DomainSpec(3, np.pi, 4, 2)
        u = random_band_limited(dom, np.random.default_rng(seed))
        s = 10.0 ** log10_scale
        lam_ref, j_ref = project_to_nehari(u, params)
        scaled = u.scaled(s)
        lam, j_max = project_to_nehari(scaled, params)
        m = fiber_moments(scaled, params)
        assert abs(j_max - j_ref) <= 1e-10 * j_ref
        assert abs(fiber_I(m, lam, gamma)) <= 1e-10 * lam ** 2 * m.A
        assert lam * s == pytest.approx(lam_ref, rel=1e-10)

    def test_zero_field_degenerate(self):
        dom = DomainSpec(3, np.pi, 4)
        with pytest.raises(DegenerateFieldError):
            project_to_nehari(ModalField.zeros(dom), PARAMS)

    def test_non_finite_field_degenerate(self):
        coeffs = np.zeros((4, 4, 4))
        coeffs[0, 0, 0] = np.nan
        trial = ModalField(DomainSpec(3, np.pi, 4), coeffs)
        with pytest.raises(DegenerateFieldError, match="non-finite fibering moments"):
            estimate_depth([trial], PARAMS)

    def test_newton_cap_reported(self, monkeypatch):
        monkeypatch.setattr(well, "NEWTON_MAX_ITER", 0)
        u = ModalField.eigenmode(DomainSpec(3, np.pi, 4), (1, 1, 1))
        with pytest.raises(DegenerateFieldError, match="did not converge"):
            project_to_nehari(u, PARAMS)


class TestTrialFamily:
    # counts on both sides of a block boundary, and past two blocks
    @pytest.mark.parametrize("count", [0, 1, 7, well.TRIAL_BLOCK - 1, well.TRIAL_BLOCK,
                                       well.TRIAL_BLOCK + 1, 2 * well.TRIAL_BLOCK + 6])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_one_draw_gives_the_sequential_bits(self, dim, count):
        dom = DomainSpec(dim, np.pi, 4)
        fields, labels = default_trial_family(dom, count, seed=3)
        fields = list(fields)
        # the oracle: one random_band_limited draw per trial
        expected = [ModalField.eigenmode(dom, (1,) * dim)]
        expected_labels = ["eigenmode-1"]
        rng = np.random.default_rng(3)
        for i in range(count):
            expected.append(random_band_limited(dom, rng))
            expected_labels.append(f"random-{i:02d}")
        assert labels == expected_labels
        assert len(fields) == len(expected)
        for got, want in zip(fields, expected):
            assert got.domain == dom
            assert got.coeffs.shape == dom.modal_shape
            assert got.coeffs.tobytes() == want.coeffs.tobytes()

    def test_trials_are_read_only(self):
        fields, _ = default_trial_family(DomainSpec(3, np.pi, 4), 3, seed=0)
        for trial in fields:
            with pytest.raises(ValueError):
                trial.coeffs[0, 0, 0] = 1.0

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            default_trial_family(DomainSpec(3, np.pi, 4), -1, seed=0)


class TestEstimateDepth:
    def test_single_trial_positive(self):
        dom = DomainSpec(3, np.pi, 4)
        est = estimate_depth([ModalField.eigenmode(dom, (1, 1, 1))], PARAMS)
        assert est.d_hat > 0

    def test_scaled_trials_contribute_identically(self):
        dom = DomainSpec(3, np.pi, 4)
        u = ModalField.eigenmode(dom, (2, 1, 1), 0.6)
        est = estimate_depth([u, u.scaled(2.0)], PARAMS)
        (_, j1), (_, j2) = est.trials
        assert j1 == pytest.approx(j2, rel=1e-10)

    def test_golden_value_first_eigenfunction(self):
        # high oversample so quadrature error sits below the tolerance
        dom = DomainSpec(3, np.pi, 8, 8)
        est = estimate_depth([ModalField.eigenmode(dom, (1, 1, 1))], PARAMS)
        assert est.d_hat == pytest.approx(DEPTH_GOLDEN, rel=1e-6)
        assert est.trials[0][0] == pytest.approx(LAMBDA_STAR_GOLDEN, rel=1e-6)
        # dual-method oracle on the semi-analytic moments reproduces it
        A = 3 * (np.pi / 2) ** 3
        G = (3 * np.pi / 8) ** 3
        B = 3 * I4_LOG * (3 * np.pi / 8) ** 2
        m = FiberMoments(A=A, B=B, G=G)
        lam_a, j_a = scan_and_bisect(m, 4.0)
        lam_b = golden_section(m, 4.0, 0.9 * lam_a, 1.1 * lam_a)
        assert j_a == pytest.approx(DEPTH_GOLDEN, rel=1e-10)
        assert fiber_J(m, lam_b, 4.0) == pytest.approx(DEPTH_GOLDEN, rel=1e-10)

    @settings(deadline=None, max_examples=40)
    @given(gamma=GAMMA_3D, seed=st.integers(0, 2 ** 32 - 1))
    def test_fully_subcritical_range(self, gamma, seed):
        # the lower range (2, 4) included: every trial's supremum is positive
        # and its Nehari residual sits at roundoff
        params = ModelParams(gamma, 3)
        trials, _ = default_trial_family(DomainSpec(3, np.pi, 4), count=3, seed=seed)
        trials = list(trials)
        est = estimate_depth(trials, params)
        assert est.d_hat > 0
        for trial, (lam, j_max) in zip(trials, est.trials, strict=True):
            m = fiber_moments(trial, params)
            assert j_max > 0
            assert abs(fiber_I(m, lam, gamma)) <= 1e-10 * lam ** 2 * m.A

    def test_monotone_under_family_growth(self):
        dom = DomainSpec(3, np.pi, 4)
        trials, _ = default_trial_family(dom, count=6, seed=1)
        trials = list(trials)
        prev = math.inf
        for n in range(1, len(trials) + 1):
            est = estimate_depth(trials[:n], PARAMS)
            assert est.d_hat <= prev + 1e-15
            prev = est.d_hat

    def test_allocates_one_workspace(self, monkeypatch):
        # every trial works in the one grid scratch of the shared domain
        made = []
        build = DomainSpec.__dict__["scratch"].func

        def counted(domain):
            made.append(domain)
            return build(domain)

        monkeypatch.setattr(DomainSpec.__dict__["scratch"], "func", counted)
        dom = DomainSpec(3, np.pi, 4)
        trials, _ = default_trial_family(dom, count=4, seed=2)
        est = estimate_depth(trials, PARAMS)
        assert len(est.trials) == 5
        assert made == [dom]

    @pytest.mark.parametrize("gamma", [4.0, 5.5])
    def test_stale_workspace_changes_no_bit(self, gamma):
        # a scratch full of NaN gives the bits of a fresh, equal domain
        dom = DomainSpec(3, np.pi, 4)
        params = ModelParams(gamma, 3)
        coeffs = random_band_limited(dom, np.random.default_rng(3)).coeffs

        def bits(x):
            return np.array(astuple(x) if isinstance(x, FiberMoments) else x).tobytes()

        for call in (fiber_moments, project_to_nehari):
            for w in dom.scratch:
                w.fill(np.nan)
            got = call(ModalField(dom, coeffs), params)
            assert bits(got) == bits(call(ModalField(DomainSpec(3, np.pi, 4), coeffs), params))

    def test_trials_on_different_domains_rejected(self):
        trials = [ModalField.eigenmode(DomainSpec(3, np.pi, m), (1, 1, 1)) for m in (4, 5)]
        with pytest.raises(ValueError, match="different domains"):
            estimate_depth(trials, PARAMS)

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError):
            estimate_depth([], PARAMS)

    def test_empty_iterator_rejected(self):
        with pytest.raises(ValueError, match="trial family is empty"):
            estimate_depth(iter(()), PARAMS)

    def test_generator_on_different_domains_rejected(self):
        trials = (ModalField.eigenmode(DomainSpec(3, np.pi, m), (1, 1, 1)) for m in (4, 5))
        with pytest.raises(ValueError, match="different domains"):
            estimate_depth(trials, PARAMS)

    def test_stream_gives_the_bits_of_the_list(self):
        # the random trials span three blocks
        count = 2 * well.TRIAL_BLOCK + 6
        dom = DomainSpec(3, np.pi, 4)
        streamed = estimate_depth(default_trial_family(dom, count, seed=5)[0], PARAMS)
        listed = estimate_depth(list(default_trial_family(dom, count, seed=5)[0]), PARAMS)
        assert len(streamed.trials) == count + 1
        assert np.array(streamed.trials).tobytes() == np.array(listed.trials).tobytes()
        assert np.float64(streamed.d_hat).tobytes() == np.float64(listed.d_hat).tobytes()

    def test_memory_is_one_block(self):
        # a family of 1000 trials at m=8 is 4.1 MB of coefficients; streamed,
        # one block of well.TRIAL_BLOCK rows is alive at a time
        dom = DomainSpec(3, np.pi, 8)
        # fill the domain's caches and import what the generator imports
        estimate_depth(default_trial_family(dom, 1, seed=0)[0], PARAMS)
        tracemalloc.start()
        try:
            est = estimate_depth(default_trial_family(dom, 1000, seed=0)[0], PARAMS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(est.trials) == 1001
        assert peak < 1_000_000


class TestStableSetCheck:
    @pytest.fixture()
    def depth(self):
        dom = DomainSpec(3, np.pi, 8, 2)
        est = estimate_depth([ModalField.eigenmode(dom, (1, 1, 1))], PARAMS)
        return dom, est.d_hat

    def test_zero_data_excluded(self, depth):
        dom, d_hat = depth
        z = ModalField.zeros(dom)
        verdict = stable_set_check(z, z, d_hat, 0.5, PARAMS)
        assert verdict.status == "OUT_I"
        assert verdict.trivial_zero

    def test_tiny_eigenfunction_in(self, depth):
        dom, d_hat = depth
        u0 = ModalField.eigenmode(dom, (1, 1, 1), 0.01)
        verdict = stable_set_check(u0, ModalField.zeros(dom), d_hat, 0.5, PARAMS)
        assert verdict.status == "IN"
        assert verdict.I0 > 0
        assert verdict.E0 < verdict.threshold

    def test_scaled_past_maximizer_out(self, depth):
        dom, d_hat = depth
        base = ModalField.eigenmode(dom, (1, 1, 1))
        lam_star, _ = project_to_nehari(base, PARAMS)
        u0 = base.scaled(10.0 * lam_star)
        verdict = stable_set_check(u0, ModalField.zeros(dom), d_hat, 0.5, PARAMS)
        assert verdict.status == "OUT_I"
        assert verdict.I0 < 0

    def test_energy_threshold_out(self, depth):
        dom, d_hat = depth
        u0 = ModalField.eigenmode(dom, (1, 1, 1), 2.0)
        verdict = stable_set_check(u0, ModalField.zeros(dom), d_hat, 0.5, PARAMS)
        assert verdict.status == "OUT_E"
        assert verdict.I0 > 0
        assert verdict.E0 >= verdict.threshold

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "the IN threshold safety * d_hat lies above the band's own depth at gamma >= 4.5"))
    def test_in_verdict_data_do_not_blow_up(self):
        # just below the ground state phi, with kinetic energy 1: E0 = 9.71 lies
        # under the threshold 0.5 * d_hat = 11.57 and I0 > 0, yet E0 exceeds the
        # depth J(phi) = 8.72, and the run blows up at t = 0.697
        dom = DomainSpec(3, np.pi, 8, 2)
        params = ModelParams(5.5, 3)
        phi, _ = descend_to_ground_state(dom, params)
        u0 = phi.scaled(0.99)
        u1 = phi.scaled(math.sqrt(2.0 / l2_norm_sq(phi)))
        d_hat = estimate_depth(default_trial_family(dom, 32, 0)[0], params).d_hat
        verdict = stable_set_check(u0, u1, d_hat, 0.5, params)
        result = integrate(u0, u1, SolverConfig(dt=1e-3, t_end=5.0), params)
        assert not (verdict.status == well.IN and result.status == BLOWUP)

    def test_parameter_validation(self, depth):
        dom, d_hat = depth
        z = ModalField.zeros(dom)
        with pytest.raises(ValueError):
            stable_set_check(z, z, -1.0, 0.5, PARAMS)
        for safety in (0.0, 1.5):
            with pytest.raises(ValueError):
                stable_set_check(z, z, d_hat, safety, PARAMS)
