import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from logwave.domain import (
    DomainSpec,
    ModalField,
    analyze,
    grad_norm_sq,
    l2_norm_sq,
    poincare_constant,
    random_band_limited,
    synthesize,
)
from logwave.functionals import field_log_moments

# transforms against references, relative to the reference's max-abs
TRANSFORM_RTOL = 1e-13


def grid_nodes(dom: DomainSpec) -> np.ndarray:
    """The interior nodes x_j = j h, j = 1..N, of one axis."""
    return np.arange(1, dom.grid_per_dim + 1) * dom.grid_spacing


def sine_sum_basis(dom: DomainSpec, k: tuple[int, ...]) -> np.ndarray:
    """w_k on the grid, one sine per axis of the physical coordinates."""
    w = np.ones(())
    for ki in k:
        w = np.multiply.outer(w, np.sin(ki * np.pi * grid_nodes(dom) / dom.length))
    return w


def lp_quadrature(f: ModalField, p: float) -> float:
    """||f||_p from the grid quadrature of ||f||_p^p that ``energy`` takes."""
    return field_log_moments(f, p)[0] ** (1.0 / p)


def sine_sum_synthesis(dom: DomainSpec, coeffs: np.ndarray) -> np.ndarray:
    """u(x_j) = sum_k c_k w_k(x_j), one basis function at a time."""
    out = np.zeros(dom.grid_shape)
    for idx in itertools.product(range(dom.modes_per_dim), repeat=dom.dim):
        out += coeffs[idx] * sine_sum_basis(dom, tuple(i + 1 for i in idx))
    return out


def sine_sum_analysis(dom: DomainSpec, values: np.ndarray) -> np.ndarray:
    """c_k = (values, w_k)_h / ||w_k||^2 by the trapezoid rule, mode by mode."""
    out = np.zeros(dom.modal_shape)
    for idx in itertools.product(range(dom.modes_per_dim), repeat=dom.dim):
        w = sine_sum_basis(dom, tuple(i + 1 for i in idx))
        out[idx] = dom.quad_weight * np.sum(values * w) / dom.mode_norm_sq
    return out


def batched_synthesis(dom: DomainSpec, coeffs: np.ndarray) -> np.ndarray:
    """3-D synthesis whose first product is m batched (m, m) @ S^T products."""
    s = dom.synthesis_matrix
    x = np.matmul(s, np.matmul(coeffs, s.T))
    return (s @ x.reshape(dom.modes_per_dim, -1)).reshape(dom.grid_shape)


def batched_analysis(dom: DomainSpec, values: np.ndarray) -> np.ndarray:
    """3-D analysis whose first product is N batched (N, N) @ A^T products."""
    a = dom.analysis_matrix
    x = np.matmul(a, np.matmul(values, a.T))
    return (a @ x.reshape(dom.grid_per_dim, -1)).reshape(dom.modal_shape)


def max_rel_err(got: np.ndarray, ref: np.ndarray) -> float:
    return float(np.abs(got - ref).max() / np.abs(ref).max())


class TestDomainSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            DomainSpec(4, np.pi, 8)
        with pytest.raises(ValueError):
            DomainSpec(1, -1.0, 8)
        with pytest.raises(ValueError):
            DomainSpec(1, np.pi, 0)
        with pytest.raises(ValueError):
            DomainSpec(1, np.pi, 8, oversample=1)
        # an array beyond sys.maxsize bytes, which NumPy refuses outright; the
        # grid in 3-D, the N x m sine matrix in 1-D
        for dim, m, oversample in ((3, 3000000, 2), (3, 4, 10 ** 6), (1, 10 ** 9, 2)):
            with pytest.raises(ValueError, match=f"modes_per_dim {m} with oversample {oversample}"):
                DomainSpec(dim, np.pi, m, oversample)
        # 200000 modes in 3-D (56.8 PiB) lie below the limit: allocation refuses them
        assert DomainSpec(3, np.pi, 200000).grid_per_dim == 400000
        # (L/2)^dim or lambda_max overflows, or h^dim or lambda_min underflows to 0
        for dim, length in ((3, 1e150), (3, 1e-160), (1, 1e308), (3, 1e-110)):
            with pytest.raises(ValueError, match="length"):
                DomainSpec(dim, length, 8)

    def test_cached_scales_leave_identity_alone(self):
        dom = DomainSpec(3, 1.7, 5)
        fresh = DomainSpec(3, 1.7, 5)
        scales = (dom.modal_shape, dom.grid_shape, dom.grid_spacing, dom.quad_weight,
                  dom.mode_norm_sq)
        assert scales == ((5, 5, 5), (10, 10, 10), 1.7 / 11, (1.7 / 11) ** 3, 0.85 ** 3)
        assert dom == fresh and hash(dom) == hash(fresh)
        assert dataclasses.replace(dom) == dom
        # replace builds a new domain, whose scales come from its own fields
        other = dataclasses.replace(dom, dim=2, modes_per_dim=4)
        assert other != dom
        assert (other.modal_shape, other.grid_shape, other.grid_spacing) == ((4, 4), (8, 8), 1.7 / 9)
        assert other.mode_norm_sq == 0.85 ** 2
        with pytest.raises(ValueError, match="length"):
            dataclasses.replace(dom, length=1e150)

    def test_grid_geometry(self):
        dom = DomainSpec(2, 2.0, 4, 3)
        assert dom.grid_per_dim == 12
        assert dom.grid_spacing == pytest.approx(2.0 / 13)
        assert dom.quad_weight == pytest.approx((2.0 / 13) ** 2)
        assert dom.mode_norm_sq == pytest.approx(1.0)

    @pytest.mark.parametrize("m", [1, 5, 8, 16])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_work_arrays_start_on_64_byte_boundaries(self, dim, m):
        dom = DomainSpec(dim, np.pi, m)
        n = dom.grid_per_dim
        arrays = (*dom.scratch, *dom._transform_scratch)
        assert [a.shape for a in arrays] == ([dom.grid_shape] * 3
                                             + [(m ** (dim - 1) * n,), (n ** (dim - 1) * m,)])
        assert all(a.flags.c_contiguous and a.ctypes.data % 64 == 0 for a in arrays)
        assert not any(np.shares_memory(a, b)
                       for i, a in enumerate(arrays) for b in arrays[i + 1:])

    def test_eigenvalue_monotonicity(self):
        dom = DomainSpec(3, 1.7, 5)
        lam = dom.eigenvalues
        for axis in range(3):
            lo = np.take(lam, range(4), axis=axis)
            hi = np.take(lam, range(1, 5), axis=axis)
            assert np.all(hi > lo)


class TestEigenpair:
    def test_examples(self):
        dom = DomainSpec(1, np.pi, 4)
        assert dom.eigenvalues[0] == pytest.approx(1.0, rel=1e-14)
        assert dom.mode_norm_sq == pytest.approx(np.pi / 2, rel=1e-14)

        assert DomainSpec(3, np.pi, 4).eigenvalues[0, 0, 0] == pytest.approx(3.0, rel=1e-14)

        dom = DomainSpec(2, 1.0, 4)
        assert dom.eigenvalues[0, 1] == pytest.approx(5 * np.pi ** 2, rel=1e-14)
        assert dom.mode_norm_sq == pytest.approx(0.25, rel=1e-14)

    def test_out_of_range(self):
        dom = DomainSpec(2, np.pi, 4)
        with pytest.raises(IndexError, match="out of range"):
            ModalField.eigenmode(dom, (0, 1))
        with pytest.raises(IndexError, match="out of range"):
            ModalField.eigenmode(dom, (1, 5))
        with pytest.raises(IndexError, match="does not match dim"):
            ModalField.eigenmode(dom, (1,))


class TestTransforms:
    def test_zero_field(self):
        dom = DomainSpec(2, np.pi, 4)
        values = synthesize(dom, np.zeros(dom.modal_shape))
        assert not np.any(values)
        assert not np.any(analyze(dom, values))

    def test_single_mode_synthesis(self):
        dom = DomainSpec(3, 1.5, 3)
        f = ModalField.eigenmode(dom, (1, 1, 1))
        s = np.sin(np.pi * grid_nodes(dom) / dom.length)
        expected = np.einsum("i,j,k->ijk", s, s, s)
        values = synthesize(dom, f.coeffs)
        assert np.abs(values - expected).max() < 1e-12
        back = analyze(dom, values)
        assert abs(back[0, 0, 0] - 1.0) < 1e-12
        back[0, 0, 0] = 0.0
        assert np.abs(back).max() < 1e-12

    @pytest.mark.parametrize("dim,m,ov", [(1, 16, 2), (2, 6, 2), (3, 4, 3)])
    def test_round_trip_random(self, dim, m, ov):
        dom = DomainSpec(dim, 2.2, m, ov)
        rng = np.random.default_rng(7)
        f = random_band_limited(dom, rng)
        back = analyze(dom, synthesize(dom, f.coeffs))
        scale = np.abs(f.coeffs).max()
        assert np.abs(back - f.coeffs).max() < 1e-12 * scale

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_against_dense_oracle(self, dim):
        dom = DomainSpec(dim, 1.3, 4, 2)
        rng = np.random.default_rng(11)
        f = random_band_limited(dom, rng)
        values = synthesize(dom, f.coeffs)
        dense = sine_sum_synthesis(dom, f.coeffs)
        assert np.abs(values - dense).max() < 1e-12 * np.abs(dense).max()
        # analysis is the L2 projection of grid data onto the band
        arbitrary = rng.standard_normal(dom.grid_shape)
        proj = analyze(dom, arbitrary)
        dense_proj = sine_sum_analysis(dom, arbitrary)
        assert np.abs(proj - dense_proj).max() < 1e-12 * np.abs(dense_proj).max()

    @pytest.mark.parametrize("oversample", [2, 3])
    @pytest.mark.parametrize("m", [1, 3, 8])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_sine_sum_reference(self, dim, m, oversample):
        dom = DomainSpec(dim, 1.7, m, oversample)
        rng = np.random.default_rng(100 * dim + 10 * m + oversample)
        coeffs = rng.standard_normal(dom.modal_shape)
        assert max_rel_err(synthesize(dom, coeffs),
                           sine_sum_synthesis(dom, coeffs)) <= TRANSFORM_RTOL
        values = rng.standard_normal(dom.grid_shape)
        assert max_rel_err(analyze(dom, values),
                           sine_sum_analysis(dom, values)) <= TRANSFORM_RTOL

    @settings(deadline=None)
    @given(data=st.data(), dim=st.integers(1, 3), m=st.integers(1, 8),
           oversample=st.integers(2, 3))
    def test_analyze_inverts_synthesize(self, data, dim, m, oversample):
        dom = DomainSpec(dim, 2.3, m, oversample)
        # magnitudes bounded away from the subnormal range, where the
        # per-axis scalings would lose relative precision
        magnitude = st.floats(1e-6, 1e6)
        element = st.just(0.0) | magnitude | magnitude.map(lambda x: -x)
        coeffs = data.draw(hnp.arrays(float, dom.modal_shape, elements=element))
        back = analyze(dom, synthesize(dom, coeffs))
        assert np.abs(back - coeffs).max() <= TRANSFORM_RTOL * np.abs(coeffs).max()

    @settings(deadline=None)
    @given(m=st.integers(1, 12), oversample=st.integers(2, 3),
           exponents=st.lists(st.floats(-150, 150), min_size=2, max_size=2),
           seed=st.integers(0, 2**32 - 1))
    def test_3d_transforms_give_the_batched_bits(self, m, oversample, exponents, seed):
        # the merged-axes GEMM of synthesize against the batched products
        dom = DomainSpec(3, 2.3, m, oversample)
        rng = np.random.default_rng(seed)
        lo, hi = sorted(exponents)

        def draw(shape):
            return rng.standard_normal(shape) * 10.0 ** rng.uniform(lo, hi, shape)

        coeffs = draw(dom.modal_shape)
        assert synthesize(dom, coeffs).tobytes() == batched_synthesis(dom, coeffs).tobytes()
        values = draw(dom.grid_shape)
        assert analyze(dom, values).tobytes() == batched_analysis(dom, values).tobytes()

    @settings(deadline=None)
    @given(dim=st.integers(1, 2), m=st.integers(1, 12), oversample=st.integers(2, 3),
           exponents=st.lists(st.floats(-150, 150), min_size=2, max_size=2),
           seed=st.integers(0, 2**32 - 1))
    def test_1d_2d_transforms_give_the_plain_products_bits(self, dim, m, oversample,
                                                          exponents, seed):
        # the shared product sequence against one plain product per axis
        dom = DomainSpec(dim, 2.3, m, oversample)
        rng = np.random.default_rng(seed)
        lo, hi = sorted(exponents)

        def draw(shape):
            return rng.standard_normal(shape) * 10.0 ** rng.uniform(lo, hi, shape)

        s, a = dom.synthesis_matrix, dom.analysis_matrix
        coeffs, values = draw(dom.modal_shape), draw(dom.grid_shape)
        if dim == 1:
            synthesized, analyzed = s @ coeffs, a @ values
        else:
            synthesized, analyzed = s @ (coeffs @ s.T), a @ (values @ a.T)
        out = np.empty(dom.grid_shape)
        assert synthesize(dom, coeffs, out=out) is out
        assert out.tobytes() == synthesized.tobytes()
        assert synthesize(dom, coeffs).tobytes() == synthesized.tobytes()
        assert analyze(dom, values).tobytes() == analyzed.tobytes()

    def test_2d_transforms_allocate_no_intermediate(self):
        # an m x N intermediate is 32 kB here; the modal output of analyze is
        # 32 kB too, and the only allocation that analyze may make
        dom = DomainSpec(2, np.pi, 64)
        coeffs = random_band_limited(dom, np.random.default_rng(3)).coeffs
        out = np.empty(dom.grid_shape)
        synthesize(dom, coeffs, out=out)
        analyze(dom, out)
        tracemalloc.start()
        try:
            synthesize(dom, coeffs, out=out)
            synthesize_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            modal = analyze(dom, out)
            analyze_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert synthesize_peak < 4096
        assert analyze_peak < modal.nbytes + 4096

    def test_shape_mismatch(self):
        dom = DomainSpec(2, np.pi, 4)
        with pytest.raises(ValueError):
            ModalField(dom, np.zeros((4, 5)))

    def test_read_only_rows_kept_other_input_converted(self):
        dom = DomainSpec(2, np.pi, 4)
        block = np.random.default_rng(0).standard_normal((3, 4, 4))
        block.flags.writeable = False
        row = block[1]
        assert ModalField(dom, row).coeffs is row
        writeable = np.ones((4, 4))
        kept = ModalField(dom, writeable).coeffs
        assert kept is not writeable and writeable.flags.writeable
        assert not kept.flags.writeable
        single = np.ones((4, 4), dtype=np.float32)
        single.flags.writeable = False
        for data in (single, [[1.0] * 4] * 4):
            coeffs = ModalField(dom, data).coeffs
            assert coeffs.dtype == np.float64 and not coeffs.flags.writeable
            assert coeffs.tobytes() == np.ones((4, 4)).tobytes()
        with pytest.raises(ValueError):
            ModalField(dom, block[:, :3, :])

    def test_coefficients_immutable(self):
        dom = DomainSpec(1, np.pi, 4)
        f = ModalField.zeros(dom)
        with pytest.raises(ValueError):
            f.coeffs[0] = 1.0


class TestNorms:
    def test_grad_norm_examples(self):
        dom = DomainSpec(1, np.pi, 4)
        assert grad_norm_sq(ModalField.eigenmode(dom, (1,))) == pytest.approx(np.pi / 2, rel=1e-14)
        assert grad_norm_sq(ModalField.zeros(dom)) == 0.0
        two = ModalField(dom, np.array([1.0, 1.0, 0.0, 0.0]))
        assert grad_norm_sq(two) == pytest.approx(5 * np.pi / 2, rel=1e-14)

    def test_lp_examples(self):
        dom = DomainSpec(1, np.pi, 8, 8)
        f = ModalField.eigenmode(dom, (1,))
        assert lp_quadrature(f, 2) == pytest.approx(np.sqrt(np.pi / 2), rel=1e-12)
        assert lp_quadrature(f, 4) == pytest.approx((3 * np.pi / 8) ** 0.25, rel=1e-12)

    def test_lp_refined_quadrature_oracle(self):
        # p = 4 is exact for band-limited data; p = 3.5 genuinely probes the
        # quadrature against a 4x-finer dense-summation oracle
        dom = DomainSpec(1, np.pi, 16, 64)
        rng = np.random.default_rng(3)
        coeffs = rng.standard_normal(16) / (1 + np.arange(16))
        f = ModalField(dom, coeffs)
        for p in (4.0, 3.5):
            fine = DomainSpec(1, np.pi, 16, 256)
            vals = np.abs(sine_sum_synthesis(fine, coeffs))
            oracle = (fine.quad_weight * np.sum(vals ** p)) ** (1.0 / p)
            assert lp_quadrature(f, p) == pytest.approx(oracle, rel=1e-8)

    def test_parseval(self):
        rng = np.random.default_rng(5)
        for dim, m in [(1, 12), (2, 5), (3, 3)]:
            dom = DomainSpec(dim, 1.9, m, 2)
            f = random_band_limited(dom, rng)
            modal = np.sum(f.coeffs ** 2) * dom.mode_norm_sq
            assert lp_quadrature(f, 2) ** 2 == pytest.approx(modal, rel=1e-12)
            assert l2_norm_sq(f) == pytest.approx(modal, rel=1e-14)

    def test_poincare_constant(self):
        assert poincare_constant(DomainSpec(3, np.pi, 4)) == pytest.approx(1 / np.sqrt(3), rel=1e-14)
        assert poincare_constant(DomainSpec(1, np.pi, 4)) == pytest.approx(1.0, rel=1e-14)
        assert poincare_constant(DomainSpec(1, 2 * np.pi, 4)) == pytest.approx(2.0, rel=1e-14)

    def test_sharp_poincare(self):
        rng = np.random.default_rng(9)
        dom = DomainSpec(3, np.pi, 4)
        cp = poincare_constant(dom)
        for _ in range(20):
            f = random_band_limited(dom, rng)
            assert np.sqrt(l2_norm_sq(f)) <= cp * np.sqrt(grad_norm_sq(f)) * (1 + 1e-12)
        lowest = ModalField.eigenmode(dom, (1, 1, 1), 0.7)
        ratio = np.sqrt(l2_norm_sq(lowest)) / (cp * np.sqrt(grad_norm_sq(lowest)))
        assert ratio == pytest.approx(1.0, abs=1e-12)
        mixed = lowest + ModalField.eigenmode(dom, (2, 1, 1), 0.1)
        ratio = np.sqrt(l2_norm_sq(mixed)) / (cp * np.sqrt(grad_norm_sq(mixed)))
        assert ratio < 1.0 - 1e-6
