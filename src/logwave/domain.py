"""Box domains with homogeneous Dirichlet conditions and their sine eigenbasis.

The domain is the open box (0, L)^n (n = 1, 2 or 3).  Fields are represented
by coefficients in the eigenbasis of the Dirichlet Laplacian,

    w_k(x) = prod_i sin(k_i pi x_i / L),      k in {1..m}^n,

with eigenvalues lambda_k = sum_i (k_i pi / L)^2 and L2 norm-square
(L/2)^n per eigenfunction.  Because the basis diagonalizes -Delta, gradient
and L2 norms of band-limited fields are exact modal sums (Parseval); only
integrals of non-polynomial quantities require quadrature.

Grid representation uses the interior points x_j = j L / (N+1),
j = 1..N with N = oversample * m per dimension.  Synthesis multiplies each
axis by the N x m sine matrix S[j, k] = sin(pi j k / (N+1)) (j = 1..N,
k = 1..m), and analysis by (2/(N+1)) S^T; by the discrete orthogonality of
the first N sines on this grid, analysis inverts synthesis on the band.
Each transform is one sequence of per-axis products; the dimension n sets
only how many run: the last axis if n > 1 (one GEMM over the merged leading
axes in synthesis, batched in analysis, where merging moved the last bit at
m = 9-11 with OpenBLAS 0.3.31 on AVX-512), the middle if n = 3, then the first.
At these band sizes the precomputed-matrix product is cheaper than a padded
FFT-based sine transform of length N+1 (Boyd, Chebyshev and Fourier Spectral
Methods, 2nd ed., ch. 10).  The trapezoidal rule (weight h^n, boundary
terms vanish) is exact for products of two in-band fields.  Quadrature of
the logarithmic integrands is approximate; oversampling controls the error.

Mode ordering is lexicographic over multi-indices, i.e. C order of the
coefficient arrays.  All types are immutable after construction, except
for the work arrays of ``DomainSpec.scratch`` and ``_transform_scratch``,
which every call overwrites; a domain keeps no solver state.  Each work
array starts on a 64-byte boundary.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


# the boundary, in bytes, on which every work array starts: a cache line and
# an AVX-512 register.  Left to the heap, the start moved with unrelated edits,
# and an m=8 step over a grid 32 bytes off this boundary was slower.
ALIGN = 64


def _aligned_arrays(*sizes: int) -> tuple[np.ndarray, ...]:
    """Uninitialized flat float arrays of the given sizes, views of one
    allocation, each starting on an ``ALIGN``-byte boundary."""
    per = ALIGN // np.dtype(float).itemsize
    spans = [-(-size // per) * per for size in sizes]
    block = np.empty(sum(spans) + per)
    start = -block.ctypes.data % ALIGN // block.itemsize
    arrays = []
    for size, span in zip(sizes, spans):
        arrays.append(block[start:start + size])
        start += span
    return tuple(arrays)


@dataclass(frozen=True)
class DomainSpec:
    """Box (0, length)^dim resolved by modes_per_dim sine modes per axis.

    The derived shapes and scales are cached properties, computed on first
    read; they are not fields, so equality, hashing and ``replace`` see only
    the four fields.
    """

    dim: int
    length: float
    modes_per_dim: int = 8
    oversample: int = 2

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        if not (self.length > 0 and math.isfinite(self.length)):
            raise ValueError(f"length must be positive and finite, got {self.length}")
        if self.modes_per_dim < 1:
            raise ValueError(f"modes_per_dim must be >= 1, got {self.modes_per_dim}")
        if self.oversample < 2:
            raise ValueError(f"oversample must be >= 2, got {self.oversample}")
        # NumPy refuses an array past sys.maxsize bytes with a ValueError, not a
        # MemoryError; the largest is the grid, or the N x m sine matrix in 1-D
        n = self.grid_per_dim
        if max(n ** self.dim, n * self.modes_per_dim) * 8 > sys.maxsize:
            raise ValueError(f"modes_per_dim {self.modes_per_dim} with oversample "
                             f"{self.oversample} gives arrays beyond NumPy's size limit")
        # the basis scales are Python float powers, which raise OverflowError
        # or underflow to 0 for a box far from unit size
        try:
            scales = (self.mode_norm_sq, self.quad_weight, self.lambda_min,
                      self.dim * (math.pi * self.modes_per_dim / self.length) ** 2)
        except OverflowError:
            scales = (math.inf,)
        if not all(0.0 < s < math.inf for s in scales):
            raise ValueError(f"length {self.length!r} puts the basis scales out of float range")

    @property
    def grid_per_dim(self) -> int:
        return self.oversample * self.modes_per_dim

    @cached_property
    def modal_shape(self) -> tuple[int, ...]:
        return (self.modes_per_dim,) * self.dim

    @cached_property
    def grid_shape(self) -> tuple[int, ...]:
        return (self.grid_per_dim,) * self.dim

    @cached_property
    def grid_spacing(self) -> float:
        return self.length / (self.grid_per_dim + 1)

    @cached_property
    def quad_weight(self) -> float:
        """Quadrature weight per grid node (trapezoid, vanishing boundary)."""
        return self.grid_spacing ** self.dim

    @cached_property
    def mode_norm_sq(self) -> float:
        """L2 norm-square of every (unnormalized) basis function."""
        return (self.length / 2.0) ** self.dim

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """lambda_k on the full modal band, shape ``modal_shape``."""
        k = np.arange(1, self.modes_per_dim + 1, dtype=float)
        axis_sq = (k * np.pi / self.length) ** 2
        lam = np.zeros(self.modal_shape)
        for axis in range(self.dim):
            shape = [1] * self.dim
            shape[axis] = self.modes_per_dim
            lam = lam + axis_sq.reshape(shape)
        lam.flags.writeable = False
        return lam

    @property
    def lambda_min(self) -> float:
        return self.dim * (np.pi / self.length) ** 2

    @cached_property
    def synthesis_matrix(self) -> np.ndarray:
        """S[j, k] = sin(pi (j+1)(k+1) / (N+1)), shape (grid_per_dim, modes_per_dim)."""
        n = self.grid_per_dim
        jk = np.outer(np.arange(1, n + 1), np.arange(1, self.modes_per_dim + 1))
        # reduce the integer phase mod 2(N+1) so every argument lies in [0, 2 pi)
        s = np.sin(np.pi * (jk % (2 * (n + 1))) / (n + 1))
        s.flags.writeable = False
        return s

    @cached_property
    def scratch(self) -> tuple[np.ndarray, ...]:
        """Three uninitialized grid arrays: a synthesized field and the two
        buffers of ``functionals._pow_log``, each written in full before it
        is read.  They are views of one allocation, kept for the life of the
        domain, since fresh 256 kB grids (m=16) were mapped anew from the
        operating system on every step; a tuple, since slicing the block on
        every step cost 3 % of a step at m=8.  Not for concurrent threads.
        """
        size = math.prod(self.grid_shape)
        return tuple(a.reshape(self.grid_shape) for a in _aligned_arrays(size, size, size))

    @cached_property
    def _transform_scratch(self) -> tuple[np.ndarray, np.ndarray]:
        """Two flat arrays of m^(n-1)*N and N^(n-1)*m values for the transforms'
        intermediate products.  Fresh ones, 64 and 128 kB at m=16 in 3-D, came
        from the top of the heap, which the allocator could trim between two
        runs and the next run then faulted back in.  Not for concurrent threads."""
        m, n = self.modes_per_dim, self.grid_per_dim
        return _aligned_arrays(m ** (self.dim - 1) * n, n ** (self.dim - 1) * m)

    @cached_property
    def analysis_matrix(self) -> np.ndarray:
        """(2/(N+1)) S^T, shape (modes_per_dim, grid_per_dim)."""
        a = (2.0 / (self.grid_per_dim + 1)) * self.synthesis_matrix.T
        a.flags.writeable = False
        return a


def poincare_constant(domain: DomainSpec) -> float:
    """Sharp constant C_P in ||u||_2 <= C_P ||grad u||_2 for this basis."""
    return 1.0 / math.sqrt(domain.lambda_min)


@dataclass(frozen=True)
class ModalField:
    """Scalar field stored as sine-basis coefficients on the modal band.

    Coefficients may be non-finite (a diverging simulation is still
    representable); operations that need finite data check explicitly.
    """

    domain: DomainSpec
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        coeffs = self.coeffs
        # a float64 ndarray is taken as it is and anything else converted; only
        # a writeable array is copied (if it is the caller's) and frozen
        if type(coeffs) is np.ndarray and coeffs.dtype == np.float64:
            arr = coeffs
        else:
            arr = np.asarray(coeffs, dtype=float)
        if arr.shape != self.domain.modal_shape:
            raise ValueError(
                f"coefficient shape {arr.shape} does not match modal band "
                f"{self.domain.modal_shape}"
            )
        if arr.flags.writeable:
            if arr is coeffs:
                arr = arr.copy()
            arr.flags.writeable = False
        if arr is not coeffs:
            object.__setattr__(self, "coeffs", arr)

    @classmethod
    def zeros(cls, domain: DomainSpec) -> "ModalField":
        return cls(domain, np.zeros(domain.modal_shape))

    @classmethod
    def eigenmode(cls, domain: DomainSpec, k: tuple[int, ...], amplitude: float = 1.0) -> "ModalField":
        k = tuple(int(ki) for ki in k)
        if len(k) != domain.dim:
            raise IndexError(f"multi-index {k} does not match dim={domain.dim}")
        if not all(1 <= ki <= domain.modes_per_dim for ki in k):
            raise IndexError(f"mode index {k} out of range 1..{domain.modes_per_dim}")
        c = np.zeros(domain.modal_shape)
        c[tuple(ki - 1 for ki in k)] = amplitude
        return cls(domain, c)

    def scaled(self, factor: float) -> "ModalField":
        return ModalField(self.domain, factor * self.coeffs)


def synthesize(domain: DomainSpec, coeffs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Evaluate modal coefficients on the quadrature grid (raw arrays).

    The last product goes into ``out``, a C-contiguous ``grid_shape`` float
    array (fresh when None) that is returned; the others into the domain's buffer.
    """
    if out is None:
        out = np.empty(domain.grid_shape)
    s = domain.synthesis_matrix
    m, n = domain.modes_per_dim, domain.grid_per_dim
    small, large = domain._transform_scratch
    x = coeffs
    if domain.dim > 1:
        x = np.matmul(x.reshape(-1, m), s.T, out=small.reshape(-1, n))
    if domain.dim == 3:
        x = np.matmul(s, x.reshape(m, m, n), out=large.reshape(m, n, n))
    np.matmul(s, x.reshape(m, -1), out=out.reshape(n, -1))
    return out


def analyze(domain: DomainSpec, values: np.ndarray) -> np.ndarray:
    """L2-project grid values onto the modal band (raw arrays), into a fresh
    array; the intermediate products go into a buffer that the domain keeps."""
    a = domain.analysis_matrix
    m, n = domain.modes_per_dim, domain.grid_per_dim
    small, large = domain._transform_scratch
    x = values
    if domain.dim > 1:
        x = np.matmul(x, a.T, out=large.reshape(-1, n, m))
    if domain.dim == 3:
        x = np.matmul(a, x, out=small.reshape(n, m, m))
    return (a @ x.reshape(n, -1)).reshape(domain.modal_shape)


def coeff_grad_norm_sq(domain: DomainSpec, coeffs: np.ndarray) -> float:
    """||grad u||_2^2 of raw modal coefficients as the exact modal sum."""
    return float((domain.eigenvalues * coeffs ** 2).sum() * domain.mode_norm_sq)


def grad_norm_sq(f: ModalField) -> float:
    """||grad u||_2^2 as the exact modal sum."""
    return coeff_grad_norm_sq(f.domain, f.coeffs)


def coeff_l2_norm_sq(domain: DomainSpec, coeffs: np.ndarray) -> float:
    """||u||_2^2 of raw modal coefficients as the exact modal sum (Parseval)."""
    return float((coeffs ** 2).sum() * domain.mode_norm_sq)


def l2_norm_sq(f: ModalField) -> float:
    """||u||_2^2 as the exact modal sum (Parseval)."""
    return coeff_l2_norm_sq(f.domain, f.coeffs)


def l2_inner(f: ModalField, g: ModalField) -> float:
    """Inner product (f, g), exact on the modal band."""
    if f.domain != g.domain:
        raise ValueError("fields live on different domains")
    return float((f.coeffs * g.coeffs).sum() * f.domain.mode_norm_sq)


def random_band_limited(domain: DomainSpec, rng: np.random.Generator) -> ModalField:
    """Field with independent standard normal coefficients on the band."""
    return ModalField(domain, rng.standard_normal(domain.modal_shape))
