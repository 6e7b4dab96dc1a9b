"""The logarithmic source term and the associated energy functionals.

For the equation  u_tt - Delta u - Delta u_t = |u|^(g-2) u ln|u|  the
relevant scalars of a state (u, u_t) are

    E = 1/2 ||u_t||_2^2 + J(u)                         (total energy)
    J = 1/2 ||grad u||_2^2 - (1/g) B(u) + (1/g^2) ||u||_g^g
    I = ||grad u||_2^2 - B(u)                          (Nehari functional)

with B(u) = integral of |u|^g ln|u|.  Quadratic terms are exact modal sums;
B and ||u||_g^g are evaluated by quadrature from a single shared grid
synthesis so that E, J and I of one report are mutually consistent.

All pointwise log work (the source, the two moments and the dual norm of
the source) goes through one kernel, ``_pow_log``, which takes one log per
grid point and builds |s|^p from it as exp(p ln|s|) unless p is an integer
from 1 to 4.  The kernel writes into two grid buffers and its callers
multiply into them in place.  ``field_log_moments`` synthesizes u into
the first array of ``DomainSpec.scratch`` and hands the kernel the other
two, as ``solver.source_projection`` does for the source, so neither a
report of ``energy`` nor ``well.fiber_moments`` allocates a grid-sized
array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .domain import DomainSpec, ModalField, grad_norm_sq, l2_inner, l2_norm_sq, synthesize

# below this magnitude the integrand |u|^g ln|u| is taken as exactly zero,
# avoiding log-underflow noise
ZERO_CLIP = 1e-300


def gamma_window(dim: int) -> tuple[float, float]:
    """The open exponent window (2, 2n/(n-2)), with no upper end for n <= 2.

    This is the paper's fully subcritical range: the lower range
    2 < gamma < 2(n-1)/(n-2) of earlier work joined to the upper range
    [2(n-1)/(n-2), 2n/(n-2)) that the paper adds, (2, 6) in 3-D.  In 1-D
    and 2-D, H^1_0 embeds in every L^p with p < inf, so every gamma > 2 is
    subcritical.
    """
    return 2.0, (2.0 * dim / (dim - 2) if dim > 2 else math.inf)


@dataclass(frozen=True)
class ModelParams:
    """Exponent and dimension of the logarithmic source.

    The exponent must lie in the open window ``gamma_window(dim)``, which
    also rules out NaN and infinities, so ``dim`` must be the dimension of
    every field the model is applied to: ``energy``, ``source_dual_norm``
    and ``well.fiber_moments`` check it.  ``source_enabled=False`` switches
    the source off entirely, turning the model into the linear strongly
    damped wave equation (the log terms of the energy vanish with it).
    """

    gamma: float
    dim: int
    source_enabled: bool = True

    def __post_init__(self):
        lo, hi = gamma_window(self.dim)
        if not lo < self.gamma < hi:
            raise ValueError(f"gamma={self.gamma} outside ({lo:g}, {hi:g}) for dim={self.dim}")

    def check_dim(self, dim: int):
        """Raise unless ``dim``, a field's dimension, is the model's own."""
        if dim != self.dim:
            raise ValueError(f"a field of dim={dim} under a model of dim={self.dim}: "
                             f"gamma={self.gamma} was checked for dim={self.dim} only")

    @property
    def rho(self) -> float | None:
        """Midpoint of the gap above gamma, None for n <= 2 (diagnostic only)."""
        hi = gamma_window(self.dim)[1]
        return 0.5 * (hi - self.gamma) if math.isfinite(hi) else None

    @property
    def mu(self) -> float | None:
        rho = self.rho
        if rho is None:
            return None
        return rho * (self.gamma - 1.0) / self.gamma


@dataclass(frozen=True)
class EnergyReport:
    """One time sample of the energy ledger.

    ``CSV_COLUMNS`` is every field, in field order.  kinetic is 1/2 ||u_t||_2^2,
    grad_sq and grad_ut_sq are ||grad u||_2^2 and ||grad u_t||_2^2, lgamma is
    ||u||_g^g, logterm is B(u), cross_term is (u_t, u); the integrator fills
    damping_integral and identity_residual.
    """

    t: float
    E: float
    J: float
    I: float
    kinetic: float
    grad_sq: float
    lgamma: float
    logterm: float
    cross_term: float
    damping_integral: float = 0.0
    identity_residual: float = 0.0
    grad_ut_sq: float = 0.0


CSV_COLUMNS = tuple(f.name for f in fields(EnergyReport))


def _pow_log(s, p: float, work=None):
    """(|s|^p, ln max(|s|, ZERO_CLIP), |s| < ZERO_CLIP) from one log per point.

    The log is written into ``work[0]`` and the power into ``work[1]``, two
    float arrays of the shape of s; with ``work`` None the ufuncs allocate
    them.  s itself is not written.  Callers multiply into the two arrays
    in place and zero the masked points of their product, where the power
    is unspecified.  Integer p from 1 to 4 is a product of copies of |s|,
    cheaper and more accurate than a transcendental; any other p is
    exp(p ln|s|).
    """
    a_out, pw_out = (None, None) if work is None else work
    a = np.abs(s, out=a_out, dtype=float)
    small = a < ZERO_CLIP
    if p == 1.0:
        pw = np.positive(a, out=pw_out)
    elif p in (2.0, 3.0, 4.0):
        pw = np.multiply(a, a, out=pw_out)
        if p == 3.0:
            pw *= a
        elif p == 4.0:
            pw *= pw
    np.maximum(a, ZERO_CLIP, out=a)
    np.log(a, out=a)
    if p not in (1.0, 2.0, 3.0, 4.0):
        pw = np.multiply(a, p, out=pw_out)
        np.exp(pw, out=pw)
    return pw, a, small


def source_eval(s, gamma: float, work=None):
    """The scalar nonlinearity |s|^(gamma-2) s ln|s|, extended by 0 at s=0.

    Accepts scalars or arrays; odd in s.  The continuous extension at zero
    is exact for gamma > 2.  An array result is ``work[1]`` when two
    buffers are given (see ``_pow_log``), else a fresh array.
    """
    if gamma <= 2:
        raise ValueError(f"gamma must be > 2, got {gamma}")
    arr = np.asarray(s, dtype=float)
    scalar = arr.ndim == 0
    if scalar:
        arr = arr.reshape(1)
    out, log_a, small = _pow_log(arr, gamma - 2.0, work)
    out *= arr
    out *= log_a
    out[small] = 0.0
    return float(out[0]) if scalar else out


def log_moments(values: np.ndarray, quad_weight: float, gamma: float,
                work=None) -> tuple[float, float]:
    """Quadrature of (||u||_g^g, B(u)) from grid values of u.

    ``work`` is passed to ``_pow_log``.
    """
    pg, log_a, small = _pow_log(values, gamma, work)
    lgamma = quad_weight * float(pg.sum())
    log_a *= pg
    log_a[small] = 0.0
    logterm = quad_weight * float(log_a.sum())
    return lgamma, logterm


def field_log_moments(u: ModalField, gamma: float) -> tuple[float, float]:
    """``log_moments`` of u, synthesized and taken in its domain's scratch."""
    scratch = u.domain.scratch
    values = synthesize(u.domain, u.coeffs, out=scratch[0])
    return log_moments(values, u.domain.quad_weight, gamma, scratch[1:])


def square(x: float) -> float:
    """x ** 2, saturating to inf where float ** raises OverflowError."""
    try:
        return x ** 2
    except OverflowError:
        return math.inf


def _require_finite(f: ModalField, name: str):
    if not np.isfinite(f.coeffs).all():
        raise ValueError(f"{name} contains non-finite coefficients")


def energy(u: ModalField, ut: ModalField, params: ModelParams) -> EnergyReport:
    """Evaluate the full energy report of a state (ledger fields left zero)."""
    if u.domain != ut.domain:
        raise ValueError("u and u_t live on different domains")
    params.check_dim(u.domain.dim)
    _require_finite(u, "u")
    _require_finite(ut, "u_t")
    kinetic = 0.5 * l2_norm_sq(ut)
    grad_sq = grad_norm_sq(u)
    cross = l2_inner(u, ut)
    g = params.gamma
    if params.source_enabled:
        lgamma, logterm = field_log_moments(u, g)
    else:
        lgamma = logterm = 0.0
    J = 0.5 * grad_sq - logterm / g + lgamma / square(g)
    I = grad_sq - logterm
    return EnergyReport(
        t=0.0, E=kinetic + J, J=J, I=I, kinetic=kinetic, grad_sq=grad_sq,
        lgamma=lgamma, logterm=logterm, cross_term=cross,
        grad_ut_sq=grad_norm_sq(ut),
    )


def uniform_bound_constant(gamma: float) -> float:
    """min{1/2, (gamma-2)/(2 gamma), 1/gamma^2}, the coercivity constant."""
    return min(0.5, (gamma - 2.0) / (2.0 * gamma), 1.0 / square(gamma))


def log_bound_small(s, gamma: float):
    """s^(gamma-1) |ln s| on (0,1) against its sharp bound 1/(e(gamma-1)).

    Returns (lhs, bound); the maximum is attained at s = e^(-1/(gamma-1)).
    """
    if gamma <= 2:
        raise ValueError(f"gamma must be > 2, got {gamma}")
    arr = np.asarray(s, dtype=float)
    if np.any(arr <= 0) or np.any(arr >= 1):
        raise ValueError("s must lie strictly inside (0, 1)")
    lhs = arr ** (gamma - 1.0) * np.abs(np.log(arr))
    bound = 1.0 / (math.e * (gamma - 1.0))
    return (float(lhs) if arr.ndim == 0 else lhs), bound


def log_bound_large(s, mu: float):
    """s^(-mu) ln s on [1, inf) against its sharp bound 1/(e mu).

    Returns (lhs, bound); lhs vanishes at s = 1 and the supremum is
    attained at s = e^(1/mu).
    """
    if not mu > 0:
        raise ValueError(f"mu must be positive, got {mu}")
    arr = np.asarray(s, dtype=float)
    if np.any(arr < 1):
        raise ValueError("s must be >= 1")
    lhs = arr ** (-mu) * np.log(arr)
    bound = 1.0 / (math.e * mu)
    return (float(lhs) if arr.ndim == 0 else lhs), bound


def source_dual_norm(u: ModalField, params: ModelParams) -> float:
    """||f(u)||_{g/(g-1)} with f the log source, by grid quadrature."""
    params.check_dim(u.domain.dim)
    _require_finite(u, "u")
    g = params.gamma
    q = g / (g - 1.0)
    # an overflowing integrand is reported by the finiteness test below
    with np.errstate(over="ignore", invalid="ignore"):
        integrand, log_a, small = _pow_log(synthesize(u.domain, u.coeffs), g - 1.0)
        integrand *= log_a
        np.abs(integrand, out=integrand)
        np.power(integrand, q, out=integrand)
        integrand[small] = 0.0
        total = u.domain.quad_weight * float(np.sum(integrand))
    if not math.isfinite(total):
        raise ValueError("non-finite integrand in dual-norm quadrature")
    return total ** (1.0 / q)
