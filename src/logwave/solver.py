"""IMEX time integration of the Galerkin system in modal coordinates.

Testing the weak form against each eigenfunction reduces the PDE to one
ODE per mode,

    a_k'' + lambda_k a_k' + lambda_k a_k = F_k(a),

where F_k is the modal projection of the logarithmic source evaluated
pseudospectrally; ``source_projection`` is the one place F(a) is computed.
The stiff linear part (stiffness grows like the largest eigenvalue) is
advanced by the trapezoidal rule, an unconditionally stable per-mode 2x2
solve that is diagonal in the eigenbasis.  The source is explicit,
extrapolated to the step midpoint as 3/2 F^n - 1/2 F^(n-1) (Crank-Nicolson/
Adams-Bashforth, second order); the first step takes F^0.

The integrator maintains a discrete energy ledger: the accumulated
dissipation integral of ||grad u_t||^2 (trapezoidal, matching the scheme's
order) and the residual of E(t) + integral - E(0), which would vanish for
the exact flow and is O(dt^2) for the scheme.

The time loop runs on the raw coefficient arrays of u and u_t, with the last
source, the ledger, the last ||grad u_t||^2 and the step coefficients as
locals; ``ModalField`` is built only at reports and at a blow-up.  The blow-up
scan decides from ||grad u||^2 and ||grad u_t||^2, which the loop computes
once per step (the second feeds the ledger).  A sum of non-negative terms is
finite only when every coefficient is, so the two ``isfinite`` passes run
only once a norm is not finite: at m=8 the loop is bound by the cost of each
NumPy call, not by arithmetic.  Every step (through ``source_projection``)
and report synthesizes u and takes its pointwise logs in the domain's
``scratch``, so the loop allocates no grid-sized array: at m=16 a 32^3 grid
is 256 kB, above the allocator's trim threshold, and fresh grid arrays were
mapped anew from the operating system on every step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .domain import DomainSpec, ModalField, analyze, coeff_grad_norm_sq, synthesize
from .functionals import EnergyReport, ModelParams, energy, source_eval

RUNNING = "RUNNING"
COMPLETED = "COMPLETED"
BLOWUP = "BLOWUP"


class InitialEnergyError(ValueError):
    """Raised by ``integrate`` when E(0) is not finite."""


@dataclass(frozen=True)
class SolverConfig:
    dt: float = 1e-3
    t_end: float = 20.0
    blowup_threshold: float = 1e8
    report_every: int = 10

    def __post_init__(self):
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not (self.t_end > 0 and math.isfinite(self.t_end)):
            raise ValueError(f"t_end must be positive, got {self.t_end}")
        # integrate takes round(t_end / dt) steps and would silently move any other
        # t_end, or take none when t_end / dt underflows
        n_steps = self.t_end / self.dt
        if not (math.isfinite(n_steps) and round(n_steps) >= 1
                and math.isclose(n_steps, round(n_steps), rel_tol=1e-9)):
            raise ValueError(f"t_end ({self.t_end!r}) must be a whole number of dt ({self.dt!r}) steps")
        if not self.blowup_threshold > 1:
            raise ValueError(f"blowup_threshold must be > 1, got {self.blowup_threshold}")
        if self.report_every < 1:
            raise ValueError(f"report_every must be >= 1, got {self.report_every}")


@dataclass(frozen=True)
class IntegrationResult:
    """One trajectory: its reports, its status and its last state (u, ut).

    The last state is the last report's, or after a BLOWUP the state at
    ``t_max``, the blow-up step's time (None for a completed run).  Under
    ``store_states``, ``states`` holds each report's (u, ut) pair.
    """

    reports: list[EnergyReport]
    status: str
    u: ModalField
    ut: ModalField
    t_max: float | None
    states: list[tuple[ModalField, ModalField]] | None


def blowup_scan(a: np.ndarray, b: np.ndarray, grad_sq: float, grad_ut_sq: float,
                threshold: float) -> str:
    """BLOWUP iff a coefficient is non-finite or ||grad u||_2 exceeds threshold.

    ``grad_sq`` and ``grad_ut_sq`` are ``coeff_grad_norm_sq`` of a and b.
    Their terms are non-negative and the eigenvalues positive, so a sum is
    finite only when every coefficient is; the two ``isfinite`` passes run
    only when a sum is not, to tell a non-finite coefficient from a sum of
    finite ones that overflowed.
    """
    if not (math.isfinite(grad_sq) and math.isfinite(grad_ut_sq)):
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            return BLOWUP
    # a float product saturates to inf where ** raises OverflowError
    if grad_sq > threshold * threshold:
        return BLOWUP
    return RUNNING


def _trapezoid(domain: DomainSpec, dt: float) -> tuple[np.ndarray, ...]:
    """Per-mode coefficients of one trapezoidal step of the linear part.

    The 2x2 solve of  a' = b,  b' = -lambda (a + b) + f  gives
    a_new = aa a + ab b + af f  and  b_new = ba a + bb b + bf f.
    """
    half = 0.5 * dt * domain.eigenvalues
    quarter = 0.5 * dt * half
    det = 1.0 + half + quarter
    ab = bf = dt / det
    return (
        (1.0 + half - quarter) / det, ab, 0.5 * dt * dt / det,
        -2.0 * half / det, (1.0 - half - quarter) / det, bf,
    )


def source_projection(domain: DomainSpec, a: np.ndarray, gamma: float) -> np.ndarray:
    """F(a), the modal projection P_band f(u) of the source at coefficients a.

    u is synthesized into ``domain.scratch[0]`` and its pointwise logs are
    taken in ``scratch[1:]``; the returned modal array is fresh.
    """
    scratch = domain.scratch
    u = synthesize(domain, a, out=scratch[0])
    return analyze(domain, source_eval(u, gamma, scratch[1:]))


def step(domain: DomainSpec, a: np.ndarray, b: np.ndarray, f_prev: np.ndarray | None,
         coeffs: tuple[np.ndarray, ...], params: ModelParams,
         ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Advance the coefficients (a, b) of (u, u_t) by one time step.

    ``coeffs`` is ``_trapezoid(domain, dt)`` for the step's dt.  ``f_prev``
    is the source of the previous step (None before the first); the
    returned ``f_now`` is ``source_projection`` at ``a``, None with the
    source off.  The returned arrays are fresh.
    """
    aa, ab, af, ba, bb, bf = coeffs
    a_new = aa * a + ab * b
    b_new = ba * a + bb * b
    if not params.source_enabled:
        return a_new, b_new, None
    f_now = source_projection(domain, a, params.gamma)
    f_star = f_now if f_prev is None else 1.5 * f_now - 0.5 * f_prev
    a_new += af * f_star
    b_new += bf * f_star
    return a_new, b_new, f_now


def integrate(
    u0: ModalField,
    u1: ModalField,
    cfg: SolverConfig,
    params: ModelParams,
    store_states: bool = False,
) -> IntegrationResult:
    """Run the flow from (u0, u1) to t_end, emitting periodic energy reports.

    A report (and, when requested, a state snapshot) is emitted at t = 0 and
    every ``report_every`` steps.  Integration stops early with BLOWUP
    status when the divergence detector fires; ``t_max`` is then the first
    offending time, the maximal-existence-time estimate, and ``u``, ``ut``
    the state there.
    An E(0) that is not finite raises ``InitialEnergyError``: the energy
    ledger is relative to it.
    """
    dom = u0.domain
    # an overflowing E(0) is reported by the test below, not by warnings
    with np.errstate(over="ignore", invalid="ignore"):
        rep0 = energy(u0, u1, params)
    if not math.isfinite(rep0.E):
        raise InitialEnergyError(f"initial energy E(0) = {rep0.E!r} is not finite")
    reports = [rep0]
    states = [(u0, u1)] if store_states else None

    a, b, f, damp = u0.coeffs, u1.coeffs, None, 0.0
    grad_ut_sq = coeff_grad_norm_sq(dom, b)
    n_steps = round(cfg.t_end / cfg.dt)
    coeffs = _trapezoid(dom, cfg.dt)
    for n in range(1, n_steps + 1):
        a, b, f = step(dom, a, b, f, coeffs, params)
        grad_ut_prev, grad_ut_sq = grad_ut_sq, coeff_grad_norm_sq(dom, b)
        damp += 0.5 * cfg.dt * (grad_ut_prev + grad_ut_sq)
        status = blowup_scan(a, b, coeff_grad_norm_sq(dom, a), grad_ut_sq,
                             cfg.blowup_threshold)
        if status == RUNNING and n % cfg.report_every and n != n_steps:
            continue
        u, ut = ModalField(dom, a), ModalField(dom, b)
        if status == BLOWUP:
            return IntegrationResult(reports, BLOWUP, u, ut, n * cfg.dt, states)
        rep = energy(u, ut, params)
        reports.append(replace(rep, t=n * cfg.dt, damping_integral=damp,
                               identity_residual=rep.E + damp - rep0.E))
        if states is not None:
            states.append((u, ut))
    return IntegrationResult(reports, COMPLETED, u, ut, None, states)
