"""IMEX time integration of the Galerkin system in modal coordinates.

Testing the weak form against each eigenfunction reduces the PDE to one
ODE per mode,

    a_k'' + lambda_k a_k' + lambda_k a_k = F_k(a),

where F_k is the modal projection of the logarithmic source evaluated
pseudospectrally.  The stiff linear part (stiffness grows like the largest
eigenvalue) is advanced by the trapezoidal rule, an unconditionally stable
per-mode 2x2 solve that is diagonal in the eigenbasis.  The source is
explicit: IMEX2 extrapolates the two most recent evaluations to the step
midpoint (3/2 F^n - 1/2 F^(n-1), second order; the first step, having no
history, is an IMEX1 step), IMEX1 uses the current value.

The integrator maintains a discrete energy ledger: the accumulated
dissipation integral of ||grad u_t||^2 (trapezoidal, matching the scheme's
order) and the residual of E(t) + integral - E(0), which would vanish for
the exact flow and is O(dt^2) for the scheme.

The time loop runs on the raw coefficient arrays of u and u_t, with the last
source, the ledger and the last ||grad u_t||^2 as locals; ``ModalField`` and
``SimState`` are built only at reports and for the final state.  The blow-up
scan decides from ||grad u||^2 and ||grad u_t||^2, which the loop computes
once per step (the second feeds the ledger).  A sum of non-negative terms is
finite only when every coefficient is, so the two ``isfinite`` passes run
only once a norm is not finite: at m=8 the loop is bound by the cost of each
NumPy call, not by arithmetic.  Every step and report synthesizes u and
takes its pointwise logs in the domain's ``scratch``, so the loop allocates
no grid-sized array: at m=16 a 32^3 grid is 256 kB, above the allocator's
trim threshold, and fresh grid arrays were mapped anew from the operating
system on every step.
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

SCHEMES = ("IMEX2", "IMEX1")


class InitialEnergyError(ValueError):
    """Raised by ``integrate`` when E(0) is not finite."""


@dataclass(frozen=True)
class SolverConfig:
    dt: float = 1e-3
    t_end: float = 20.0
    scheme: str = "IMEX2"
    blowup_threshold: float = 1e8
    report_every: int = 10

    def __post_init__(self):
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not (self.t_end > 0 and math.isfinite(self.t_end)):
            raise ValueError(f"t_end must be positive, got {self.t_end}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if not self.blowup_threshold > 1:
            raise ValueError(f"blowup_threshold must be > 1, got {self.blowup_threshold}")
        if self.report_every < 1:
            raise ValueError(f"report_every must be >= 1, got {self.report_every}")


@dataclass(frozen=True)
class SimState:
    """State (u, u_t) plus the discrete dissipation ledger."""

    u: ModalField
    ut: ModalField
    t: float = 0.0
    damping_integral: float = 0.0


@dataclass
class IntegrationResult:
    reports: list[EnergyReport]
    final: SimState
    status: str
    t_max: float | None = None
    states: list[SimState] | None = None


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
    """Per-mode coefficients of one trapezoidal step of the linear part,
    cached per dt in ``domain.step_cache``.

    The 2x2 solve of  a' = b,  b' = -lambda (a + b) + f  gives
    a_new = aa a + ab b + af f  and  b_new = ba a + bb b + bf f.
    """
    cached = domain.step_cache.get(dt)
    if cached is not None:
        return cached
    half = 0.5 * dt * domain.eigenvalues
    quarter = 0.5 * dt * half
    det = 1.0 + half + quarter
    ab = bf = dt / det
    coeffs = (
        (1.0 + half - quarter) / det, ab, 0.5 * dt * dt / det,
        -2.0 * half / det, (1.0 - half - quarter) / det, bf,
    )
    for c in coeffs:
        c.flags.writeable = False
    domain.step_cache[dt] = coeffs
    return coeffs


def step(domain: DomainSpec, a: np.ndarray, b: np.ndarray, f_prev: np.ndarray | None,
         cfg: SolverConfig, params: ModelParams,
         ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Advance the coefficients (a, b) of (u, u_t) by one time step.

    ``f_prev`` is the source of the previous step (None before the first);
    the returned ``f_now`` is the source at ``a``, None with the source off.
    The returned arrays are fresh; the grid work is done in ``domain.scratch``.
    """
    aa, ab, af, ba, bb, bf = _trapezoid(domain, cfg.dt)
    a_new = aa * a + ab * b
    b_new = ba * a + bb * b
    if not params.source_enabled:
        return a_new, b_new, None
    scratch = domain.scratch
    # the modal projection F = P_band f(u) of the source in the eigenbasis
    u = synthesize(domain, a, out=scratch[0])
    f_now = analyze(domain, source_eval(u, params.gamma, scratch[1:]))
    if cfg.scheme == "IMEX2" and f_prev is not None:
        f_star = 1.5 * f_now - 0.5 * f_prev
    else:
        f_star = f_now
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
    status when the divergence detector fires; the first offending time is
    recorded as the maximal-existence-time estimate.  An E(0) that is not
    finite raises ``InitialEnergyError``: the energy ledger is relative to it.
    """
    if u0.domain != u1.domain:
        raise ValueError("u0 and u1 live on different domains")
    dom = u0.domain
    state = SimState(u=u0, ut=u1)
    # an overflowing E(0) is reported by the test below, not by warnings
    with np.errstate(over="ignore", invalid="ignore"):
        rep0 = energy(u0, u1, params)
    if not math.isfinite(rep0.E):
        raise InitialEnergyError(f"initial energy E(0) = {rep0.E!r} is not finite")
    reports = [rep0]
    states = [state] if store_states else None

    a, b, f, damp = u0.coeffs, u1.coeffs, None, 0.0
    grad_ut_sq = coeff_grad_norm_sq(dom, b)
    n_steps = round(cfg.t_end / cfg.dt)
    for n in range(1, n_steps + 1):
        a, b, f = step(dom, a, b, f, cfg, params)
        grad_ut_prev, grad_ut_sq = grad_ut_sq, coeff_grad_norm_sq(dom, b)
        damp += 0.5 * cfg.dt * (grad_ut_prev + grad_ut_sq)
        status = blowup_scan(a, b, coeff_grad_norm_sq(dom, a), grad_ut_sq,
                             cfg.blowup_threshold)
        if status == RUNNING and n % cfg.report_every and n != n_steps:
            continue
        state = SimState(ModalField(dom, a), ModalField(dom, b), n * cfg.dt, damp)
        if status == BLOWUP:
            return IntegrationResult(reports=reports, final=state, status=BLOWUP,
                                     t_max=state.t, states=states)
        rep = energy(state.u, state.ut, params)
        reports.append(replace(rep, t=state.t, damping_integral=damp,
                               identity_residual=rep.E + damp - rep0.E))
        if states is not None:
            states.append(state)
    return IntegrationResult(reports=reports, final=state, status=COMPLETED,
                             states=states)
