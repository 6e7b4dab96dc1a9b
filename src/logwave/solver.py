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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .domain import DomainSpec, ModalField, analyze, grad_norm_sq, synthesize
from .functionals import EnergyReport, ModelParams, energy, source_eval

RUNNING = "RUNNING"
COMPLETED = "COMPLETED"
BLOWUP = "BLOWUP"

SCHEMES = ("IMEX2", "IMEX1")


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
    """State (u, u_t) plus the discrete dissipation ledger.

    ``source_prev`` carries the previous source evaluation for the IMEX2
    extrapolation; it is None before the first step.
    """

    u: ModalField
    ut: ModalField
    t: float = 0.0
    damping_integral: float = 0.0
    step_count: int = 0
    source_prev: ModalField | None = None


@dataclass
class IntegrationResult:
    reports: list[EnergyReport]
    final: SimState
    status: str
    t_max: float | None = None
    states: list[SimState] | None = None


def _adopt(domain: DomainSpec, coeffs: np.ndarray) -> ModalField:
    """Wrap a freshly computed array that nothing else references, without a copy."""
    coeffs.flags.writeable = False
    return ModalField(domain, coeffs)


def rhs_nonlinear(u: ModalField, params: ModelParams) -> ModalField:
    """Modal projection of the source: F = P_band f(u) in the eigenbasis."""
    values = source_eval(synthesize(u.domain, u.coeffs), params.gamma)
    return _adopt(u.domain, analyze(u.domain, values))


def blowup_scan(state: SimState, threshold: float) -> str:
    """BLOWUP iff a coefficient is non-finite or ||grad u||_2 exceeds threshold."""
    if not (state.u.is_finite and state.ut.is_finite):
        return BLOWUP
    # a float product saturates to inf where ** raises OverflowError
    if grad_norm_sq(state.u) > threshold * threshold:
        return BLOWUP
    return RUNNING


@lru_cache(maxsize=16)
def _trapezoid(domain: DomainSpec, dt: float) -> tuple[np.ndarray, ...]:
    """Per-mode coefficients of one trapezoidal step of the linear part.

    The 2x2 solve of  a' = b,  b' = -lambda (a + b) + f  gives
    a_new = aa a + ab b + af f  and  b_new = ba a + bb b + bf f.
    """
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
    return coeffs


def step(state: SimState, cfg: SolverConfig, params: ModelParams) -> SimState:
    """Advance one time step; pure function of the state."""
    dom = state.u.domain
    aa, ab, af, ba, bb, bf = _trapezoid(dom, cfg.dt)
    a = state.u.coeffs
    b = state.ut.coeffs
    a_new = aa * a + ab * b
    b_new = ba * a + bb * b

    if params.source_enabled:
        f_now = rhs_nonlinear(state.u, params)
        if cfg.scheme == "IMEX2" and state.source_prev is not None:
            f_star = 1.5 * f_now.coeffs - 0.5 * state.source_prev.coeffs
        else:
            f_star = f_now.coeffs
        a_new += af * f_star
        b_new += bf * f_star
    else:
        f_now = None

    ut_new = _adopt(dom, b_new)
    damp = state.damping_integral + 0.5 * cfg.dt * (
        grad_norm_sq(state.ut) + grad_norm_sq(ut_new)
    )
    count = state.step_count + 1
    return SimState(
        u=_adopt(dom, a_new), ut=ut_new, t=count * cfg.dt, damping_integral=damp,
        step_count=count, source_prev=f_now,
    )


def _report(state: SimState, params: ModelParams, e0: float) -> EnergyReport:
    rep = energy(state.u, state.ut, params)
    return replace(
        rep,
        t=state.t,
        damping_integral=state.damping_integral,
        identity_residual=rep.E + state.damping_integral - e0,
    )


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
    recorded as the maximal-existence-time estimate.
    """
    if u0.domain != u1.domain:
        raise ValueError("u0 and u1 live on different domains")
    state = SimState(u=u0, ut=u1)
    rep0 = _report(state, params, e0=0.0)
    e0 = rep0.E
    rep0 = replace(rep0, identity_residual=0.0)
    reports = [rep0]
    states = [state] if store_states else None

    n_steps = round(cfg.t_end / cfg.dt)
    for n in range(1, n_steps + 1):
        state = step(state, cfg, params)
        if blowup_scan(state, cfg.blowup_threshold) == BLOWUP:
            return IntegrationResult(
                reports=reports, final=state, status=BLOWUP,
                t_max=state.t, states=states,
            )
        if n % cfg.report_every == 0 or n == n_steps:
            reports.append(_report(state, params, e0))
            if states is not None:
                states.append(state)
    return IntegrationResult(reports=reports, final=state, status=COMPLETED,
                             states=states)
