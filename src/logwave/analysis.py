"""Post-processing of trajectories: the decay fit, identity and bound checks.

All checks operate on report samples; time integrals use the trapezoidal
rule on the report grid, so their accuracy is set by the report spacing
(keep report_every * dt small, of the order of ten steps, when these
residuals matter).  The virial identity is checked on every interval
between two reports at once, from one cumulative sum.  There is one decay
fit, ``fit_decay(reports)``, with a fixed window; the library, the check
table and the summary all read it.

``CHECKS`` is the verification table: one row per invariant with its name,
mandatory flag, tolerance and measure.  ``run_checks`` evaluates it for the
CLI, and the acceptance tests call the same measures.
"""

from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass, fields
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .domain import (DomainSpec, ModalField, coeff_grad_norm_sq, coeff_l2_norm_sq, l2_norm_sq,
                     poincare_constant, random_band_limited)
from .functionals import EnergyReport, ModelParams, square, uniform_bound_constant
from .solver import BLOWUP, COMPLETED, SolverConfig, integrate
from .well import IN, StableSetVerdict

# absolute energy floor: a decay fit needs ten window samples above it (the
# fit itself takes every positive sample), and the integral-bound estimates
# read only the samples at or above it
ENERGY_FLOOR = 1e-14


class FitError(RuntimeError):
    """Raised when a decay fit has too few usable samples."""


@dataclass(frozen=True)
class DecayFit:
    """Log-linear fit E(t) ~ C1 exp(-C2 t) over the window of ``fit_decay``."""

    C1: float
    C2: float
    window: tuple[float, float]
    r_squared: float
    n_samples: int


@dataclass(frozen=True)
class EstimateSuite:
    """Observable estimates of the decay-chain constants along one run.

    delta_hat: largest delta with I >= delta ||grad u||^2 observed, capped
        at 1 (small fields have I > ||grad u||^2 because the log integrand
        is negative below unit amplitude, while the decay argument only
        needs some delta in (0, 1)).
    c0_hat: max over every admissible S (a report time up to T/2, before
        the last report, with E above the energy floor) of the ratio
        (integral of E over [S, T]) / E(S); n_s_samples counts those S.
    cw_hat: max observed ||u||_g^g / ||grad u||^2.
    poincare_margin: max observed ||u_t||_2 / (C_P ||grad u_t||_2) over the
        samples whose ||grad u_t|| is nonzero or NaN; None if there are none.
    m_hat: energy-domination constant assembled from the estimates above.
    """

    delta_hat: float
    c0_hat: float
    cw_hat: float
    poincare_margin: float | None
    m_hat: float
    n_s_samples: int


def _column(reports: list[EnergyReport], name: str) -> np.ndarray:
    return np.array([getattr(r, name) for r in reports], dtype=float)


def _columns(reports: list[EnergyReport]) -> dict[str, np.ndarray]:
    return {f.name: _column(reports, f.name) for f in fields(EnergyReport)}


def _loglinear_fit(t: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least-squares line ln y = slope t + intercept; returns it with R^2."""
    ln_y = np.log(y)
    design = np.vstack([t, np.ones_like(t)]).T
    (slope, intercept), *_ = np.linalg.lstsq(design, ln_y, rcond=None)
    pred = design @ (slope, intercept)
    ss_res = float(np.sum((ln_y - pred) ** 2))
    ss_tot = float(np.sum((ln_y - ln_y.mean()) ** 2))
    r_squared = 1.0 if ss_tot < 1e-30 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r_squared


def fit_decay(reports: list[EnergyReport]) -> DecayFit:
    """Least-squares line on (t, ln E) over the window [0.1, 0.75] * t_end.

    The window skips the initial transient.  Every positive, finite sample
    in it enters the regression: the decay tail of a resolved run is
    accurate far below the floor, and leaving it out biases the fit.  At
    least ten of the samples must lie above ``ENERGY_FLOOR``, else
    ``FitError``.
    """
    t, E = _column(reports, "t"), _column(reports, "E")
    t_end = t[-1] if len(t) else 0.0
    window = (0.1 * t_end, 0.75 * t_end)
    in_window = (t >= window[0]) & (t <= window[1])
    if int(np.sum(in_window & (E > ENERGY_FLOOR))) < 10:
        raise FitError(
            f"need >= 10 samples with E > {ENERGY_FLOOR:g} in window {window}"
        )
    keep = in_window & (E > 0.0) & np.isfinite(E)
    slope, intercept, r_squared = _loglinear_fit(t[keep], E[keep])
    return DecayFit(float(np.exp(intercept)), -slope, window, r_squared, int(np.sum(keep)))


def _energy_scale(reports: list[EnergyReport]) -> float:
    """max(E(0), 1e-30), or NaN when E(0) is not finite so that every check
    measured relative to it fails."""
    e0 = reports[0].E
    return max(e0, 1e-30) if math.isfinite(e0) else math.nan


def check_energy_identity(reports: list[EnergyReport]) -> float:
    """Max |E(t) + dissipation ledger - E(0)| relative to ``_energy_scale``."""
    if not reports:
        raise ValueError("empty trajectory")
    return float(np.max(np.abs(_column(reports, "identity_residual")))) / _energy_scale(reports)


def check_virial_identity(reports: list[EnergyReport]) -> float:
    """Worst residual over every report interval of the identity obtained by
    pairing the equation with u.

    Over an interval [t_i, t_j] of the report grid the identity reads

        int I dt = int ||u_t||^2 dt - [ (u_t, u) + 1/2 ||grad u||^2 ]_i^j,

    both integrals by trapezoid.  With C the cumulative trapezoid of
    g = I - ||u_t||^2 (C = 0 at the first report) and
    F = C + (u_t, u) + 1/2 ||grad u||^2, the residual on [t_i, t_j] is
    exactly F_j - F_i, so the worst interval reads max F - min F.  Returns
    that relative to ``_energy_scale``.
    """
    if len(reports) < 2:
        raise ValueError("need at least two reports")
    c = _columns(reports)
    g = c["I"] - 2.0 * c["kinetic"]
    F = np.concatenate(([0.0], np.cumsum(np.diff(c["t"]) * (g[1:] + g[:-1]) / 2.0)))
    F += c["cross_term"] + 0.5 * c["grad_sq"]
    return float(F.max() - F.min()) / _energy_scale(reports)


def check_integral_bound(
    reports: list[EnergyReport],
    domain: DomainSpec,
    params: ModelParams,
) -> EstimateSuite:
    """Estimate the decay-chain constants from one completed stable run.

    T is the final report time.  One reverse cumulative trapezoid gives
    the integral of E over [S, T] at every report, so c0_hat is the exact
    maximum over the admissible S (see ``EstimateSuite``).
    """
    c = _columns(reports)
    t, E, I, grad, lg = c["t"], c["E"], c["I"], c["grad_sq"], c["lgamma"]
    valid = E >= ENERGY_FLOOR

    pos = valid & (grad > 0)
    delta_hat = float(np.min(I[pos] / grad[pos], initial=1.0)) if pos.any() else float("nan")
    cw_hat = float(np.max(lg[pos] / grad[pos])) if pos.any() else float("nan")

    gut = c["grad_ut_sq"]
    vel = gut != 0
    # inf / inf and the root of a negative give nan, a FAIL rather than a warning
    with np.errstate(over="ignore", invalid="ignore"):
        poincare_margin = (float(np.max(np.sqrt(2.0 * c["kinetic"][vel] / gut[vel]))
                                 / poincare_constant(domain)) if vel.any() else None)

    admissible = valid & (t <= t[-1] / 2.0)
    admissible[-1] = False
    # the integral of E over [t_i, T] at every report i; E = inf gives
    # inf / inf = nan, a FAIL rather than a warning
    with np.errstate(invalid="ignore"):
        seg = np.diff(t) * (E[1:] + E[:-1]) / 2.0
        tail = np.append(np.cumsum(seg[::-1])[::-1], 0.0)
        ratios = tail[admissible] / E[admissible]
    c0_hat = float(np.max(ratios)) if ratios.size else float("nan")

    g = params.gamma
    if math.isfinite(delta_hat) and delta_hat > 0 and math.isfinite(cw_hat):
        m_hat = 0.5 + (g - 2.0) / (2.0 * g * delta_hat) + 1.0 / g + cw_hat / (square(g) * delta_hat)
    else:
        m_hat = float("nan")
    return EstimateSuite(
        delta_hat=delta_hat, c0_hat=c0_hat, cw_hat=cw_hat,
        poincare_margin=poincare_margin, m_hat=m_hat, n_s_samples=ratios.size,
    )


# ---------------------------------------------------------------------------
# verification table

@dataclass(frozen=True)
class CheckInput:
    """A trajectory as the check table reads it.  Without an IN stable-set
    verdict the invariance rows are skipped; the estimate suite and the
    decay fit are computed once, on first use."""

    reports: list[EnergyReport]
    domain: DomainSpec
    params: ModelParams
    verdict: StableSetVerdict | None = None

    @property
    def stable(self) -> bool:
        return self.verdict is not None and self.verdict.status == IN

    @property
    def e_scale(self) -> float:
        return _energy_scale(self.reports)

    @cached_property
    def suite(self) -> EstimateSuite:
        return check_integral_bound(self.reports, self.domain, self.params)

    @cached_property
    def fit(self) -> DecayFit | None:
        try:
            return fit_decay(self.reports)
        except FitError:
            return None


class Check(NamedTuple):
    """A row of the check table: SKIP when ``measure`` returns None, else
    PASS when ``compare(measured, tolerance)`` holds.  A callable tolerance
    is read off the CheckInput."""

    name: str
    mandatory: bool
    tolerance: float | None | Callable[[CheckInput], float | None]
    compare: Callable[[float, float | None], bool]
    measure: Callable[[CheckInput], float | None]


def _finite(measured: float, _tolerance: None) -> bool:
    return math.isfinite(measured)


def _max_energy_rise(run: CheckInput) -> float:
    # rows of E = inf give inf - inf = nan, a FAIL rather than a warning
    with np.errstate(invalid="ignore"):
        rises = np.diff([r.E for r in run.reports])
    return (float(np.max(rises)) if rises.size else 0.0) / run.e_scale


def _uniform_bound(run: CheckInput) -> float:
    kinetic, grad_sq, lgamma = (_column(run.reports, name) for name in ("kinetic", "grad_sq", "lgamma"))
    # overflowing rows give inf, and inf - inf gives nan: a FAIL, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.max(uniform_bound_constant(run.params.gamma)
                            * (2.0 * kinetic + grad_sq + lgamma) / run.e_scale))


# The measures look the check functions up by module-global name at call
# time, so that rebinding a name (to trace it, say) also reaches the table.
CHECKS = (
    Check("energy_identity", True, 1e-4, operator.le,
          lambda run: check_energy_identity(run.reports)),
    Check("monotone_dissipation", True, 1e-10, operator.le, _max_energy_rise),
    Check("invariance_I_positive", True, 0.0, operator.gt,
          lambda run: float(np.min(_column(run.reports, "I"))) if run.stable else None),
    Check("invariance_E_below_threshold", True,
          lambda run: run.verdict.threshold if run.stable else None, operator.lt,
          lambda run: float(np.max(_column(run.reports, "E"))) if run.stable else None),
    Check("uniform_bound", True, 1.0, operator.lt,
          lambda run: _uniform_bound(run) if run.stable else None),
    Check("virial_identity", True, 1e-3, operator.le,
          lambda run: check_virial_identity(run.reports) if len(run.reports) > 1 else None),
    Check("poincare_margin", True, 1.0 + 1e-10, operator.le,
          lambda run: run.suite.poincare_margin),
    Check("integral_bound_finite", False, None, _finite,
          lambda run: run.suite.c0_hat if run.suite.n_s_samples else None),
    Check("decay_rate_positive", False, 0.0, operator.gt,
          lambda run: run.fit.C2 if run.fit else None),
    Check("decay_fit_r_squared", False, 0.99, operator.ge,
          lambda run: run.fit.r_squared if run.fit else None),
)


def run_checks(reports, domain, params, verdict=None) -> tuple[list[dict], dict]:
    """Evaluate the check table on a trajectory; ``verdict`` (a
    StableSetVerdict) enables the invariance rows.  Returns (checks, extras),
    extras holding the estimate suite and the decay fit for the summary."""
    run = CheckInput(reports, domain, params, verdict)
    checks = []
    for row in CHECKS:
        measured = row.measure(run)
        tolerance = row.tolerance(run) if callable(row.tolerance) else row.tolerance
        status = ("SKIP" if measured is None
                  else "PASS" if row.compare(measured, tolerance) else "FAIL")
        checks.append({"name": row.name, "status": status, "measured": measured,
                       "tolerance": tolerance, "mandatory": row.mandatory})
    return checks, {"estimates": asdict(run.suite),
                    "decay_fit": asdict(run.fit) if run.fit else None}


def mandatory_ok(checks: list[dict]) -> bool:
    return all(c["status"] != "FAIL" for c in checks if c["mandatory"])


@dataclass(frozen=True)
class DependenceReport:
    """Growth of the difference D(t) = ||z_t||^2 + ||grad z||^2 under an
    initial perturbation of size epsilon, one row per epsilon."""

    times: tuple[float, ...]
    epsilons: tuple[float, ...]
    D: tuple[tuple[float, ...], ...]           # D_eps(t) per epsilon
    D_over_eps_sq: tuple[tuple[float, ...], ...]
    growth_rate: float                          # slope of ln D fit, largest |eps|
    growth_r_squared: float
    status: str


def continuous_dependence(
    u0: ModalField,
    u1: ModalField,
    cfg: SolverConfig,
    params: ModelParams,
    epsilons: tuple[float, ...],
    seed: int,
) -> DependenceReport:
    """Compare the base trajectory against perturbed ones.

    The perturbation direction is one random band-limited field normalized
    to unit gradient norm, scaled by each epsilon and added TO u0.  With
    epsilon = 0 the perturbed run reproduces the base run exactly (the
    integrator is a deterministic function of its inputs).  The growth rate
    is fitted on the row of the largest |epsilon|, whatever the order of
    ``epsilons``.
    """
    if not epsilons:
        raise ValueError("epsilons must hold at least one epsilon")
    for eps in epsilons:
        if not math.isfinite(eps) or (eps and eps * eps == 0.0):
            raise ValueError(f"epsilon {eps!r} must be finite, with a nonzero square if nonzero")
    base = integrate(u0, u1, cfg, params, store_states=True)
    status, times, d_rows = base.status, (), []
    if status == COMPLETED:
        dom = u0.domain
        direction = random_band_limited(dom, np.random.default_rng(seed)).coeffs
        direction = (1.0 / math.sqrt(coeff_grad_norm_sq(dom, direction))) * direction
        times = tuple(r.t for r in base.reports)
        for eps in epsilons:
            pert = integrate(ModalField(dom, u0.coeffs + eps * direction), u1, cfg, params,
                             store_states=True)
            status = pert.status
            if status != COMPLETED:
                break
            d_rows.append(tuple(coeff_l2_norm_sq(dom, ut_p.coeffs - ut_b.coeffs)
                                + coeff_grad_norm_sq(dom, u_p.coeffs - u_b.coeffs)
                                for (u_b, ut_b), (u_p, ut_p) in zip(base.states, pert.states)))
            # the next run starts with only the base trajectory held
            del pert

    rate = r2 = float("nan")
    if status == COMPLETED and d_rows:
        # the row of the largest |epsilon|, the first such row on a tie
        largest = max(range(len(d_rows)), key=lambda i: abs(epsilons[i]))
        fitted = np.array(d_rows[largest])
        tt = np.array(times)
        mask = (fitted > 0) & (tt > 0)
        if mask.sum() >= 3:
            rate, _, r2 = _loglinear_fit(tt[mask], fitted[mask])
    ratio_rows = tuple(tuple(d / eps ** 2 if eps else 0.0 for d in row)
                       for eps, row in zip(epsilons, d_rows))
    return DependenceReport(times, tuple(epsilons), tuple(d_rows), ratio_rows,
                            rate, r2, status)


@dataclass(frozen=True)
class ConvergenceStudy:
    """Refinement of the modal band at fixed physical parameters."""

    m_list: tuple[int, ...]
    E_end: tuple[float, ...]
    u_l2_end: tuple[float, ...]
    projection_loss: tuple[float, ...]   # L2 norm of initial data outside each band
    E_diffs: tuple[float, ...]
    passed: bool
    status: str
    failed_level: int | None = None


def _reband(f: ModalField, target: DomainSpec) -> tuple[ModalField, float]:
    """Project a field onto another band of the same box; returns the loss."""
    src = f.domain
    if (src.dim, src.length) != (target.dim, target.length):
        raise ValueError("bands must share the physical box")
    m_src, m_tgt = src.modes_per_dim, target.modes_per_dim
    keep = min(m_src, m_tgt)
    out = np.zeros(target.modal_shape)
    sl = (slice(0, keep),) * src.dim
    out[sl] = f.coeffs[sl]
    dropped = f.coeffs.copy()
    dropped[sl] = 0.0
    loss = math.sqrt(float(np.sum(dropped ** 2)) * src.mode_norm_sq)
    return ModalField(target, out), loss


def convergence_study(
    u0: ModalField,
    u1: ModalField,
    cfg: SolverConfig,
    params: ModelParams,
    m_list: list[int],
) -> ConvergenceStudy:
    """Run the same problem at increasing modal resolution.

    The study passes when the last two successive differences of E(t_end)
    are nonincreasing; a blow-up at any level fails the study outright.
    """
    if len(m_list) < 2 or any(b <= a for a, b in zip(m_list, m_list[1:])):
        raise ValueError("m_list must be strictly increasing with >= 2 levels")
    src = u0.domain
    e_end, u_end, losses = [], [], []
    diffs, passed, failed_level = [], False, None
    for level, m in enumerate(m_list):
        dom = DomainSpec(src.dim, src.length, m, src.oversample)
        v0, loss0 = _reband(u0, dom)
        v1, _ = _reband(u1, dom)
        result = integrate(v0, v1, cfg, params)
        if result.status == BLOWUP:
            failed_level = level
            break
        e_end.append(result.reports[-1].E)
        u_end.append(math.sqrt(l2_norm_sq(result.u)))
        losses.append(loss0)
    else:
        diffs = [abs(b - a) for a, b in zip(e_end, e_end[1:])]
        # vacuously true for two-level studies, which carry a single difference
        passed = all(b <= a for a, b in zip(diffs[-2:-1], diffs[-1:]))
    return ConvergenceStudy(
        m_list=tuple(m_list), E_end=tuple(e_end), u_l2_end=tuple(u_end),
        projection_loss=tuple(losses), E_diffs=tuple(diffs), passed=passed,
        status=COMPLETED if failed_level is None else BLOWUP, failed_level=failed_level,
    )
