"""Fibering map, Nehari projection and potential-well depth estimation.

Along the ray lambda -> lambda*u the functionals reduce to closed forms in
the three moments A = ||grad u||^2, B = integral |u|^g ln|u|, G = ||u||_g^g:

    J(lambda u) = lambda^2 A/2 - lambda^g (B + G ln lambda)/g + lambda^g G/g^2
    I(lambda u) = lambda^2 A - lambda^g (B + G ln lambda)

and lambda * dJ/dlambda = I(lambda u), so critical points of the fibering
map are exactly the Nehari points on the ray.  For A > 0, G > 0 the map
rises from 0, attains its supremum and falls to -infinity; the well depth d
is the infimum of that supremum over directions, estimated here from above
by trial families.

The Nehari point on the ray has a closed form.  With k = g - 2, I(lambda u) = 0
reads lambda^k (B + G ln lambda) = A.  Substituting

    w = k ln lambda + kB/G     (so B + G ln lambda = G w / k)

turns it into w e^w = (kA/G) e^(kB/G), that is

    w + ln w = c,    c = ln(kA/G) + kB/G.

A positive right-hand side A forces w > 0, where w + ln w increases from
-infinity to +infinity, so there is exactly one root: w = W0(e^c) on the
principal branch of the Lambert W function (Corless, Gonnet, Hare, Jeffrey
and Knuth, "On the Lambert W function", Adv. Comput. Math. 5, 1996).  Under
u -> s u the moments move as A -> s^2 A, G -> s^g G, B -> s^g (B + G ln s),
so c, and with it w and J(lambda* u), does not depend on the scale s; only
lambda* moves, as 1/s.  The root is found as v = ln w from e^v + v = c by
Newton's method, which never leaves the floating-point range in log space,
and then lambda* = exp((w - kB/G) / k).

The depth is estimated over a trial family read once: ``default_trial_family``
draws its random trials one block of ``TRIAL_BLOCK`` rows at a time, and
``estimate_depth`` projects each trial as it reaches it, so the memory of an
estimate is one block, whatever the number of trials.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .domain import DomainSpec, ModalField, grad_norm_sq
from .functionals import ModelParams, energy, field_log_moments, square


class DegenerateFieldError(ValueError):
    """Raised when a projection target is zero or has no fibering maximum."""


# outcome labels for the stable-set test
IN = "IN"
OUT_I = "OUT_I"
OUT_E = "OUT_E"

# the Newton solve in log space: iteration cap and relative step tolerance
NEWTON_MAX_ITER = 50
NEWTON_RTOL = 4.0 * sys.float_info.epsilon
# lambda*^gamma must stay inside the float range for J(lambda*) to be evaluated
LOG_FLOAT_MAX = math.log(sys.float_info.max)
# random trials drawn per block: the memory of a trial family is one block;
# one draw per trial made welldepth-m8 about 7 % slower
TRIAL_BLOCK = 32


@dataclass(frozen=True)
class FiberMoments:
    """The three integrals determining J and I along a ray."""

    A: float
    B: float
    G: float


@dataclass(frozen=True)
class WellDepthEstimate:
    """Upper estimate of the well depth from a trial family.

    ``trials`` holds one (lambda_star, j_max) pair per trial, in the
    order of the family; ``d_hat`` is the minimum of the fibering suprema.
    """

    d_hat: float
    trials: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class StableSetVerdict:
    status: str  # IN, OUT_I or OUT_E
    I0: float
    E0: float
    threshold: float  # safety * d_hat
    trivial_zero: bool = False


def fiber_moments(u: ModalField, params: ModelParams) -> FiberMoments:
    """The moments (A, B, G) of u, computed in the scratch of u's domain."""
    params.check_dim(u.domain.dim)
    G, B = field_log_moments(u, params.gamma)
    return FiberMoments(A=grad_norm_sq(u), B=B, G=G)


def _positive_lambda(lam) -> np.ndarray:
    lam = np.asarray(lam, dtype=float)
    # min and max are NaN when any entry is, and NaN fails every comparison;
    # a scalar, as every projection passes, skips the two reductions
    if lam.ndim == 0:
        positive = 0.0 < float(lam) < math.inf
    else:
        positive = 0.0 < lam.min() <= lam.max() < math.inf
    if not positive:
        raise ValueError("lambda must be positive and finite")
    return lam


def fiber_J(m: FiberMoments, lam, gamma: float):
    """J(lambda u) from precomputed moments; lambda may be an array."""
    lam = _positive_lambda(lam)
    lg = lam ** gamma
    out = lam ** 2 * m.A / 2.0 - lg * (m.B + m.G * np.log(lam)) / gamma + lg * m.G / square(gamma)
    return float(out) if out.ndim == 0 else out


def fiber_I(m: FiberMoments, lam, gamma: float):
    """I(lambda u) from precomputed moments; lambda may be an array."""
    lam = _positive_lambda(lam)
    out = lam ** 2 * m.A - lam ** gamma * (m.B + m.G * np.log(lam))
    return float(out) if out.ndim == 0 else out


def _project_moments(m: FiberMoments, gamma: float) -> tuple[float, float]:
    if not (math.isfinite(m.A) and math.isfinite(m.B) and math.isfinite(m.G)):
        raise DegenerateFieldError("non-finite fibering moments")
    if m.A <= 0 or m.G <= 0:
        raise DegenerateFieldError(
            f"degenerate trial (A={m.A:g}, G={m.G:g}); projection needs a nonzero field"
        )

    k = gamma - 2.0
    shift = k * m.B / m.G
    c = math.log(k) + math.log(m.A) - math.log(m.G) + shift
    if not math.isfinite(c):
        raise DegenerateFieldError(f"fibering moments out of range (c={c:g})")
    # Newton on the increasing convex f(v) = e^v + v - c, started right of
    # the root: f(v0) >= 0 there, so every iterate stays right of the root
    # and decreases to it, and e^v never exceeds max(c, e)
    v = c if c < 1.0 else math.log(c)
    for _ in range(NEWTON_MAX_ITER):
        ev = math.exp(v)
        step = (ev + v - c) / (ev + 1.0)
        v -= step
        if abs(step) <= NEWTON_RTOL * max(1.0, abs(v)):
            break
    else:
        raise DegenerateFieldError(f"Nehari solve did not converge (c={c:g})")
    log_lambda = (math.exp(v) - shift) / k
    if not gamma * abs(log_lambda) < LOG_FLOAT_MAX:
        raise DegenerateFieldError(f"Nehari point lambda* = exp({log_lambda:g}) out of range")
    lambda_star = math.exp(log_lambda)
    return lambda_star, fiber_J(m, lambda_star, gamma)


def project_to_nehari(u: ModalField, params: ModelParams) -> tuple[float, float]:
    """Global maximizer lambda* of the fibering map and J(lambda* u).

    lambda* is the closed-form root of the module docstring, so
    fiber_I(lambda*) vanishes to roundoff at every scale of u; J at the
    maximizer is positive for every nonzero field.
    """
    return _project_moments(fiber_moments(u, params), params.gamma)


def default_trial_family(
    domain: DomainSpec, count: int, seed: int
) -> tuple[Iterator[ModalField], list[str]]:
    """First eigenfunction plus ``count`` random band-limited trials.

    ``fields`` is a one-pass iterator and ``labels`` the full list.  The
    random trials are drawn as the iterator reaches them, in blocks of at
    most ``TRIAL_BLOCK`` rows from one generator, which give the bits of
    ``count`` sequential ``random_band_limited`` draws from it.  Each block is
    read-only, so each trial's field holds a row of it without a copy, and
    only the block being read is alive: memory is one block, not the family.
    """
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    labels = ["eigenmode-1"] + [f"random-{i:02d}" for i in range(count)]
    return _trial_fields(domain, count, np.random.default_rng(seed)), labels


def _trial_fields(domain: DomainSpec, count: int, rng: np.random.Generator) -> Iterator[ModalField]:
    yield ModalField.eigenmode(domain, (1,) * domain.dim)
    for start in range(0, count, TRIAL_BLOCK):
        block = rng.standard_normal((min(TRIAL_BLOCK, count - start), *domain.modal_shape))
        block.flags.writeable = False
        for row in block:
            yield ModalField(domain, row)


# moments out of float range raise DegenerateFieldError, not numpy warnings
@np.errstate(over="ignore", invalid="ignore")
def estimate_depth(trials: Iterable[ModalField], params: ModelParams) -> WellDepthEstimate:
    """Upper-estimate the well depth as the minimal fibering supremum.

    ``trials`` is any iterable, read once: each trial is projected as it is
    reached, so a one-pass family such as ``default_trial_family``'s is never
    held whole.
    """
    rows = []
    first = None
    for i, trial in enumerate(trials):
        # the trials of one family share one domain object; identity skips
        # the frozen dataclass's field-by-field __eq__
        if first is None:
            first = trial.domain
        elif trial.domain is not first and trial.domain != first:
            raise ValueError("trials live on different domains")
        lambda_star, j_max = project_to_nehari(trial, params)
        if not j_max > 0:
            raise DegenerateFieldError(f"trial {i}: nonpositive fibering supremum")
        rows.append((lambda_star, j_max))
    if not rows:
        raise ValueError("trial family is empty")
    d_hat = min(j_max for _, j_max in rows)
    return WellDepthEstimate(d_hat=d_hat, trials=tuple(rows))


def stable_set_check(
    u0: ModalField,
    u1: ModalField,
    d_hat: float,
    safety: float,
    params: ModelParams,
) -> StableSetVerdict:
    """Test I(u0) > 0 and E(0) < safety * d_hat.

    ``safety`` is the factor theta in (0, 1] applied to d_hat, which only
    bounds the true depth from above, so the verdict is a suggestion, not a
    certificate, and not even conservative: at gamma >= 4.5 it says IN for
    data that blow up (the strict xfail test_in_verdict_data_do_not_blow_up
    in tests/test_well.py).  The zero field is excluded from the stable set
    by convention (it is the trivial solution); the verdict flags it.
    """
    if not d_hat > 0:
        raise ValueError(f"d_hat must be positive, got {d_hat}")
    if not 0 < safety <= 1:
        raise ValueError(f"safety must lie in (0, 1], got {safety}")
    report = energy(u0, u1, params)
    I0 = report.I
    E0 = report.E
    threshold = safety * d_hat
    trivial = not np.any(u0.coeffs)
    if trivial or I0 <= 0:
        status = OUT_I
    elif E0 >= threshold:
        status = OUT_E
    else:
        status = IN
    return StableSetVerdict(status=status, I0=I0, E0=E0, threshold=threshold,
                            trivial_zero=trivial)
