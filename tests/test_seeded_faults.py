"""Seeded faults in the source, the damping, the quadrature and the kinetic
energy, and the check rows that catch them.

Mutation testing (R. A. DeMillo, R. J. Lipton and F. G. Sayward, "Hints on
test data selection", IEEE Computer 11(4), 1978): each test patches one
thing inside the test (``solver.source_projection``, the step's F(a); the
damping in ``solver._trapezoid``'s coefficients; the domain's quadrature
weight; or the L2 norm that ``functionals.energy`` reads for the kinetic
energy), runs one trajectory and pins which mandatory rows of the check
table FAIL.  phi is
the (1,1,1) eigenmode and lambda* its Nehari scale.  Most data sit in the
potential well but far from its bottom, u0 = s lambda* phi with s = 0.6
(at gamma = 4, E0 = 19.07 against d_hat = 35.14) or 0.9, where the source
carries enough of the energy budget for a 2 % fault to show; the reference
amplitude u0 = 0.05 phi of the acceptance tests shows where it does not.
The verdict is taken at theta = 1, so the invariance rows run too.
"""

import functools

import numpy as np
import pytest

from logwave import functionals, solver
from logwave.analysis import CHECKS, run_checks
from logwave.domain import DomainSpec, ModalField
from logwave.functionals import ModelParams
from logwave.solver import COMPLETED, SolverConfig, integrate
from logwave.well import estimate_depth, project_to_nehari, stable_set_check

# the scale that stands for the acceptance tests' reference data, u0 = 0.05 phi
REFERENCE = None
MANDATORY = {c.name for c in CHECKS if c.mandatory}


@functools.cache
def well_data(scale, gamma=4.0):
    """(u0, u1, verdict, params) for u0 = scale lambda* phi, or 0.05 phi when
    scale is REFERENCE, with the verdict at theta = 1."""
    params = ModelParams(gamma, 3)
    dom = DomainSpec(3, np.pi, 8)
    phi = ModalField.eigenmode(dom, (1, 1, 1))
    amplitude = 0.05 if scale is REFERENCE else scale * project_to_nehari(phi, params)[0]
    u0, u1 = ModalField(dom, amplitude * phi.coeffs), ModalField.zeros(dom)
    verdict = stable_set_check(u0, u1, estimate_depth([phi], params).d_hat, 1.0, params)
    assert verdict.status == "IN"
    return u0, u1, verdict, params


def checked_rows(scale, gamma, t_end=5.0):
    """Every row of the check table, name -> (status, measured), on the
    trajectory from well_data(scale, gamma) at dt 1e-3 to t_end, under
    whatever fault the calling test has patched in."""
    u0, u1, verdict, params = well_data(scale, gamma)
    result = integrate(u0, u1, SolverConfig(dt=1e-3, t_end=t_end), params)
    assert result.status == COMPLETED
    checks, _ = run_checks(result.reports, u0.domain, params, verdict)
    return {c["name"]: (c["status"], c["measured"]) for c in checks}


# the true flow, shared by the tests that patch nothing; call it with t_end
# given, so that one run has one cache key
true_rows = functools.cache(checked_rows)


def checks_with_source_times(factor, scale, gamma, monkeypatch, t_end=5.0):
    """The rows with F(a) scaled by factor."""
    if factor == 1.0:
        return true_rows(scale, gamma, t_end)
    true_source = solver.source_projection
    monkeypatch.setattr(solver, "source_projection",
                        lambda domain, a, gamma: factor * true_source(domain, a, gamma))
    return checked_rows(scale, gamma, t_end)


def failing(rows):
    return {name for name in MANDATORY if rows[name][0] == "FAIL"}


def test_true_source_passes_every_mandatory_row(monkeypatch):
    rows = checks_with_source_times(1.0, 0.6, 4.0, monkeypatch)
    assert {rows[name][0] for name in MANDATORY} == {"PASS"}
    assert rows["energy_identity"][1] == pytest.approx(7.77e-7, rel=0.01)


def test_two_percent_source_fails_the_ledger_and_the_virial(monkeypatch):
    # the ledger reads 4.50e-4 against its 1e-4, the virial 1.48e-3 against
    # its 1e-3; the other mandatory rows PASS
    rows = checks_with_source_times(1.02, 0.6, 4.0, monkeypatch)
    assert failing(rows) == {"energy_identity", "virial_identity"}
    assert rows["energy_identity"][1] == pytest.approx(4.50e-4, rel=0.01)
    assert rows["virial_identity"][1] == pytest.approx(1.48e-3, rel=0.01)


def test_no_source_fails_the_ledger_dissipation_and_virial(monkeypatch):
    # the energy still holds the source's terms, so dropping F breaks every
    # row that ties E to the flow
    rows = checks_with_source_times(0.0, 0.6, 4.0, monkeypatch)
    assert failing(rows) == {"energy_identity", "monotone_dissipation", "virial_identity"}


def test_reversed_source_raises_the_energy(monkeypatch):
    # reversed far from the well's bottom, the source pumps energy in: E
    # rises by 3.87e-4 of E(0), and the ledger and the virial read 4.98e-2
    # and 1.17e-1
    rows = checks_with_source_times(-1.0, 0.6, 4.0, monkeypatch)
    assert failing(rows) == {"energy_identity", "monotone_dissipation", "virial_identity"}
    assert rows["monotone_dissipation"][1] == pytest.approx(3.87e-4, rel=0.01)
    assert rows["energy_identity"][1] == pytest.approx(4.98e-2, rel=0.01)
    assert rows["virial_identity"][1] == pytest.approx(1.17e-1, rel=0.01)


def test_reversed_source_near_the_manifold_leaves_the_well(monkeypatch):
    # at s = 0.9 the reversed source lifts E from E(0) = 33.61 to 39.27, past
    # the well's depth d_hat = 35.14, so invariance_E_below_threshold FAILs
    # beside the three rows a reversed source breaks at s = 0.6.  The FAIL set
    # is the same at t_end 5, where min I has fallen to 7.3e-5 as the field
    # decays: invariance_I_positive stays PASS.
    rows = checks_with_source_times(-1.0, 0.9, 4.0, monkeypatch, t_end=1.0)
    assert failing(rows) == {"energy_identity", "monotone_dissipation", "virial_identity",
                             "invariance_E_below_threshold"}
    assert rows["invariance_E_below_threshold"][1] == pytest.approx(39.27, rel=1e-3)
    assert rows["monotone_dissipation"][1] == pytest.approx(1.08e-2, rel=0.01)
    assert rows["energy_identity"][1] == pytest.approx(0.592, rel=0.01)
    assert rows["virial_identity"][1] == pytest.approx(0.874, rel=0.01)


def test_kinetic_fault_in_the_report_fails_the_poincare_margin(monkeypatch):
    # a fault in the report, not in the flow: the kinetic energy x1.02.  By
    # Parseval, ||u_t||_2 <= C_P ||grad u_t||_2 holds for every band-limited
    # u_t, so no fault in the flow can FAIL poincare_margin; a kinetic energy
    # read 2 % high lifts the margin to sqrt(1.02) = 1.00995.  The FAIL set is
    # the same for the reference data 0.05 phi.
    true_l2_norm_sq = functionals.l2_norm_sq
    monkeypatch.setattr(functionals, "l2_norm_sq", lambda f: 1.02 * true_l2_norm_sq(f))
    rows = checked_rows(0.6, 4.0, t_end=1.0)
    assert failing(rows) == {"energy_identity", "virial_identity", "poincare_margin"}
    assert rows["poincare_margin"][1] == pytest.approx(1.02 ** 0.5, rel=1e-5)
    assert rows["energy_identity"][1] == pytest.approx(3.12e-3, rel=0.01)
    assert rows["virial_identity"][1] == pytest.approx(4.34e-3, rel=0.01)


# (scale, gamma, factor, rows that FAIL, energy_identity, virial_identity)
FAULTS = [
    # the check table's blind spot: at the reference amplitude the source
    # carries so little of the energy that a 2 % error moves the ledger and
    # the virial only to 1.33e-5 and 3.73e-5, well inside their 1e-4 and
    # 1e-3, so every row PASSes.
    # tests/test_reference.py::test_reference_catches_a_two_percent_source
    # catches this fault, by the solution's error against a Radau reference.
    (REFERENCE, 4.0, 1.02, set(), 1.33e-5, 3.73e-5),
    # a dropped or reversed source is large enough to show at the reference
    # amplitude, in the ledger and the virial only
    (REFERENCE, 4.0, 0.0, {"energy_identity", "virial_identity"}, 6.27e-4, 1.08e-3),
    (REFERENCE, 4.0, -1.0, {"energy_identity", "virial_identity"}, 1.26e-3, 2.16e-3),
    # at gamma = 5.5 the virial misses a 2 % source: 2.18e-4 against its 1e-3
    (0.6, 5.5, 1.0, set(), 7.83e-7, 2.19e-5),
    (0.6, 5.5, 1.02, {"energy_identity"}, 2.18e-4, 2.18e-4),
    # nearer the Nehari manifold, the ledger reads the 2 % fault 13 times
    # larger than at s = 0.6
    (0.9, 4.0, 1.0, set(), 8.55e-7, 1.04e-5),
    (0.9, 4.0, 1.02, {"energy_identity", "virial_identity"}, 5.71e-3, 5.72e-2),
]


@pytest.mark.parametrize("scale,gamma,factor,fails,ledger,virial", FAULTS, ids=[
    "reference-two-percent", "reference-none", "reference-reversed", "gamma5.5-true",
    "gamma5.5-two-percent", "0.9-true", "0.9-two-percent"])
def test_source_fault_fails_exactly_its_rows(monkeypatch, scale, gamma, factor, fails,
                                             ledger, virial):
    rows = checks_with_source_times(factor, scale, gamma, monkeypatch)
    assert failing(rows) == fails
    assert rows["energy_identity"][1] == pytest.approx(ledger, rel=0.01)
    assert rows["virial_identity"][1] == pytest.approx(virial, rel=0.01)


def test_decay_slows_nearer_the_nehari_manifold():
    # C2 of the true flow to t_end 5: 3.734 at s = 0.6 and 1.488 at s = 0.9,
    # against 3.778 for the reference data 0.05 phi (whose fit to t_end 20 is
    # the README's 3.010)
    c2 = [true_rows(scale, 4.0, 5.0)["decay_rate_positive"][1] for scale in (0.6, 0.9)]
    assert c2 == pytest.approx([3.734, 1.488], rel=1e-3)


def damped_trapezoid(c):
    """``solver._trapezoid`` with the damping -lambda u_t scaled by c: the
    step's half = dt lambda / 2 becomes c half wherever it comes from the
    damping, in det, aa and bb, and stays in ba, which comes from -lambda u."""
    def coefficients(domain, dt):
        half = 0.5 * dt * domain.eigenvalues
        quarter = 0.5 * dt * half
        det = 1.0 + c * half + quarter
        ab = bf = dt / det
        return (
            (1.0 + c * half - quarter) / det, ab, 0.5 * dt * dt / det,
            -2.0 * half / det, (1.0 - c * half - quarter) / det, bf,
        )
    return coefficients


def test_damping_copy_is_the_trapezoid_at_one():
    dom = DomainSpec(3, np.pi, 8)
    copy, true = damped_trapezoid(1.0)(dom, 1e-3), solver._trapezoid(dom, 1e-3)
    assert [x.tobytes() for x in copy] == [x.tobytes() for x in true]


# (fault, scale, gamma, rows that FAIL, energy_identity, virial_identity), each
# fault x1.02 and each run to t_end 1, not 5, to keep the module's time: at
# t_end 5 every row FAILs the same set, while at t_end 0.5 the gamma 5.5
# quadrature fault FAILs none
OTHER_FAULTS = [
    # the damping fault shows even at the reference amplitude, where a 2 %
    # source does not (1.96e-2 and 2.00e-2 at t_end 5)
    ("damping", REFERENCE, 4.0, {"energy_identity", "virial_identity"}, 1.353e-2, 1.603e-2),
    # the quadrature weight moves only the energy's log moments, not the flow
    # (analyze carries its own weights), so at the reference amplitude, where
    # the source carries little of the energy, it is a blind spot: 1.18e-5
    # and 3.44e-5 at t_end 5
    ("quadrature", REFERENCE, 4.0, set(), 1.134e-5, 2.826e-5),
    # 4.52e-4 and 1.51e-3 at t_end 5
    ("quadrature", 0.6, 4.0, {"energy_identity", "virial_identity"}, 4.517e-4, 1.511e-3),
    # at gamma 5.5 the virial misses it, as it misses a 2 % source: 2.17e-4
    # and 2.59e-4 at t_end 5
    ("quadrature", 0.6, 5.5, {"energy_identity"}, 1.963e-4, 2.397e-4),
]


@pytest.mark.parametrize("fault,scale,gamma,fails,ledger,virial", OTHER_FAULTS, ids=[
    "damping-reference", "quadrature-reference", "quadrature-0.6", "quadrature-gamma5.5"])
def test_damping_and_quadrature_faults_fail_exactly_their_rows(monkeypatch, fault, scale,
                                                               gamma, fails, ledger, virial):
    if fault == "damping":
        monkeypatch.setattr(solver, "_trapezoid", damped_trapezoid(1.02))
    else:
        domain = well_data(scale, gamma)[0].domain
        monkeypatch.setitem(domain.__dict__, "quad_weight", 1.02 * domain.quad_weight)
    rows = checked_rows(scale, gamma, t_end=1.0)
    assert failing(rows) == fails
    assert rows["energy_identity"][1] == pytest.approx(ledger, rel=0.01)
    assert rows["virial_identity"][1] == pytest.approx(virial, rel=0.01)
