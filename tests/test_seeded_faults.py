"""Seeded faults in the source, and the check rows that catch them.

Mutation testing (R. A. DeMillo, R. J. Lipton and F. G. Sayward, "Hints on
test data selection", IEEE Computer 11(4), 1978): each test patches
``solver.source_projection``, the step's F(a), inside the test, runs one
trajectory in the nonlinear regime and pins which rows of the check table
FAIL.  The data sit in the potential well but far from its bottom,
u0 = 0.6 lambda* phi with phi the (1,1,1) eigenmode and lambda* its Nehari
scale (E0 = 19.07 against d_hat = 35.14), where the source carries enough of
the energy budget for a 2 % fault to show.  The verdict is taken at
theta = 1, so the invariance rows run too.
"""

import numpy as np
import pytest

from logwave import solver
from logwave.analysis import run_checks
from logwave.domain import DomainSpec, ModalField
from logwave.functionals import ModelParams
from logwave.solver import COMPLETED, SolverConfig, integrate
from logwave.well import estimate_depth, project_to_nehari, stable_set_check

PARAMS = ModelParams(4.0, 3)
CFG = SolverConfig(dt=1e-3, t_end=5.0)


@pytest.fixture(scope="module")
def well_data():
    dom = DomainSpec(3, np.pi, 8)
    phi = ModalField.eigenmode(dom, (1, 1, 1))
    lam, _ = project_to_nehari(phi, PARAMS)
    u0, u1 = ModalField(dom, 0.6 * lam * phi.coeffs), ModalField.zeros(dom)
    verdict = stable_set_check(u0, u1, estimate_depth([phi], PARAMS).d_hat, 1.0, PARAMS)
    assert verdict.status == "IN"
    return u0, u1, verdict


def checks_with_source_times(factor, well_data, monkeypatch):
    """The mandatory rows, name -> (status, measured), with F(a) scaled by factor."""
    u0, u1, verdict = well_data
    if factor != 1.0:
        true_source = solver.source_projection
        monkeypatch.setattr(solver, "source_projection",
                            lambda domain, a, gamma: factor * true_source(domain, a, gamma))
    result = integrate(u0, u1, CFG, PARAMS)
    assert result.status == COMPLETED
    checks, _ = run_checks(result.reports, u0.domain, PARAMS, verdict)
    return {c["name"]: (c["status"], c["measured"]) for c in checks if c["mandatory"]}


def failing(rows):
    return {name for name, (status, _) in rows.items() if status == "FAIL"}


def test_true_source_passes_every_mandatory_row(well_data, monkeypatch):
    rows = checks_with_source_times(1.0, well_data, monkeypatch)
    assert {status for status, _ in rows.values()} == {"PASS"}
    assert rows["energy_identity"][1] == pytest.approx(7.77e-7, rel=0.01)


def test_two_percent_source_fails_the_ledger_and_the_virial(well_data, monkeypatch):
    # the ledger reads 4.50e-4 against its 1e-4, the virial 1.48e-3 against
    # its 1e-3; the other mandatory rows PASS
    rows = checks_with_source_times(1.02, well_data, monkeypatch)
    assert failing(rows) == {"energy_identity", "virial_identity"}
    assert rows["energy_identity"][1] == pytest.approx(4.50e-4, rel=0.01)
    assert rows["virial_identity"][1] == pytest.approx(1.48e-3, rel=0.01)


def test_no_source_fails_the_ledger_dissipation_and_virial(well_data, monkeypatch):
    # the energy still holds the source's terms, so dropping F breaks every
    # row that ties E to the flow
    rows = checks_with_source_times(0.0, well_data, monkeypatch)
    assert failing(rows) == {"energy_identity", "monotone_dissipation", "virial_identity"}
