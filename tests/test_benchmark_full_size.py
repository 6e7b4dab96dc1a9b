"""The benchmark's traced self-check at full size: every workload as the
benchmark declares it (m=16 for depend-m16, the whole trial family for
welldepth-m8), run once untraced and once traced.  The benchmark's own tests
(perfbench/test_perfbench.py) run only tiny versions, which never reach m=16
nor cross a block of the trial family (well.TRIAL_BLOCK)."""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_at_full_size_is_correct(name):
    # the traced operation must give the untraced one's outputs byte for byte
    # and every expected call count; run_workload counts either as a failure
    result = run.run_workload(WORKLOADS[name], seed=1, seconds=0.0, trace=True,
                              setup_repeats=1)
    assert result["correct"]
    assert result["failed"] == 0
    assert result["attempted"] == 2
