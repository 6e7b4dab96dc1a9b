"""Tests of the benchmark itself: a tiny run of every workload, traced and
untraced, and the tracer's restoring of every function it wraps."""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny(workload):
    config = json.loads(json.dumps(workload.config))
    config["domain"]["modes_per_dim"] = 4
    config["solver"]["t_end"] = 0.03
    config["well"]["trial_count"] = 3
    return dataclasses.replace(workload, config=config)


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_reports_every_metric_with_its_unit(name, trace):
    result = run.run_workload(tiny(WORKLOADS[name]), seed=7, seconds=0.0,
                              trace=trace, setup_repeats=1)
    assert result["correct"]
    assert result["failed"] == 0
    assert result["attempted"] == (2 if trace else 1)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}


def _bindings():
    modules = [m for k, m in sys.modules.items()
               if k == "logwave" or k.startswith("logwave.")]
    return {(m.__name__, k): v for m in modules for k, v in vars(m).items()
            if callable(v)}


def test_tracer_wraps_every_import_site_and_restores_it():
    run.import_cli()
    before = _bindings()
    originals = {id(getattr(sys.modules[mod], attr)) for mod, attr in TARGETS.values()}
    with pytest.raises(RuntimeError):
        with Tracer().installed():
            during = _bindings()
            assert not [key for key, v in during.items() if id(v) in originals]
            assert id(sys.modules["logwave.solver"].synthesize.__wrapped__) in originals
            raise RuntimeError("leave the block early")
    assert _bindings() == before
