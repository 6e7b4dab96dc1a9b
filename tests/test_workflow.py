"""The CI workflow parses: tier-1 is the only suite every change runs, so a
broken edit to the workflow would otherwise show only on the CI runner."""

import subprocess
from pathlib import Path

import yaml

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tier1.yml"


def test_every_run_script_is_valid_bash():
    workflow = yaml.safe_load(WORKFLOW.read_text())
    scripts = [(step.get("name"), step["run"]) for job in workflow["jobs"].values()
               for step in job["steps"] if "run" in step]
    assert scripts
    for name, script in scripts:
        check = subprocess.run(["bash", "-n"], input=script, capture_output=True, text=True)
        assert check.returncode == 0, f"step {name!r}: {check.stderr}"
