"""Benchmark of the logwave command line, end to end and layer by layer.

    python3 perfbench/run.py --workload run-ref --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  One process runs one workload: it repeats the workload's
``logwave.cli.main`` call with ``--seed`` for ``--seconds`` seconds, checks
every operation's outputs, and prints each metric with its unit, a
provenance line, and as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics with tracing off.  ``--trace 1``
alternates untraced and traced operations and reports the per-layer metrics
of the traced ones; see README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer  # noqa: E402
from workloads import CSV_NAME, JSON_NAME, WORKLOADS, Workload, with_seed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# fresh interpreters timed per run for setup_s, after one untimed warm-up
SETUP_REPEATS = 7

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}

# layers whose calls get a count, a self time and a median call time
_TIMED_LAYERS = ("domain.synthesize", "domain.analyze", "functionals.source_eval",
                 "functionals.energy", "solver.step", "well.project_to_nehari")
ANALYSIS_CHECKS = ("analysis.check_energy_identity", "analysis.check_virial_identity",
                   "analysis.check_integral_bound", "analysis.fit_decay")

PER_LAYER = {
    **{f"{name}.{suffix}": unit for name in _TIMED_LAYERS
       for suffix, unit in (("calls", "count"), ("self_s", "s"), ("us_p50", "us"))},
    "domain.transform_bytes_computed": "B",
    "solver.blowup_scan.calls": "count",
    "solver.blowup_scan.self_s": "s",
    "solver.integrate.self_s": "s",
    "solver.transforms_per_step": "count",
    "well.fiber_evals_per_projection": "count",
    "well.estimate_depth.self_s": "s",
    "analysis.continuous_dependence.self_s": "s",
    "analysis.checks.self_s": "s",
    "cli.run_checks.self_s": "s",
    "cli.write_csv.self_s": "s",
    "cli.write_csv.bytes": "B",
    "cli.write_json.self_s": "s",
    "cli.write_json.bytes": "B",
    "trace.overhead_s": "s",
}


def import_cli():
    """Import logwave.cli from this checkout's ``src``, and nowhere else."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import logwave
    import logwave.cli

    if not Path(logwave.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"logwave imported from {logwave.__file__}, not from {SRC}")
    return logwave.cli


def measure_setup(repeats: int) -> list[float]:
    """Seconds to ``import logwave.cli`` in fresh interpreters."""
    code = ("import time; t = time.perf_counter(); import logwave.cli; "
            "print(time.perf_counter() - t)")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    times = []
    for i in range(repeats + 1):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                             capture_output=True, text=True, check=True, timeout=120)
        if i:
            times.append(float(out.stdout))
    return times


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class Operations:
    """Runs one workload's CLI call repeatedly and judges every result."""

    cli: object
    workload: Workload
    seed: int
    workdir: Path
    walls: list[float] = field(default_factory=list)
    traced_walls: list[float] = field(default_factory=list)
    tracers: list[Tracer] = field(default_factory=list)
    problems: list[list[str]] = field(default_factory=list)
    digests: list[dict] = field(default_factory=list)
    codes: list[int | None] = field(default_factory=list)

    def __post_init__(self):
        self.config = with_seed(self.workload.config, self.seed)
        self.config_path = self.workdir / "config.json"
        self.config_path.write_text(json.dumps(self.workload.config))

    @property
    def first_out(self) -> Path:
        return self.workdir / "first"

    def run(self, tracer: Tracer | None = None):
        out = self.first_out if not self.digests else self.workdir / "next"
        shutil.rmtree(out, ignore_errors=True)
        argv = [self.workload.command, "--config", str(self.config_path),
                "--output-dir", str(out), "--seed", str(self.seed), "--quiet"]
        problems = []
        start = perf_counter()
        try:
            if tracer is None:
                code = self.cli.main(argv)
            else:
                with tracer.installed():
                    code = self.cli.main(argv)
        except Exception as exc:  # an operation that raises is a failed one
            code = None
            problems.append(f"raised {exc!r}")
        wall = perf_counter() - start
        if tracer is None:
            self.walls.append(wall)
        else:
            self.traced_walls.append(wall)
            self.tracers.append(tracer)
            expected = self.workload.expected_calls(self.config)
            for name, count in expected.items():
                if tracer.calls[name] != count:
                    problems.append(f"traced {name} calls {tracer.calls[name]}, expected {count}")
        digest = {name: _sha256(out / name) for name in (CSV_NAME, JSON_NAME)
                  if (out / name).exists()}
        if self.digests and digest != self.digests[0]:
            problems.append("outputs differ from the first run with the same seed")
        self.digests.append(digest)
        self.problems.append(problems)
        self.codes.append(code)

    def judge(self) -> int:
        """Check the first outputs; every rerun matched them byte for byte
        or already failed.  Returns the number of failed operations."""
        try:
            first = self.workload.check(self.config, self.first_out, self.codes[0])
        except (OSError, ValueError, LookupError, TypeError) as exc:
            first = [f"outputs unreadable: {exc!r}"]
        failed = 0
        for code, problems in zip(self.codes, self.problems):
            if code != self.codes[0]:
                problems.append(f"exit code {code}, first run gave {self.codes[0]}")
            problems = first + problems
            failed += bool(problems)
            for p in problems:
                print(f"FAIL {self.workload.name}: {p}", file=sys.stderr)
        return failed


def layer_metrics(ops: Operations) -> dict[str, float]:
    tracers = ops.tracers
    first = tracers[0]

    def self_s(*names):
        return median(sum(t.self_s[n] for n in names) for t in tracers)

    def us_p50(name):
        d = [x for t in tracers for x in t.durations[name]]
        return median(d) * 1e6 if d else 0.0

    m = {}
    for name in _TIMED_LAYERS:
        m[f"{name}.calls"] = first.calls[name]
        m[f"{name}.self_s"] = self_s(name)
        m[f"{name}.us_p50"] = us_p50(name)
    steps = first.calls["solver.step"]
    projections = first.calls["well.project_to_nehari"]
    m.update({
        "domain.transform_bytes_computed": first.transform_bytes,
        "solver.blowup_scan.calls": first.calls["solver.blowup_scan"],
        "solver.blowup_scan.self_s": self_s("solver.blowup_scan"),
        "solver.integrate.self_s": self_s("solver.integrate"),
        "solver.transforms_per_step":
            first.transforms_in_integrate / steps if steps else 0.0,
        "well.fiber_evals_per_projection":
            (first.calls["well.fiber_J"] + first.calls["well.fiber_I"]) / projections
            if projections else 0.0,
        "well.estimate_depth.self_s": self_s("well.estimate_depth"),
        "analysis.continuous_dependence.self_s": self_s("analysis.continuous_dependence"),
        "analysis.checks.self_s": self_s(*ANALYSIS_CHECKS),
        "cli.run_checks.self_s": self_s("cli.run_checks"),
        "cli.write_csv.self_s": self_s("cli.write_csv"),
        "cli.write_csv.bytes": first.bytes_written["cli.write_csv"],
        "cli.write_json.self_s": self_s("cli.write_json"),
        "cli.write_json.bytes": first.bytes_written["cli.write_json"],
        "trace.overhead_s": min(ops.traced_walls) - min(ops.walls),
    })
    return m


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 setup_repeats: int = SETUP_REPEATS) -> dict:
    """Measure one workload; returns the result object the benchmark prints."""
    cli = import_cli()
    setup = measure_setup(setup_repeats) if not trace else []
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        ops = Operations(cli, workload, seed, workdir)
        deadline = perf_counter() + seconds
        while True:
            start = perf_counter()
            ops.run()
            if trace:
                ops.run(Tracer())
            if perf_counter() + (perf_counter() - start) > deadline:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failed = ops.judge()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still works in it
            pass
    attempted = len(ops.codes)

    walls = ops.walls
    q = quantiles(walls, n=4) if len(walls) > 1 else walls * 3
    print(f"{workload.name}: {attempted} operations, {failed} failed, fail_ratio "
          f"{failed / attempted:g}; untraced wall_s over {len(walls)}: min {min(walls):.4f} "
          f"p25 {q[0]:.4f} median {q[1]:.4f} p75 {q[2]:.4f} max {max(walls):.4f}")
    if trace:
        metrics = layer_metrics(ops)
        units = PER_LAYER
    else:
        metrics = {
            "wall_s": min(walls),
            "setup_s": median(setup),
            "peak_rss_mb": peak_rss_mb,
            "pass_ratio": (attempted - failed) / attempted,
        }
        units = END_TO_END
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


# ---------------------------------------------------------------------------
# provenance

def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas() -> tuple[str | None, int | None]:
    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    vendor = f"{info.get('name')} {info.get('version')}"
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return vendor, fn()
    return vendor, None


def provenance(seed: int) -> dict:
    import logwave
    import numpy
    import scipy

    nproc = len(os.sched_getaffinity(0))
    vendor, threads = _blas()
    return {
        "logwave": logwave.__version__,
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": vendor,
        "blas_threads": None if threads is None else min(threads, nproc),
        "nproc": nproc,
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                              bool(args.trace))
    except ImportError as exc:
        print(f"cannot import logwave from {SRC}: {exc}", file=sys.stderr)
        return 2
    print("provenance " + json.dumps(provenance(args.seed), sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
