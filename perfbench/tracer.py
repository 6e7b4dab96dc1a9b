"""Call tracing of logwave's public functions from outside the package.

The package imports names with ``from .domain import synthesize``, so one
function object sits in several module namespaces.  ``Tracer.installed``
replaces every binding of each traced function in every loaded ``logwave``
module, and puts the originals back when the block ends, even on error.

Per traced name it records the call count, the self time (elapsed time
minus the time of traced calls made inside it) and every call's duration.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

# traced name -> (module, function)
TARGETS = {
    "domain.synthesize": ("logwave.domain", "synthesize"),
    "domain.analyze": ("logwave.domain", "analyze"),
    "functionals.source_eval": ("logwave.functionals", "source_eval"),
    "functionals.energy": ("logwave.functionals", "energy"),
    "solver.step": ("logwave.solver", "step"),
    "solver.blowup_scan": ("logwave.solver", "blowup_scan"),
    "solver.integrate": ("logwave.solver", "integrate"),
    "well.fiber_J": ("logwave.well", "fiber_J"),
    "well.fiber_I": ("logwave.well", "fiber_I"),
    "well.project_to_nehari": ("logwave.well", "project_to_nehari"),
    "well.estimate_depth": ("logwave.well", "estimate_depth"),
    "analysis.continuous_dependence": ("logwave.analysis", "continuous_dependence"),
    "analysis.check_energy_identity": ("logwave.analysis", "check_energy_identity"),
    "analysis.check_virial_identity": ("logwave.analysis", "check_virial_identity"),
    "analysis.check_integral_bound": ("logwave.analysis", "check_integral_bound"),
    "analysis.fit_decay": ("logwave.analysis", "fit_decay"),
    "cli.run_checks": ("logwave.cli", "run_checks"),
    "cli.write_csv": ("logwave.cli", "write_csv"),
    "cli.write_json": ("logwave.cli", "write_json"),
}

TRANSFORMS = ("domain.synthesize", "domain.analyze")
FILE_WRITERS = ("cli.write_csv", "cli.write_json")


class Tracer:
    """Counters and timings of one traced operation."""

    def __init__(self):
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.durations: defaultdict[str, list[float]] = defaultdict(list)
        # bytes read plus written by the transforms, from array sizes
        self.transform_bytes = 0
        self.transforms_in_integrate = 0
        self.bytes_written: Counter[str] = Counter()
        self._child_s: list[float] = []
        self._in_integrate = 0

    def _wrap(self, name: str, fn):
        is_transform = name in TRANSFORMS
        is_writer = name in FILE_WRITERS
        is_integrate = name == "solver.integrate"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._child_s.append(0.0)
            self._in_integrate += is_integrate
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._in_integrate -= is_integrate
                child = self._child_s.pop()
                if self._child_s:
                    self._child_s[-1] += elapsed
                self.calls[name] += 1
                self.self_s[name] += elapsed - child
                self.durations[name].append(elapsed)
            if is_transform:
                self.transform_bytes += args[1].nbytes + out.nbytes
                self.transforms_in_integrate += self._in_integrate > 0
            elif is_writer:
                self.bytes_written[name] += Path(args[0]).stat().st_size
            return out

        return traced

    @contextmanager
    def installed(self):
        """Bind the traced wrappers in every logwave module for the block."""
        modules = [mod for key, mod in sorted(sys.modules.items())
                   if (key == "logwave" or key.startswith("logwave.")) and mod is not None]
        saved = []  # (module, attribute, original)
        try:
            for name, (mod_name, attr) in TARGETS.items():
                original = getattr(sys.modules[mod_name], attr)
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for key in [k for k, v in vars(mod).items() if v is original]:
                        saved.append((mod, key, original))
                        setattr(mod, key, wrapper)
            yield self
        finally:
            for mod, key, original in reversed(saved):
                setattr(mod, key, original)
