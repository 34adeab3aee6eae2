"""Layer timer for the traced benchmark run.

The tracer wraps public functions of torsionlab from outside: every name
under which a target function is bound in a loaded torsionlab module is
replaced by a wrapper (so ``torsionlab.cli.twisted_alexander`` is traced as
well as ``torsionlab.twisted.twisted_alexander``), and methods are replaced
on their class.  Wrappers are installed only around traced jobs, so
untraced jobs run the program unmodified.

Each wrapped call records a span (id, parent id, name, start, end, raised).
At the end of a job the spans are folded into per-name totals: calls,
inclusive seconds, self seconds (inclusive minus the time covered by its
direct child spans) and the number of exceptions raised through the span.
numpy.linalg entry points are wrapped as counters only.

A target that no longer exists is recorded as absent; its metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from collections import defaultdict

# (module, attribute path); the span name is the module's last component
# followed by the attribute path, e.g. "twisted.boundary2"
SPAN_TARGETS = (
    ("torsionlab.cli", "main"),
    ("torsionlab.presentations", "parse_presentation"),
    ("torsionlab.reps", "parse_representation"),
    ("torsionlab.reps", "UnitaryRep.of_word"),
    ("torsionlab.freegroup", "fox_derivative"),
    ("torsionlab.laurent", "LaurentMatrix.det"),
    ("torsionlab.twisted", "twisted_alexander"),
    ("torsionlab.twisted", "boundary2"),
    ("torsionlab.twisted", "phi_apply"),
    ("torsionlab.twisted", "choose_pivot"),
    ("torsionlab.twisted", "cuspidality_check"),
    ("torsionlab.cwcomplex", "knot_complex"),
    ("torsionlab.cwcomplex", "TwistedCWComplex.validate_boundary"),
    ("torsionlab.cwcomplex", "twisted_boundary"),
    ("torsionlab.cwcomplex", "torsion_report"),
    ("torsionlab.ruelle", "parse_spectrum"),
    ("torsionlab.ruelle", "truncated_ruelle"),
    ("torsionlab.ruelle", "convergence_report"),
)

# numpy.linalg function -> (calls counter, matrices counter or None)
COUNTER_TARGETS = {
    "det": ("laurent.det.lapack_calls", "laurent.det.lapack_matrices"),
    "slogdet": ("laurent.det.lapack_calls", "laurent.det.lapack_matrices"),
    "eigvalsh": ("cwcomplex.eigvalsh.calls", None),
    "eigvals": (None, "ruelle.eig_matrices"),
}


def span_name(module, path):
    return module.rsplit(".", 1)[-1] + "." + path


class Tracer:
    """Collects spans and counters for the jobs run between install/uninstall."""

    def __init__(self):
        self.patches = []  # (owner, attribute, original, wrapper)
        self.absent = []
        self.spans = []  # one job's spans: [id, parent, name, start, end, raised]
        self.stack = []
        self.counts = defaultdict(float)
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.errors = defaultdict(int)
        self._plan()

    # -- patch planning ---------------------------------------------------

    def _plan(self):
        loaded = [m for name, m in sorted(sys.modules.items())
                  if name == "torsionlab" or name.startswith("torsionlab.")]
        for module, path in SPAN_TARGETS:
            name = span_name(module, path)
            try:
                owner = importlib.import_module(module)
                *cls_path, attr = path.split(".")
                for part in cls_path:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if cls_path else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(name)
                continue
            wrapper = self._span_wrapper(name, original)
            if cls_path:
                self.patches.append((owner, attr, original, wrapper))
                continue
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self.patches.append((mod, key, original, wrapper))
        linalg = importlib.import_module("numpy.linalg")
        for attr, (calls_key, mats_key) in COUNTER_TARGETS.items():
            original = getattr(linalg, attr)
            self.patches.append(
                (linalg, attr, original, self._counter_wrapper(original, calls_key, mats_key))
            )

    def _span_wrapper(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [len(tracer.spans), tracer.stack[-1] if tracer.stack else -1, name,
                   time.perf_counter(), 0.0, False]
            tracer.spans.append(rec)
            tracer.stack.append(rec[0])
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[5] = True
                raise
            finally:
                rec[4] = time.perf_counter()
                tracer.stack.pop()

        return wrapper

    def _counter_wrapper(self, fn, calls_key, mats_key):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            if calls_key:
                counts[calls_key] += 1
            if mats_key:
                shape = getattr(a, "shape", None) or (0, 0)
                counts[mats_key] += math.prod(shape[:-2])
            return fn(a, *args, **kwargs)

        return wrapper

    # -- lifecycle ----------------------------------------------------------

    def install(self):
        for owner, attr, _, wrapper in self.patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self.patches:
            setattr(owner, attr, original)

    def end_job(self):
        """Fold the spans of the job just run into the per-name totals."""
        covered = defaultdict(float)
        for _, parent, _, start, end, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        for sid, _, name, start, end, raised in self.spans:
            self.calls[name] += 1
            self.total_s[name] += end - start
            self.self_s[name] += end - start - covered[sid]
            self.errors[name] += raised
        self.spans.clear()
        self.stack.clear()

    def names(self):
        return [span_name(m, p) for m, p in SPAN_TARGETS]
