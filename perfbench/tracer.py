"""Span tracing of treeshell's layers, applied from outside the package.

Every traced function is replaced by a wrapper on the module attribute, on
every other treeshell module that re-bound the same object by
``from .x import f``, or on its class for methods.  Each call records one
span (name, parent span, start, end) in flat in-memory arrays; the spans
are written out once, after the traced passes.  A span's self time is its
duration minus the durations of its direct children: the program is
single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

# (layer, attribute path inside treeshell.<layer>, work counter or None).
# A work counter maps (result, args) to a size added to "<layer>.<what>".
TRACED = [
    ("cli", "main", None),
    ("coefficients", "RepeatedCoefficients.ell", None),
    ("coefficients", "RepeatedCoefficients.phi", None),
    ("coefficients", "RepeatedCoefficients.phi_inverse", None),
    ("spectra", "zeta", None),
    ("spectra", "asymptote", None),
    ("spectra", "dim_delta", None),
    ("spectra", "dim_D", None),
    ("dissipation", "measure", ("atoms", lambda out, args: out.atoms)),
    ("dissipation", "theoretical_tail_rate", None),
    ("dissipation", "concentration_curve", None),
    ("dissipation", "lln_sample", None),
    ("solution", "pullback",
     ("nodes", lambda out, args: sum(len(r) for r in out.rows))),
    ("solution", "PullbackRun.residual_max", None),
    ("solution", "ConstantSolution.log2_u_rows", None),
    ("solution", "ConstantSolution.energy", None),
    ("solution", "ConstantSolution.recursion_residual", None),
    ("dynamics", "step", ("node_steps", lambda out, args: len(args[0].values))),
    ("dynamics", "integrate", None),
    ("field", "synthesize", ("cells", lambda out, args: out.cells)),
    ("field", "structure_function", None),
]


def span_name(layer: str, path: str) -> str:
    """'solution.PullbackRun.residual_max' -> 'solution.residual_max'."""
    return f"{layer}.{path.rsplit('.', 1)[-1]}"


class Tracer:
    """Flat span store plus the patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name_of = array("l")     # per span: index into self.names
        self.parent = array("l")      # per span: parent span id, -1 for roots
        self.start = array("d")
        self.end = array("d")
        self.work: dict[str, int] = {}
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    # -- spans ---------------------------------------------------------------

    def call(self, name_id: int, fn, args, kwargs):
        """Run fn(*args, **kwargs) inside a span; return (result, t0, t1)."""
        sid = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.start[sid] = t0
            self.end[sid] = t1
        return out, t0, t1

    def root(self, name: str, fn):
        """Run fn() as a root span (one benchmark case); return (result, t0, t1)."""
        return self.call(self._id(name), fn, (), {})

    # -- patching --------------------------------------------------------------

    def _wrapper(self, name: str, fn, counter):
        name_id = self._id(name)
        call = self.call
        work = self.work
        if counter is None:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return call(name_id, fn, args, kwargs)[0]
        else:
            key = f"{name.split('.', 1)[0]}.{counter[0]}"
            size = counter[1]
            work.setdefault(key, 0)

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                out = call(name_id, fn, args, kwargs)[0]
                work[key] += int(size(out, args))
                return out
        return traced

    def install(self):
        """Wrap every function in TRACED; undo with :meth:`uninstall`."""
        import importlib

        for layer, path, counter in TRACED:
            module = importlib.import_module(f"treeshell.{layer}")
            owner_path, _, attr = path.rpartition(".")
            owner = getattr(module, owner_path) if owner_path else module
            original = owner.__dict__[attr] if owner_path else getattr(module, attr)
            wrapper = self._wrapper(span_name(layer, path), original, counter)
            if owner_path:
                sites = [owner]
            else:
                sites = [m for k, m in list(sys.modules.items())
                         if m is not None and (k == "treeshell"
                                               or k.startswith("treeshell."))
                         and getattr(m, attr, None) is original]
            for site in sites:
                self._restore.append((site, attr, original))
                setattr(site, attr, wrapper)

    def uninstall(self):
        for site, attr, original in reversed(self._restore):
            setattr(site, attr, original)
        self._restore.clear()

    # -- results ---------------------------------------------------------------

    def self_times(self):
        """(calls, self seconds) per span name, and the root-duration total."""
        import numpy as np

        name_of = np.asarray(self.name_of, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        own = dur - child
        k = len(self.names)
        calls = np.bincount(name_of, minlength=k)
        self_s = np.bincount(name_of, weights=own, minlength=k)
        stats = {n: (int(calls[i]), float(self_s[i]))
                 for i, n in enumerate(self.names)}
        return stats, float(dur[~has_parent].sum()), float(own.sum())

    def calls_under(self, child: str, parent: str) -> int:
        """Number of `child` spans whose direct parent is a `parent` span."""
        import numpy as np

        if child not in self._name_id or parent not in self._name_id:
            return 0
        name_of = np.asarray(self.name_of, dtype=np.int64)
        par = np.asarray(self.parent, dtype=np.int64)
        is_child = name_of == self._name_id[child]
        par_of_child = par[is_child]
        par_of_child = par_of_child[par_of_child >= 0]
        return int(np.sum(name_of[par_of_child] == self._name_id[parent]))

    def save(self, path: str):
        """Write the raw spans (numpy .npz) for offline inspection."""
        import numpy as np

        np.savez(path, names=np.asarray(self.names),
                 name_of=np.asarray(self.name_of, dtype=np.int64),
                 parent=np.asarray(self.parent, dtype=np.int64),
                 start=np.asarray(self.start), end=np.asarray(self.end))
