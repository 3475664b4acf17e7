"""Spans around contactkit's public functions, recorded from outside the package.

``Tracer.install`` swaps each traced function for a wrapper in every
contactkit namespace that holds it (module globals, classes, and the
reference samplers stored on manifolds); ``uninstall`` puts the
originals back, so untraced rounds run the unmodified code.  A span's
self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time

import numpy as np

# spans kept in memory for the trace file; aggregates are always kept
SPAN_LIMIT = 200_000


def _rows(x) -> int:
    shape = np.shape(x)
    return 1 if len(shape) < 2 else int(shape[0])


def _arg(i):
    return lambda args: _rows(args[i])


def _count(args) -> int:
    return int(args[1])


# metric name -> (module, class or None, attribute, points of a call or None)
TARGETS = {
    "fields.coefficients": ("fields", "OneForm", "coefficients", _arg(1)),
    "fields.dmatrix": ("fields", "OneForm", "dmatrix", _arg(1)),
    "fields.gradient": ("fields", "ScalarField", "gradient", _arg(1)),
    "fields.directional": ("fields", "ScalarField", "directional", _arg(1)),
    "manifold.tangent_frame": ("manifold", "ContactManifold", "tangent_frame", _arg(1)),
    "manifold.contact_defect": ("manifold", "ContactManifold", "contact_defect", _arg(1)),
    "manifold.reeb_field": ("manifold", "ContactManifold", "reeb_field", _arg(1)),
    "manifold.project": ("manifold", "ContactManifold", "project", _arg(1)),
    "manifold.constraint_gradients": ("manifold", "ContactManifold",
                                      "constraint_gradients", _arg(1)),
    "manifold.reeb_with_derivative": ("manifold", None, "reeb_with_derivative", _arg(1)),
    "manifold.hamiltonian_field_with_derivative": (
        "manifold", None, "hamiltonian_field_with_derivative", _arg(2)),
    "hamiltonian.hamiltonian_to_field": ("hamiltonian", None, "hamiltonian_to_field",
                                         _arg(1)),
    "hamiltonian.bracket_hamiltonian": ("hamiltonian", None, "bracket_hamiltonian", None),
    "flows.integrate_flow": ("flows", None, "integrate_flow", None),
    "flows.min_return_distance": ("flows", None, "min_return_distance", None),
    "flows.flow_points": ("flows", None, "flow_points", None),
    "flows.transported_flow": ("flows", None, "transported_flow", None),
    "flows.orbit_coverage": ("flows", None, "orbit_coverage", None),
    "flows.birkhoff_average": ("flows", None, "birkhoff_average", None),
    "flows.to_csv": ("flows", "FlowTrajectory", "to_csv", None),
    "integrate.integrate": ("integrate", None, "integrate", None),
    "chernweil.pullback_polynomial": ("chernweil", None, "pullback_polynomial", None),
    "cli.main": ("cli", None, "main", None),
}
SAMPLERS = ("_sphere_reference", "_ellipsoid_reference", "_cotangent_reference",
            "_torus_reference")
REFERENCE_SAMPLER = "zoo.reference_sampler"
NAMES = [REFERENCE_SAMPLER] + list(TARGETS)
WITH_POINTS = [REFERENCE_SAMPLER] + [k for k, v in TARGETS.items() if v[3] is not None]


class Tracer:
    def __init__(self, manifolds=()):
        self.manifolds = list(manifolds)
        self.calls = dict.fromkeys(NAMES, 0)
        self.self_s = dict.fromkeys(NAMES, 0.0)
        self.points = dict.fromkeys(NAMES, 0)
        self.spans = []          # (id, parent id, name, start, end, points)
        self._stack = []         # [span id, time covered by children]
        self._next_id = 0
        self._patches = []       # (owner, attribute, original, wrapper)
        self._plan()

    def _plan(self) -> None:
        mods = {k: v for k, v in sys.modules.items()
                if k == "contactkit" or k.startswith("contactkit.")}
        for name, (mod, cls, attr, points) in TARGETS.items():
            if cls is not None:
                owner = getattr(mods["contactkit." + mod], cls)
                self._patches.append((owner, attr, owner.__dict__[attr],
                                      self._wrap(name, owner.__dict__[attr], points)))
                continue
            original = getattr(mods["contactkit." + mod], attr)
            if name == "hamiltonian.bracket_hamiltonian":
                wrapper = self._wrap_bracket(original)
            else:
                wrapper = self._wrap(name, original, points)
            for module in mods.values():
                for key, val in vars(module).items():
                    if val is original:
                        self._patches.append((module, key, original, wrapper))
        zoo = mods["contactkit.zoo"]
        samplers = {}
        for attr in SAMPLERS:
            original = getattr(zoo, attr)
            samplers[original] = self._wrap(REFERENCE_SAMPLER, original, _count)
            self._patches.append((zoo, attr, original, samplers[original]))
        for m in self.manifolds:
            if m.reference_sampler in samplers:
                self._patches.append((m, "reference_sampler", m.reference_sampler,
                                      samplers[m.reference_sampler]))

    def _wrap(self, name, fn, points):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                rows = points(args) if points is not None else 0
                self.calls[name] += 1
                self.self_s[name] += end - start - frame[1]
                self.points[name] += rows
                if len(self.spans) < SPAN_LIMIT:
                    self.spans.append((span, parent, name, start, end, rows))

        return traced

    def _wrap_bracket(self, original):
        """Bracket Hamiltonians do their work when evaluated, so the span
        goes around the returned Hamiltonian's coefficient function."""
        name = "hamiltonian.bracket_hamiltonian"

        def traced(h1, h2):
            h = original(h1, h2)
            f = h.field
            field = type(f)(self._wrap(name, f.fn, None), f.dim, f.name)
            return dataclasses.replace(h, field=field)

        return traced

    @staticmethod
    def _set(owner, attr, val) -> None:
        if dataclasses.is_dataclass(owner) and not isinstance(owner, type):
            object.__setattr__(owner, attr, val)   # frozen manifold instances
        else:
            setattr(owner, attr, val)

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            self._set(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            self._set(owner, attr, original)

    def dump(self) -> dict:
        return {
            "aggregates": {name: {"calls": self.calls[name], "self_s": self.self_s[name],
                                  "points": self.points[name]} for name in NAMES},
            "span_fields": ["id", "parent", "name", "start", "end", "points"],
            "spans": self.spans,
        }
