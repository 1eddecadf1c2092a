"""Span tracing for the benchmark's traced run.

The tracer wraps public functions and methods of the ``heatansatz``
modules from outside the package: it rebinds every module global and
class attribute that refers to a wrapped function, so calls made inside
the package go through the wrapper too.  Nothing in ``src/`` changes.

Each wrapped call records one span (group, start, end, parent span, job
index).  Self time is the span's duration minus the time covered by its
child spans; the tracer's own bookkeeping for a child (wrapper entry and
exit, result statistics) is charged to neither side, so it shows only in
the traced wall time and hence in ``trace.overhead``.
"""

from __future__ import annotations

import json
import sys
import types
from array import array
from time import perf_counter

# (module, attribute path, group).  Group names are the per-layer metric
# prefixes reported by the benchmark.
TARGETS = [
    *[("grpoly", f"GradedPoly.{m}", "grpoly.build") for m in (
        "__add__", "__sub__", "__neg__", "__mul__", "__pow__", "partial", "substitute", "with_nvars")],
    ("grpoly", "GradedPoly.evaluate", "grpoly.evaluate"),
    *[("operators", name, "operators") for name in (
        "jet_derivative", "weighted_derivative", "annihilator", "euler_operator", "derivative_chain",
        "basis_elements", "expand_basis", "decompose_basis", "is_annihilated")],
    *[("ansatz", name, "ansatz") for name in (
        "jet_phi_table", "jet_phi_remainders", "general_phi_table", "reduced_phi_table", "phi_table_for",
        "ansatz_to_jet", "check_coefficient_recursion", "AnsatzSpec.general", "AnsatzSpec.reduced",
        "AnsatzSpec.chain")],
    ("dynsys", "rational_top", "dynsys.top"),
    ("dynsys", "RationalH.jets", "dynsys.jets"),
    ("dynsys", "heat_system_field", "dynsys.field"),
    ("dynsys", "reduced_system_field", "dynsys.field"),
    ("dynsys", "rk4_integrate", "dynsys.rk4"),
    *[("dynsys", name, "dynsys.state") for name in ("reduced_initial_state", "ode_residual", "chazy4_residual")],
    *[("solution", name, "solution.exact") for name in (
        "assemble_psi", "cole_hopf", "heat_residual_series", "_burgers_series_residual",
        "SeriesSolution.bracket_jets", "BurgersSolution.series_values")],
    ("solution", "SeriesSolution.psi", "solution.eval"),
    ("solution", "BurgersSolution.v", "solution.eval"),
    # closed forms return the evaluator; its calls are the eval points
    ("solution", "closed_form_0ansatz", "solution.eval.factory"),
    ("solution", "closed_form_1ansatz", "solution.eval.factory"),
    *[("solution", name, "solution.fd") for name in (
        "diffusion_residual_numeric", "heat_residual_numeric", "_burgers_grid_residual")],
    ("verify", "run_suite", "verify"),
    ("cli", "run", "cli"),
]

# layer (module) of each group, for the self-time shares
LAYER = {
    "grpoly.build": "grpoly", "grpoly.evaluate": "grpoly", "operators": "operators", "ansatz": "ansatz",
    "dynsys.top": "dynsys", "dynsys.jets": "dynsys", "dynsys.field": "dynsys", "dynsys.rk4": "dynsys",
    "dynsys.state": "dynsys", "solution.exact": "solution", "solution.eval": "solution",
    "solution.eval.factory": "solution", "solution.fd": "solution", "verify": "verify", "cli": "cli",
}

GROUPS = list(LAYER)


class Tracer:
    """Collects spans while ``active``; ``install`` rebinds the targets."""

    def __init__(self) -> None:
        self.active = False
        self.job = -1
        self._restore: list[tuple[object, str, object]] = []
        self.calls = [0] * len(GROUPS)
        self.self_s = [0.0] * len(GROUPS)
        self.counters: dict[str, int] = {}
        self._stack: list[list] = []  # [span id, child seconds] per open span
        self.span_group = array("H")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.reset()

    # -- data ---------------------------------------------------------------

    def reset(self) -> None:
        """Drop all spans and totals (in place: the wrappers hold references)."""
        for i in range(len(GROUPS)):
            self.calls[i] = 0
            self.self_s[i] = 0.0
        self.counters.clear()
        self.counters.update({"grpoly.terms_out": 0, "grpoly.max_coeff_bits": 0, "grpoly.max_nvars": 0,
                              "ansatz.table_terms": 0, "dynsys.rk4.steps": 0, "solution.image_terms": 0,
                              "cli.bytes_out": 0})
        self._stack.clear()
        for col in (self.span_group, self.span_parent, self.span_job, self.span_start, self.span_end):
            del col[:]

    def add(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def group_calls(self, group: str) -> int:
        return self.calls[GROUPS.index(group)]

    def group_self(self, group: str) -> float:
        return self.self_s[GROUPS.index(group)]

    def layer_self(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for g, s in zip(GROUPS, self.self_s):
            out[LAYER[g]] = out.get(LAYER[g], 0.0) + s
        return out

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, gid: int, post):
        # hot path: everything it touches is bound to a local up front (the
        # containers are only ever cleared in place)
        tracer, stack, ends = self, self._stack, self.span_end
        add_group, add_parent = self.span_group.append, self.span_parent.append
        add_job, add_start, add_end = self.span_job.append, self.span_start.append, ends.append
        self_s, calls = self.self_s, self.calls

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            t_in = perf_counter()
            span = len(ends)
            add_group(gid)
            add_parent(stack[-1][0] if stack else -1)
            add_job(tracer.job)
            add_start(t_in)
            add_end(t_in)
            frame = [span, 0.0]  # span id, seconds covered by children
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                ends[span] = end
                self_s[gid] += end - start - frame[1]
                calls[gid] += 1
            if post is not None and result is not NotImplemented:
                result = post(result)
            if stack:
                stack[-1][1] += perf_counter() - t_in
            return result

        traced.__wrapped__ = fn
        return traced

    def _post(self, group: str, attr: str):
        add = self.add
        counters = self.counters

        if group == "grpoly.build":
            build = GROUPS.index("grpoly.build")
            stack, span_group = self._stack, self.span_group

            def post(poly):
                counters["grpoly.terms_out"] += len(poly)
                if poly.nvars > counters["grpoly.max_nvars"]:
                    counters["grpoly.max_nvars"] = poly.nvars
                # coefficient sizes of results leaving the kernel only; the
                # intermediates of a nested build end up in its result
                if stack and span_group[stack[-1][0]] == build:
                    return poly
                bits = counters["grpoly.max_coeff_bits"]
                # the term dict if the representation has one; terms() sorts
                terms = getattr(poly, "_terms", None)
                coeffs = terms.values() if isinstance(terms, dict) else (c for _, c in poly.terms())
                for c in coeffs:
                    b = max(c.numerator.bit_length(), c.denominator.bit_length())
                    if b > bits:
                        bits = b
                counters["grpoly.max_coeff_bits"] = bits
                return poly
            return post
        if group == "ansatz" and attr.endswith(("_table", "_remainders")):
            def post(table):
                entries = table.entries if hasattr(table, "entries") else table
                add("ansatz.table_terms", sum(len(p) for p in entries))
                return table
            return post
        if group == "dynsys.rk4":
            def post(states):
                add("dynsys.rk4.steps", len(states) - 1)
                return states
            return post
        if attr == "cole_hopf":
            def post(image):
                add("solution.image_terms", sum(len(p) for p in image.series_jets))
                return image
            return post
        if group == "cli":
            def post(code):
                # the caller captures stdout in a StringIO; CLI output is ASCII
                out = sys.stdout
                if hasattr(out, "getvalue"):
                    add("cli.bytes_out", len(out.getvalue()))
                return code
            return post
        if group == "solution.eval.factory":
            evaluate = self._wrap_evaluator

            def post(fn):
                return evaluate(fn)
            return post
        return None

    def _wrap_evaluator(self, fn):
        return self._wrap(fn, GROUPS.index("solution.eval"), None)

    def install(self, modules: dict[str, types.ModuleType]) -> None:
        """Wrap every target, rebinding all references inside the package."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        replacements: dict[int, tuple[object, object]] = {}
        for mod_name, path, group in TARGETS:
            owner = modules[mod_name]
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            raw = owner.__dict__[parts[-1]] if isinstance(owner, type) else getattr(owner, parts[-1])
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            wrapped = self._wrap(fn, GROUPS.index(group), self._post(group, parts[-1]))
            if isinstance(raw, classmethod):
                replacements[id(raw)] = (raw, classmethod(wrapped))
            else:
                replacements[id(fn)] = (fn, wrapped)
        for module in modules.values():
            for owner in [module] + [v for v in vars(module).values()
                                     if isinstance(v, type) and v.__module__.startswith("heatansatz")]:
                for attr, value in list(vars(owner).items()):
                    hit = replacements.get(id(value))
                    if hit is not None and hit[0] is value:
                        self._restore.append((owner, attr, value))
                        setattr(owner, attr, hit[1])
        bound = {id(orig) for owner, attr, orig in self._restore}
        missing = [orig for orig, _ in replacements.values() if id(orig) not in bound]
        if missing:
            self.uninstall()
            raise RuntimeError(f"trace targets not found: {missing}")

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- output -------------------------------------------------------------

    def write_spans(self, path) -> None:
        """Write the kept spans: one JSON header line, then the raw columns."""
        columns = [("group", self.span_group), ("parent", self.span_parent), ("job", self.span_job),
                   ("start", self.span_start), ("end", self.span_end)]
        header = {"groups": GROUPS, "count": len(self.span_start),
                  "columns": [[name, col.typecode, col.itemsize] for name, col in columns],
                  "byteorder": "native"}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for _, col in columns:
                col.tofile(fh)
