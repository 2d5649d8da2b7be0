"""In-memory span tracing of affquant's public functions, installed from outside.

The tracer replaces each named function with a wrapper in every affquant
module (and module-level dict, such as the verify suite table) that binds it,
records one span per call while tracing is enabled, and puts the originals
back when it is uninstalled.  Nothing inside the package is edited.

A span is (name, start_ns, end_ns, parent index, request id).  Spans stay in
memory until :meth:`Tracer.write_spans`; self time is derived afterwards as a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

# (module, attribute) of every traced function, with the span name it records.
# evolve_cauchy is split by its method argument; the suites are looked up
# through verify's suite table as well as the module attributes.
SPAN_TARGETS = (
    ("symbol_algebra", "star"),
    ("symbol_algebra", "star_commutator"),
    ("symbol_algebra", "p_r"),
    ("symbol_algebra", "derive"),
    ("lie_aff", "hamiltonian"),
    ("lie_aff", "bracket"),
    ("lie_aff", "coadjoint_act"),
    ("lie_aff", "classify_orbit"),
    ("lie_aff", "exp_group"),
    ("quantize", "generator_commutator_matches_bracket"),
    ("quantize", "ell_z_truncated"),
    ("quantize", "apply_generator"),
    ("quantize", "to_s_coordinates"),
    ("quantize", "verify_conjugation"),
    ("grids", "partial_fourier"),
    ("grids", "spectral_derivative"),
    ("grids", "tail_mass_fraction"),
    ("grids", "fd8_derivative"),
    ("io", "read_grid_binary"),
    ("io", "write_grid_binary"),
    ("representation", "rep_apply"),
    ("representation", "rep_one_param"),
    ("representation", "inner_product"),
    ("representation", "check_generator"),
    ("representation", "evolve_cauchy"),
    ("verify", "suite_lie_hom"),
    ("verify", "suite_conjugation"),
    ("verify", "suite_generator"),
    ("verify", "suite_exponentiate"),
    ("verify", "suite_unitarity"),
    ("cli", "main"),
)

EVOLVE_METHODS = ("rk4", "characteristics")


def span_names() -> list[str]:
    names = []
    for module, attr in SPAN_TARGETS:
        if attr == "evolve_cauchy":
            names.extend(f"{module}.{attr}.{m}" for m in EVOLVE_METHODS)
        else:
            names.append(f"{module}.{attr}")
    return names


# Spans that can have traced children, so a self time is reported for them.
HAS_CHILDREN = frozenset({
    "symbol_algebra.star", "symbol_algebra.star_commutator", "symbol_algebra.p_r",
    "quantize.generator_commutator_matches_bracket", "quantize.ell_z_truncated",
    "quantize.apply_generator", "quantize.to_s_coordinates",
    "quantize.verify_conjugation", "grids.partial_fourier",
    "representation.evolve_cauchy.rk4", "representation.check_generator",
    "verify.suite_lie_hom", "verify.suite_conjugation", "verify.suite_generator",
    "verify.suite_exponentiate", "verify.suite_unitarity", "cli.main",
})


class Tracer:
    """Records spans and counts for the affquant modules it is installed on."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self.request_id = -1
        self.enabled = False
        self._stack: list[int] = []
        self._restore: list = []

    # -- installation ---------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding of the traced functions; restore on exit."""
        try:
            self._install()
            yield self
        finally:
            self.enabled = False
            for owner, key, original in reversed(self._restore):
                if isinstance(owner, dict):
                    owner[key] = original
                else:
                    setattr(owner, key, original)
            self._restore.clear()

    def _install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "affquant" or name.startswith("affquant."))]
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        replacements = {}
        for module, attr in SPAN_TARGETS:
            original = getattr(by_name[module], attr)
            replacements[id(original)] = (original, self._wrap(f"{module}.{attr}", original))
        for mod in modules:
            for key, value in list(vars(mod).items()):
                self._maybe_patch(mod, key, value, replacements)
                if isinstance(value, dict):
                    for dkey, dvalue in list(value.items()):
                        self._maybe_patch(value, dkey, dvalue, replacements)
        cr = by_name["rational"].ComplexRational
        original_init = cr.__init__
        tracer = self

        def counting_init(obj, *args, **kwargs):
            if tracer.enabled:
                tracer.counts["rational.ComplexRational.calls"] += 1
            original_init(obj, *args, **kwargs)

        cr.__init__ = counting_init
        self._restore.append((cr, "__init__", original_init))

    def _maybe_patch(self, owner, key, value, replacements):
        hit = replacements.get(id(value))
        if hit is None or hit[0] is not value:
            return
        if isinstance(owner, dict):
            owner[key] = hit[1]
        else:
            setattr(owner, key, hit[1])
        self._restore.append((owner, key, value))

    def _wrap(self, name, fn):
        tracer = self
        namer = None
        if name == "representation.evolve_cauchy":
            signature = inspect.signature(fn)

            def namer(args, kwargs):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                method = bound.arguments["method"]
                if method == "rk4":
                    tracer.counts["representation.rk4.point_steps"] += (
                        bound.arguments["steps"] * bound.arguments["f"].n)
                return f"{name}.{method}"
        elif name == "grids.fd8_derivative":
            def namer(args, kwargs):
                values = args[0] if args else kwargs["values"]
                tracer.counts["grids.fd8_derivative.points"] += values.size
                return name

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span_name = name if namer is None else namer(args, kwargs)
            stack = tracer._stack
            index = len(tracer.spans)
            tracer.spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except Exception:
                tracer.errors[span_name] += 1
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                tracer.spans[index] = (span_name, start, end, parent, tracer.request_id)

        return wrapper

    # -- results --------------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer metrics: calls, busy_s, self_s, errors and the counts."""
        calls = Counter()
        busy = defaultdict(int)
        child = defaultdict(int)
        for name, start, end, parent, _rid in self.spans:
            calls[name] += 1
            busy[name] += end - start
            if parent >= 0:
                child[self.spans[parent][0]] += end - start
        out = {}
        for name in span_names():
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.busy_s"] = busy[name] / 1e9
            if name in HAS_CHILDREN:
                out[f"{name}.self_s"] = (busy[name] - child[name]) / 1e9
            out[f"{name}.errors"] = self.errors[name]
        out["rational.ComplexRational.calls"] = self.counts["rational.ComplexRational.calls"]
        out["representation.rk4.point_steps"] = self.counts["representation.rk4.point_steps"]
        points = self.counts["grids.fd8_derivative.points"]
        out["grids.fd8_derivative.ns_per_point"] = (
            busy["grids.fd8_derivative"] / points if points else 0.0)
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index,name,start_ns,end_ns,parent,request_id\n")
            for index, (name, start, end, parent, rid) in enumerate(self.spans):
                fh.write(f"{index},{name},{start},{end},{parent},{rid}\n")
