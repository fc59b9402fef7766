"""Span tracing for the traced benchmark run.

``install`` replaces public functions of the ``klyachko`` modules with
wrappers, everywhere the function object is bound: its defining module,
the package namespace and every module that imported it by name.  Most
wrappers record a span (name, start, end, parent span, job id); functions
called once per lattice point only bump a call counter, so the trace does
not drown the run in spans.  Nothing is recorded while the tracer is
disabled, which is how the benchmark keeps its own oracle checks out of
the trace.

``layer_metrics`` turns the recorded spans into the per-layer metrics.  A
span's self time is its duration minus the part of it covered by its
child spans.
"""

import importlib
import pkgutil
import time

# Wrapped with a span: layer -> public names in that module.
SPANNED = {
    "lattice": ["enumerate_lattice_points", "count_lattice_points"],
    "regions": ["LatticeRegion.__and__", "LatticeRegion.__or__",
                "LatticeRegion.__sub__", "LatticeRegion.disjoint_cells",
                "LatticeRegion.equivalent", "LatticeRegion.shift",
                "region_points", "region_is_finite", "count_region_points",
                "polytope_points"],
    "diagram": ["compute_diagram", "sum_diagram", "shift_diagram",
                "gaps_by_definition", "KlyachkoDiagram.to_json",
                "KlyachkoDiagram.from_json"],
    "reconstruction": ["reconstruct_generators", "minimal_generator_exponents",
                       "exponent_caps", "graded_basis", "local_cohomology_h1",
                       "span_set"],
    "hilbert": ["hilbert_value_general", "hilbert_value", "quotient_members",
                "ring_dimension", "constant_hilbert_poly"],
    "monomials": ["saturate_oracle", "hilbert_oracle", "monomials_of_degree",
                  "ideal_sum", "ideal_intersect", "minimalize",
                  "colon_var_saturate", "degree_window"],
    "checks": ["check_membership_identity", "check_roundtrip", "check_hilbert",
               "check_saturation_invariance", "check_tie_order", "check_ideal",
               "run_suite", "random_ideal"],
    "cli": ["main", "cmd_diagram", "cmd_saturate", "cmd_hilbert", "cmd_h1",
            "cmd_sum", "cmd_check", "cmd_render"],
    "render": ["ascii_diagram", "svg_diagram"],
    "toric": ["named_fan", "load_fan", "validate_fan", "compute_grading",
              "tau_for_cone"],
    "linalg": ["smith_normal_form", "solve_integer", "invert_unimodular",
               "det", "matmul"],
}

# Called once per lattice point or per region built: a call counter only.
COUNTED = ["linalg.dot", "toric.Fan.pairing",
           "regions.LatticeRegion.contains_values",
           "reconstruction.is_spanned"]


def _gap_cells(fan, diag):
    return sum(len(diag.gaps(cone).cells) for cone in fan.max_cones)


def _box_points(args, result):
    diag = args[1]
    caps, _ = result
    total = 1
    for cap, low in zip(caps, diag.min_exponents):
        total *= cap - low + 1
    return total


# Work amounts read off a call's arguments and return value.
AMOUNTS = {
    "lattice.enumerate_lattice_points": lambda args, r: len(r),
    "regions.polytope_points": lambda args, r: len(r),
    "regions.LatticeRegion.__and__": lambda args, r: len(r.cells),
    "regions.LatticeRegion.__or__": lambda args, r: len(r.cells),
    "regions.LatticeRegion.__sub__": lambda args, r: len(r.cells),
    "diagram.compute_diagram": lambda args, r: _gap_cells(args[0], r),
    "diagram.sum_diagram": lambda args, r: _gap_cells(args[0], r),
    "reconstruction.minimal_generator_exponents": _box_points,
    "reconstruction.reconstruct_generators": lambda args, r: len(r.gens),
    "monomials.monomials_of_degree": lambda args, r: len(r),
}


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.enabled = False
        self.job = None
        self.spans = []      # (name, start, end, parent index or -1, job)
        self.amounts = {}    # span index -> work amount
        self.counts = {}     # counter name -> calls
        self.offered = 0     # cells handed to LatticeRegion
        self.kept = 0        # cells LatticeRegion kept after pruning
        self._stack = []
        self._undo = []

    def reset(self):
        self.spans, self.amounts, self._stack = [], {}, []
        self.counts = dict.fromkeys(self.counts, 0)
        self.offered = self.kept = 0

    def wrap_span(self, name, fn):
        measure = AMOUNTS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            spans, stack = self.spans, self._stack
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.job)
            if measure is not None:
                self.amounts[index] = measure(args, result)
            return result

        return traced

    def wrap_counter(self, name, fn):
        self.counts.setdefault(name, 0)

        def counted(*args, **kwargs):
            if self.enabled:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def wrap_region_init(self, fn):
        def init(region, cone, cells):
            if not self.enabled:
                return fn(region, cone, cells)
            cells = list(cells)
            fn(region, cone, cells)
            self.offered += len(cells)
            self.kept += len(region.cells)
        return init

    def install(self, package):
        """Wrap the functions named in SPANNED and COUNTED; returns names missing."""
        modules = {"": package}
        for info in pkgutil.iter_modules(package.__path__):
            modules[info.name] = importlib.import_module(f"{package.__name__}.{info.name}")
        missing = []
        targets = [(f"{layer}.{attr}", "span") for layer, attrs in SPANNED.items()
                   for attr in attrs]
        targets += [(name, "count") for name in COUNTED]
        targets.append(("regions.LatticeRegion.__init__", "init"))
        for name, kind in targets:
            layer, *path = name.split(".")
            owner = modules.get(layer)
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            original = vars(owner).get(path[-1]) if owner is not None else None
            if original is None:
                missing.append(name)
                continue
            function = getattr(original, "__func__", original)
            if kind == "span":
                wrapper = self.wrap_span(name, function)
            elif kind == "count":
                wrapper = self.wrap_counter(name, function)
            else:
                wrapper = self.wrap_region_init(function)
            if isinstance(original, classmethod):
                wrapper = classmethod(wrapper)
            if len(path) > 1:
                self._rebind(owner, path[-1], wrapper)
            else:
                for module in modules.values():
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._rebind(module, attr, wrapper)
        return missing

    def _rebind(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo = []


def self_times(spans):
    """Self time of each span: its duration minus what its children cover.

    ``spans`` is a list of (name, start, end, parent index, ...) tuples.
    Children may be nested or back to back; overlapping child intervals
    are merged before they are subtracted, and each is clipped to its
    parent.
    """
    children = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    out = []
    for index, span in enumerate(spans):
        start, end = span[1], span[2]
        covered = 0.0
        cursor = start
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def tally(tracer):
    """Per span name: calls, summed self time and summed work amount."""
    selfs = self_times(tracer.spans)
    calls, seconds, amount = {}, {}, {}
    for index, span in enumerate(tracer.spans):
        name = span[0]
        calls[name] = calls.get(name, 0) + 1
        seconds[name] = seconds.get(name, 0.0) + selfs[index]
        if index in tracer.amounts:
            amount[name] = amount.get(name, 0) + tracer.amounts[index]
    return calls, seconds, amount


def child_amounts(tracer, child, parents):
    """Summed amounts of ``child`` spans whose parent span is one of ``parents``."""
    spans = tracer.spans
    calls = amount = 0
    for index, span in enumerate(spans):
        if span[0] == child and span[3] >= 0 and spans[span[3]][0] in parents:
            calls += 1
            amount += tracer.amounts.get(index, 0)
    return calls, amount


def layer_metrics(tracer):
    """The per-layer metrics of one traced pass, as a name -> value dict."""
    calls, seconds, amount = tally(tracer)

    def s(*names):
        return sum(seconds.get(n, 0.0) for n in names)

    def c(*names):
        return sum(calls.get(n, 0) for n in names)

    def a(*names):
        return sum(amount.get(n, 0) for n in names)

    ops = ["regions.LatticeRegion.__and__", "regions.LatticeRegion.__or__",
           "regions.LatticeRegion.__sub__"]
    hilbert_values = ["hilbert.hilbert_value_general", "hilbert.hilbert_value",
                      "hilbert.quotient_members", "hilbert.ring_dimension"]
    fans = ["toric.named_fan", "toric.load_fan", "toric.validate_fan"]
    box = a("reconstruction.minimal_generator_exponents")
    swept, _ = child_amounts(tracer, "reconstruction.graded_basis",
                             {"reconstruction.reconstruct_generators"})
    _, tested = child_amounts(tracer, "regions.polytope_points",
                              {"hilbert.quotient_members"})
    m = {
        "lattice.enumerate_calls": c("lattice.enumerate_lattice_points"),
        "lattice.enumerate_s": s("lattice.enumerate_lattice_points"),
        "lattice.points_enumerated": a("lattice.enumerate_lattice_points"),
        "lattice.count_calls": c("lattice.count_lattice_points"),
        "regions.op_calls": c(*ops),
        "regions.op_s": s(*ops),
        "regions.cells_out": a(*ops),
        "regions.cells_offered": tracer.offered,
        "regions.prune_keep_ratio": tracer.kept / tracer.offered if tracer.offered else 0.0,
        "regions.contains_calls": tracer.counts.get("regions.LatticeRegion.contains_values", 0),
        "regions.polytope_points": a("regions.polytope_points"),
        "regions.polytope_s": s("regions.polytope_points"),
        "regions.count_points_s": s("regions.count_region_points"),
        "diagram.compute_s": s("diagram.compute_diagram"),
        "diagram.sum_s": s("diagram.sum_diagram"),
        "diagram.shift_s": s("diagram.shift_diagram"),
        "diagram.gap_cells": a("diagram.compute_diagram", "diagram.sum_diagram"),
        "reconstruction.reconstruct_s": s("reconstruction.reconstruct_generators"),
        "reconstruction.scan_s": s("reconstruction.minimal_generator_exponents"),
        "reconstruction.box_points": box,
        "reconstruction.classes_swept": swept,
        "reconstruction.graded_basis_calls": c("reconstruction.graded_basis"),
        "reconstruction.graded_basis_s": s("reconstruction.graded_basis"),
        "reconstruction.generator_yield":
            a("reconstruction.reconstruct_generators") / box if box else 0.0,
        "reconstruction.h1_s": s("reconstruction.local_cohomology_h1"),
        "reconstruction.span_set_s": s("reconstruction.span_set"),
        "reconstruction.is_spanned_calls": tracer.counts.get("reconstruction.is_spanned", 0),
        "hilbert.value_s": s(*hilbert_values),
        "hilbert.points_tested": tested,
        "hilbert.constant_poly_s": s("hilbert.constant_hilbert_poly"),
        "monomials.saturate_oracle_s": s("monomials.saturate_oracle"),
        "monomials.hilbert_oracle_s": s("monomials.hilbert_oracle"),
        "monomials.monomials_enumerated": a("monomials.monomials_of_degree"),
        "checks.membership_s": s("checks.check_membership_identity"),
        "checks.roundtrip_s": s("checks.check_roundtrip"),
        "checks.hilbert_s": s("checks.check_hilbert"),
        "checks.saturation_s": s("checks.check_saturation_invariance"),
        "checks.ties_s": s("checks.check_tie_order"),
        "cli.parse_s": s("cli.main"),
        "render.ascii_s": s("render.ascii_diagram"),
        "render.svg_s": s("render.svg_diagram"),
        "toric.fan_s": s(*fans),
        "toric.grading_s": s("toric.compute_grading"),
        "toric.pairing_calls": tracer.counts.get("toric.Fan.pairing", 0),
        "linalg.dot_calls": tracer.counts.get("linalg.dot", 0),
    }
    for name in SPANNED["cli"]:
        if name.startswith("cmd_"):
            m[f"cli.{name[4:]}_s"] = s(f"cli.{name}")
    for layer in SPANNED:
        m[f"{layer}.self_s"] = sum(v for n, v in seconds.items()
                                   if n.split(".", 1)[0] == layer)
    m["trace.spans"] = len(tracer.spans)
    return m
