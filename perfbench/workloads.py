"""Seeded job workloads for the klyachko benchmark.

Each workload turns a seed into a pool of jobs (``setup``), runs one job
(``run``, the only timed call) and checks a job's output (``check``).
Checks compare against the brute-force oracles in ``klyachko.monomials``,
never against the layer under test, except in ``crosscheck_cli``, which
also compares CLI output with the direct library result.  Oracle answers
are cached per pool index, so a pool that wraps around is not re-checked
at full cost.

Job sizes are chosen per fan so that a job takes tens of milliseconds on
the seed code, on one core; a run then holds hundreds of jobs, which is
what keeps the figures steady from one seed to the next.
"""

import contextlib
import hashlib
import importlib
import io
import json
import random
from pathlib import Path

import klyachko as kl
from klyachko.monomials import divides


def random_gens(rng, nvars, ngens, max_exp, spread=False):
    """``ngens`` exponent vectors in [0, max_exp]^nvars.

    With ``spread`` every variable reaches both 0 and ``max_exp`` on some
    generator, so the exponent box of the ideal has its full width.
    """
    gens = [[rng.randint(0, max_exp) for _ in range(nvars)] for _ in range(ngens)]
    if spread:
        for var in range(nvars):
            top, bottom = rng.sample(range(ngens), 2)
            gens[top][var], gens[bottom][var] = max_exp, 0
    return [tuple(g) for g in gens]


def box_volume(ideal):
    """Points of the box between the ideal's floor and its largest exponents."""
    total = 1
    for var in range(ideal.nvars):
        column = [g[var] for g in ideal.gens]
        total *= max(column) - min(column) + 1
    return total


def orthant_member(gens, cone, values):
    """Oracle membership: some generator divides the monomial on the cone's rays."""
    point = tuple(values[ray] for ray in cone)
    return any(divides(tuple(g[ray] for ray in cone), point) for g in gens)


def membership_probes(rng, gens, cone, count):
    """Pairing values near the generators' corners, plus uniform ones."""
    top = max(max(g) for g in gens) + 2
    probes = []
    for k in range(count):
        if k % 2:
            g = rng.choice(gens)
            probes.append({ray: g[ray] + rng.randint(-1, 1) for ray in cone})
        else:
            probes.append({ray: rng.randint(-1, top) for ray in cone})
    return probes


def diagram_mismatch(fan, diag, gens, rng, probes_per_cone, offset=None):
    """First probe where diagram membership disagrees with divisibility.

    ``diag`` maps each cone to an object with ``support`` and ``gaps``
    regions.  With ``offset`` (a divisor) the regions are those of the
    twist, so a value v is a member iff v + offset is one for ``gens``.
    """
    for cone in sorted(diag):
        if not cone:
            continue
        entry = diag[cone]
        for values in membership_probes(rng, gens, cone, probes_per_cone):
            got = (entry.support.contains_values(values)
                   and not entry.gaps.contains_values(values))
            lifted = values if offset is None else {
                ray: v + offset[ray] for ray, v in values.items()}
            if got != orthant_member(gens, cone, lifted):
                return f"cone {cone}: pairings {values} member={got}"
    return None


def h1_oracle(grading, sat, ideal, degree):
    """Monomials of the class that lie in the saturation but not in the ideal."""
    return sum(1 for e in kl.monomials_of_degree(grading, degree)
               if e in sat and e not in ideal)


def irrelevant_gens(fan):
    """Per maximal cone, the product of the variables outside it."""
    return [tuple(0 if ray in cone else 1 for ray in range(fan.nrays))
            for cone in fan.max_cones]


def spread_summary(values):
    values = sorted(values)
    return {"min": values[0], "median": values[len(values) // 2], "max": values[-1]}


class Workload:
    """What every workload provides; see the subclasses."""

    modules = ()   # imported before set-up, so set-up does not time imports

    def output_bytes(self, job, output):
        """Bytes the job wrote as output; only CLI jobs write any."""
        return 0


class Context:
    """The set-up state of one run: fans, gradings, the job pool and oracle caches."""

    def __init__(self, seed, fans):
        self.seed = seed
        self.fans = {name: kl.named_fan(name) for name in fans}
        self.gradings = {name: kl.compute_grading(fan) for name, fan in self.fans.items()}
        self.jobs = []
        self.oracle = {}
        self.digests = {}

    def check_rng(self, index):
        return random.Random(f"{self.seed}:{index}")


class DiagramAlgebra(Workload):
    name = "diagram_algebra"
    # fan, generators per ideal, largest exponent
    fans = [("P3", 12, 6), ("P1xP2", 12, 6), ("P4", 5, 4), ("P2xP2", 4, 4)]
    pool_size = 768
    trace_jobs = 32
    probes_per_cone = 6

    def setup(self, seed, workdir):
        ctx = Context(seed, [f for f, _, _ in self.fans])
        rng = random.Random(seed)
        for index in range(self.pool_size):
            name, ngens, max_exp = self.fans[index % len(self.fans)]
            fan = ctx.fans[name]
            first = kl.MonomialIdeal(random_gens(rng, fan.nrays, ngens, max_exp))
            second = kl.MonomialIdeal(random_gens(rng, fan.nrays, ngens, max_exp))
            divisor = tuple(rng.randint(-3, 3) for _ in range(fan.nrays))
            ctx.jobs.append((name, first, second, divisor))
        return ctx

    def run(self, ctx, job):
        name, first, second, divisor = job
        fan = ctx.fans[name]
        total = kl.sum_diagram(fan, kl.compute_diagram(fan, first),
                               kl.compute_diagram(fan, second))
        return total, kl.shift_diagram(fan, total, divisor)

    def check(self, ctx, index, job, output):
        name, first, second, divisor = job
        fan = ctx.fans[name]
        gens = kl.ideal_sum(first, second).gens
        total, shifted = output
        rng = ctx.check_rng(index)
        problem = diagram_mismatch(fan, total.entries, gens, rng, self.probes_per_cone)
        if problem:
            return "sum diagram: " + problem
        problem = diagram_mismatch(fan, shifted, gens, rng, self.probes_per_cone,
                                   offset=divisor)
        return "shifted diagram: " + problem if problem else None

    def describe(self, ctx):
        return {
            "fans": [{"fan": f, "gens_per_ideal": g, "max_exponent": e}
                     for f, g, e in self.fans],
            "pool_jobs": len(ctx.jobs),
            "generators": spread_summary([len(j[1].gens) for j in ctx.jobs]
                                         + [len(j[2].gens) for j in ctx.jobs]),
            "exponent_box": spread_summary([box_volume(j[1]) for j in ctx.jobs]),
            "shift_range": [-3, 3],
        }


class Saturate(Workload):
    name = "saturate"
    # fan, generators, largest exponent; every variable spans [0, largest]
    fans = [("P2", 5, 24), ("P3", 5, 6), ("P4", 4, 3), ("P1xP2", 5, 5)]
    box_fans = ("P3",)   # a box sweep takes seconds on P4 and P1xP2 and has a long tail on P2
    box_every = 2        # one job in every two on a box fan, at a seeded slot
    pool_size = 768
    trace_jobs = 32

    def setup(self, seed, workdir):
        ctx = Context(seed, [f for f, _, _ in self.fans])
        rng = random.Random(seed)
        slot = None
        for index in range(self.pool_size):
            name, ngens, max_exp = self.fans[index % len(self.fans)]
            fan, grading = ctx.fans[name], ctx.gradings[name]
            ideal = kl.MonomialIdeal(random_gens(rng, fan.nrays, ngens, max_exp,
                                                 spread=True))
            turn = index // len(self.fans) % self.box_every
            if turn == 0 and index % len(self.fans) == 0:
                slot = rng.randrange(self.box_every)
            box = None
            if name in self.box_fans and turn == slot:
                # the class range of the answer, one step wider on each side
                sat = kl.saturate_oracle(ideal, fan)
                ctx.oracle[index] = sat
                classes = [grading.degree(g) for g in sat.gens]
                box = [(min(c[i] for c in classes) - 1, max(c[i] for c in classes) + 1)
                       for i in range(grading.rank)]
            ctx.jobs.append((name, ideal, box))
        return ctx

    def run(self, ctx, job):
        name, ideal, box = job
        diag = kl.compute_diagram(ctx.fans[name], ideal)
        return kl.reconstruct_generators(ctx.gradings[name], diag, search_box=box)

    def check(self, ctx, index, job, output):
        name, ideal, _ = job
        if index not in ctx.oracle:
            ctx.oracle[index] = kl.saturate_oracle(ideal, ctx.fans[name])
        expected = ctx.oracle[index]
        if output != expected:
            return f"reconstruction {list(output.gens)} != oracle {list(expected.gens)}"
        return None

    def describe(self, ctx):
        return {
            "fans": [{"fan": f, "gens": g, "max_exponent": e} for f, g, e in self.fans],
            "pool_jobs": len(ctx.jobs),
            "jobs_with_search_box": sum(1 for j in ctx.jobs if j[2] is not None),
            "generators": spread_summary([len(j[1].gens) for j in ctx.jobs]),
            "exponent_box": spread_summary([box_volume(j[1]) for j in ctx.jobs]),
        }


class HilbertH1(Workload):
    name = "hilbert_h1"
    # fan, generators, largest exponent, multiples of the top generator class
    fans = [("P2", 3, 3, (1, 4, 16)), ("H3", 2, 2, (1, 4, 16)),
            ("P3", 3, 2, (1, 4)), ("P1xP2", 3, 2, (1, 4))]
    pool_size = 512
    trace_jobs = 16

    def setup(self, seed, workdir):
        ctx = Context(seed, [f[0] for f in self.fans])
        rng = random.Random(seed)
        for index in range(self.pool_size):
            name, ngens, max_exp, multiples = self.fans[index % len(self.fans)]
            fan, grading = ctx.fans[name], ctx.gradings[name]
            # I = J * B is not saturated: its saturation contains J
            inner = kl.MonomialIdeal(random_gens(rng, fan.nrays, ngens, max_exp))
            ideal = kl.MonomialIdeal([tuple(a + b for a, b in zip(g, outside))
                                      for g in inner.gens
                                      for outside in irrelevant_gens(fan)])
            classes = [grading.degree(g) for g in ideal.gens]
            top = tuple(max(c[i] for c in classes) for i in range(grading.rank))
            ladder = [tuple(k * x for x in top) for k in multiples]
            missing = sorted({grading.degree(g) for g in inner.gens if g not in ideal})
            picked = rng.sample(missing, min(2, len(missing))) or [top]
            h1_classes = []
            for c in picked:
                h1_classes += [c, (c[0] + 1,) + c[1:]]
            ctx.jobs.append((name, ideal, ladder, h1_classes))
        return ctx

    def run(self, ctx, job):
        name, ideal, ladder, h1_classes = job
        fan, grading = ctx.fans[name], ctx.gradings[name]
        diag = kl.compute_diagram(fan, ideal)
        values = [kl.hilbert_value_general(grading, ideal, u) for u in ladder]
        h1 = [kl.local_cohomology_h1(grading, ideal, grading.canonical_lift(u),
                                     diag=diag).dimension
              for u in h1_classes]
        constant, _ = kl.constant_hilbert_poly(fan, diag)
        return values, h1, constant

    def check(self, ctx, index, job, output):
        name, ideal, ladder, h1_classes = job
        grading = ctx.gradings[name]
        key = ("truth", index)
        if key not in ctx.oracle:
            sat = kl.saturate_oracle(ideal, ctx.fans[name])
            values = [kl.hilbert_oracle(sat, grading, u) for u in ladder]
            h1 = [h1_oracle(grading, sat, ideal, u) for u in h1_classes]
            ctx.oracle[key] = (values, h1)
        values, h1 = ctx.oracle[key]
        if output[0] != values:
            return f"Hilbert values {output[0]} at {ladder}, oracle {values}"
        if output[1] != h1:
            return f"H^1 dimensions {output[1]} at {h1_classes}, oracle {h1}"
        return None

    def describe(self, ctx):
        ladders = {}
        for name, _, ladder, _ in ctx.jobs:
            ladders.setdefault(name, []).append(ladder[-1])
        return {
            "fans": [{"fan": f, "gens": g, "max_exponent": e, "multiples": list(m)}
                     for f, g, e, m in self.fans],
            "pool_jobs": len(ctx.jobs),
            "generators": spread_summary([len(j[1].gens) for j in ctx.jobs]),
            "exponent_box": spread_summary([box_volume(j[1]) for j in ctx.jobs]),
            "top_degree": {name: spread_summary(v) for name, v in ladders.items()},
            "h1_classes_per_job": spread_summary([len(j[3]) for j in ctx.jobs]),
        }


class CrosscheckCli(Workload):
    name = "crosscheck_cli"
    commands = ("diagram", "saturate", "hilbert", "h1", "sum", "check", "render")
    fans = [("P2", 4, 4), ("H3", 4, 3), ("P1xP1", 4, 4)]
    check_cases = 2
    modules = ("klyachko.cli",)
    pool_size = 7 * 96
    trace_jobs = 7 * 6
    probes_per_cone = 6

    def setup(self, seed, workdir):
        ctx = Context(seed, [f for f, _, _ in self.fans])
        ctx.cli = importlib.import_module("klyachko.cli")
        workdir.mkdir(parents=True, exist_ok=True)
        rng = random.Random(seed)
        ctx.groups = []
        for group in range(self.pool_size // len(self.commands)):
            name, ngens, max_exp = self.fans[group % len(self.fans)]
            fan, grading = ctx.fans[name], ctx.gradings[name]
            first = kl.MonomialIdeal(random_gens(rng, fan.nrays, ngens, max_exp))
            second = kl.MonomialIdeal(random_gens(rng, fan.nrays, ngens, max_exp))
            paths = {}
            for label, ideal in (("first", first), ("second", second)):
                paths[label] = workdir / f"g{group}_{label}.json"
                paths[label].write_text(json.dumps(ideal.to_json()))
            paths["diagram"] = workdir / f"g{group}_diagram.json"
            classes = [grading.degree(g) for g in first.gens]
            top = [max(c[i] for c in classes) for i in range(grading.rank)]
            degrees = ",".join(f"{t - 1}..{t + 1}" for t in top)
            suite_seed = rng.randrange(10 ** 6)
            ctx.groups.append((name, first, second, degrees, suite_seed))
            for command in self.commands:
                index = len(ctx.jobs)
                out = workdir / f"j{index}.{'svg' if command == 'render' else 'json'}"
                ctx.jobs.append((group, command,
                                 self._argv(command, name, paths, degrees,
                                            suite_seed, out), out))
        return ctx

    def _argv(self, command, fan, paths, degrees, suite_seed, out):
        first, second = str(paths["first"]), str(paths["second"])
        args = {
            "diagram": ["diagram", fan, first],
            "saturate": ["saturate", fan, str(paths["diagram"])],
            "hilbert": ["hilbert", fan, first, "--degrees", degrees],
            "h1": ["h1", fan, first, "--degrees", degrees],
            "sum": ["sum", fan, first, second],
            "check": ["check", fan, "--random", str(self.check_cases),
                      "--seed", str(suite_seed)],
            "render": ["render", fan, first],
        }[command]
        if command == "diagram":
            # ASCII panels go to stderr; the saturate job of the same group
            # reads this diagram back
            return args + ["--render", "--out", str(paths["diagram"])]
        return args + ["--out", str(out)]

    def run(self, ctx, job):
        _, _, argv, _ = job
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = ctx.cli.main(list(argv))
        return code, stdout.getvalue(), stderr.getvalue()

    def output_bytes(self, job, output):
        path = Path(job[2][-1])
        return len(output[1].encode()) + path.stat().st_size

    def check(self, ctx, index, job, output):
        group, command, argv, _ = job
        code, stdout, stderr = output
        if code != 0:
            return f"{command}: exit code {code}: {stderr.strip()}"
        text = Path(argv[-1]).read_text(encoding="utf-8")
        digest = hashlib.sha256("\0".join((stdout, stderr, text)).encode()).hexdigest()
        first_digest = ctx.digests.setdefault(index, digest)
        if digest != first_digest:
            return f"{command}: output differs from the first run of this job"
        if index not in ctx.oracle:
            ctx.oracle[index] = self._expected(ctx, group, command, text, stderr)
        return ctx.oracle[index]

    def _expected(self, ctx, group, command, text, stderr):
        """Compare one output with the library and the oracles; None if it agrees."""
        name, first, second, degrees, suite_seed = ctx.groups[group]
        fan, grading = ctx.fans[name], ctx.gradings[name]
        rng = random.Random(f"{ctx.seed}:{group}:{command}")
        if command == "render":
            expected = kl.svg_diagram(fan, kl.compute_diagram(fan, first))
            return None if text == expected else "render: SVG differs from svg_diagram"
        payload = json.loads(text)
        sat = kl.saturate_oracle(first, fan)
        if command == "diagram":
            library = kl.compute_diagram(fan, first)
            problem = diagram_mismatch(fan, library.entries, first.gens, rng,
                                       self.probes_per_cone)
            if stderr != kl.ascii_diagram(fan, library):
                problem = "ASCII panels differ from ascii_diagram"
        elif command == "sum":
            library = kl.sum_diagram(fan, kl.compute_diagram(fan, first),
                                     kl.compute_diagram(fan, second))
            problem = diagram_mismatch(fan, library.entries,
                                       kl.ideal_sum(first, second).gens, rng,
                                       self.probes_per_cone)
        elif command == "saturate":
            library = kl.reconstruct_generators(grading, kl.compute_diagram(fan, first))
            problem = None if library == sat else f"saturation {library.gens} != oracle"
        elif command in ("hilbert", "h1"):
            library, problem = self._graded(fan, grading, first, sat, degrees, command)
        else:
            checks = importlib.import_module("klyachko.checks")
            library = checks.run_suite(fan, seed=suite_seed, count=self.check_cases)
            failing = [p["name"] for p in library["properties"] if p["status"] != "pass"]
            problem = f"check: failing properties {failing}" if failing else None
        if not isinstance(library, dict):
            library = library.to_json()
        if payload != json.loads(json.dumps(library)):
            return f"{command}: output differs from the direct library result"
        return f"{command}: {problem}" if problem else None

    def _graded(self, fan, grading, ideal, sat, degrees, command):
        ranges = [tuple(int(x) for x in part.split("..")) for part in degrees.split(",")]
        classes = [()]
        for lo, hi in ranges:
            classes = [c + (v,) for c in classes for v in range(lo, hi + 1)]
        if command == "hilbert":
            values = [{"degree": list(u),
                       "value": kl.hilbert_value_general(grading, ideal, u)}
                      for u in classes]
            constant, note = kl.constant_hilbert_poly(fan, kl.compute_diagram(fan, ideal))
            truth = [kl.hilbert_oracle(sat, grading, u) for u in classes]
            got = [v["value"] for v in values]
            problem = None if got == truth else f"Hilbert values {got} != oracle {truth}"
            return {"values": values, "constant_poly": constant, "note": note}, problem
        diag = kl.compute_diagram(fan, ideal)
        pieces = []
        for u in classes:
            piece = kl.local_cohomology_h1(grading, ideal, grading.canonical_lift(u),
                                           diag=diag)
            pieces.append({"degree": list(u), "dimension": piece.dimension,
                           "monomials": piece.monomial_strings()})
        truth = [h1_oracle(grading, sat, ideal, u) for u in classes]
        got = [p["dimension"] for p in pieces]
        problem = None if got == truth else f"H^1 dimensions {got} != oracle {truth}"
        return {"pieces": pieces}, problem

    def describe(self, ctx):
        return {
            "fans": [{"fan": f, "gens": g, "max_exponent": e} for f, g, e in self.fans],
            "commands": list(self.commands),
            "pool_jobs": len(ctx.jobs),
            "check_random_cases": self.check_cases,
            "generators": spread_summary([len(g[1].gens) for g in ctx.groups]),
            "exponent_box": spread_summary([box_volume(g[1]) for g in ctx.groups]),
        }


WORKLOADS = {w.name: w for w in (DiagramAlgebra(), Saturate(), HilbertH1(), CrosscheckCli())}
