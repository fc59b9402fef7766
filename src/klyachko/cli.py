"""Command line entry points.

Subcommands: diagram, saturate, hilbert, h1, sum, check, render.  All JSON
output is emitted with sorted keys and sorted payload lists, so repeated
runs are byte-identical.  Exit codes: 0 success, 2 bad input, 3 search box
too small, 4 check failures.
"""

import argparse
import functools
import json
import re
import sys

from .checks import check_report, run_suite
from .diagram import KlyachkoDiagram, compute_diagram
from .errors import InputError, KlyachkoError, SearchBoxError, read_json
from .hilbert import constant_hilbert_poly, hilbert_values
from .monomials import MonomialIdeal, ideal_sum, monomial_str
from .reconstruction import (check_search_box, local_cohomology_h1,
                             reconstruct_generators)
from .render import ascii_diagram, svg_diagram
from .toric import compute_grading, load_fan

_RANGE = re.compile(r"^(-?\d+)\.\.(-?\d+)$")


def _parse_ranges(text, rank, flag):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != rank:
        raise InputError(f"{flag} needs {rank} comma-separated ranges "
                         f"(one per class coordinate), got {len(parts)}")
    ranges = []
    for part in parts:
        match = _RANGE.match(part)
        if not match:
            raise InputError(f"{flag}: bad range {part!r}, expected lo..hi")
        lo, hi = int(match.group(1)), int(match.group(2))
        if lo > hi:
            raise InputError(f"{flag}: empty range {part!r}")
        ranges.append((lo, hi))
    return ranges


def _degrees_from_ranges(ranges):
    degrees = [()]
    for lo, hi in ranges:
        degrees = [d + (v,) for d in degrees for v in range(lo, hi + 1)]
    return degrees


def _render_radius(args):
    if args.window is not None and args.window < 0:
        raise InputError(f"--window radius must be at least 0, got {args.window}")
    return args.window


def _ideal_of(obj, path, fan):
    ideal = MonomialIdeal.from_json(obj, nvars=fan.nrays)
    if ideal.is_zero():
        raise InputError(f"{path}: the ideal has no generators")
    return ideal


def _load_ideal(path, fan):
    return _ideal_of(read_json(path), path, fan)


def _load_diagram(path, grading):
    """(diagram, saturation) of a diagram file, or (diagram, None) of an ideal file.

    A diagram file is accepted only when it is the diagram of the saturation
    it reconstructs to; otherwise the differing cone is named.
    """
    fan = grading.fan
    obj = read_json(path)
    if not (isinstance(obj, dict) and "s" in obj):
        return compute_diagram(fan, _ideal_of(obj, path, fan)), None
    diag = KlyachkoDiagram.from_json(fan, obj)
    sat = reconstruct_generators(grading, diag)
    found = diag.difference(compute_diagram(fan, sat))
    if found is not None:
        cone, part, _ = found
        raise InputError(f"diagram cone {cone}: the {part} region differs "
                         f"from that of {sat!r}, the ideal it reads back to")
    return diag, sat


def _emit(payload, out):
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    _write_text(text, out)


def _write_text(text, out):
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def cmd_diagram(args):
    fan = load_fan(args.fan)
    ideal = _load_ideal(args.ideal, fan)
    diag = compute_diagram(fan, ideal)
    _emit(diag.to_json(), args.out)
    if args.render:
        sys.stderr.write(ascii_diagram(fan, diag, radius=_render_radius(args)))
    return 0


def cmd_saturate(args):
    fan = load_fan(args.fan)
    grading = compute_grading(fan)
    diag, sat = _load_diagram(args.input, grading)
    box = _parse_ranges(args.box, grading.rank, "--box") if args.box else None
    if sat is None:
        sat = reconstruct_generators(grading, diag)
    if box is not None:
        check_search_box(grading, sat, box)
    _emit(sat.to_json(), args.out)
    return 0


def cmd_hilbert(args):
    fan = load_fan(args.fan)
    grading = compute_grading(fan)
    ideal = _load_ideal(args.ideal, fan)
    ranges = _parse_ranges(args.degrees, grading.rank, "--degrees")
    diag = compute_diagram(fan, ideal)
    degrees = _degrees_from_ranges(ranges)
    values = [{"degree": list(d), "value": value}
              for d, value in zip(degrees, hilbert_values(grading, diag, degrees))]
    constant, note = constant_hilbert_poly(fan, diag)
    payload = {"values": values, "constant_poly": constant, "note": note}
    _emit(payload, args.out)
    return 0


def cmd_h1(args):
    fan = load_fan(args.fan)
    grading = compute_grading(fan)
    ideal = _load_ideal(args.ideal, fan)
    ranges = _parse_ranges(args.degrees, grading.rank, "--degrees")
    diag = compute_diagram(fan, ideal)
    pieces = []
    for d in _degrees_from_ranges(ranges):
        piece = local_cohomology_h1(grading, ideal, grading.canonical_lift(d),
                                    diag=diag)
        pieces.append({"degree": list(d),
                       "dimension": piece.dimension,
                       "monomials": piece.monomial_strings()})
    _emit({"pieces": pieces}, args.out)
    return 0


def cmd_sum(args):
    fan = load_fan(args.fan)
    first = _load_ideal(args.first, fan)
    second = _load_ideal(args.second, fan)
    _emit(compute_diagram(fan, ideal_sum(first, second)).to_json(), args.out)
    return 0


def cmd_check(args):
    fan = load_fan(args.fan)
    if args.ideal:
        report = check_report(fan, [_load_ideal(args.ideal, fan)])
    else:
        if args.random < 1:
            raise InputError(f"--random must be at least 1, got {args.random}")
        report = run_suite(fan, seed=args.seed, count=args.random)
    if args.out:
        _emit(report, args.out)
    failed = False
    for prop in report["properties"]:
        if prop["status"] == "pass":
            print(f"PASS {prop['name']} ({report['cases']} cases)")
        else:
            failed = True
            first = prop["failures"][0]
            print(f"FAIL {prop['name']}: gens {first['gens']}: {first['witness']}")
    return 4 if failed else 0


def cmd_render(args):
    fan = load_fan(args.fan)
    diag, _ = _load_diagram(args.input, compute_grading(fan))
    radius = _render_radius(args)
    if args.out and args.out.lower().endswith(".svg"):
        _write_text(svg_diagram(fan, diag, radius=radius), args.out)
    else:
        _write_text(ascii_diagram(fan, diag, radius=radius), args.out)
    return 0


def _add_common(sub, window=True):
    if window:
        sub.add_argument("--window", type=int, default=None,
                         help="half-width of the rendered window "
                              "(default: size-derived)")
    sub.add_argument("--out", default=None, help="write output to a file")


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="klyachko",
        description="Klyachko diagrams of monomial ideals in Cox rings: "
                    "compute, saturate, sum, H^1, Hilbert functions, checks.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("diagram", help="compute the diagram of an ideal")
    p.add_argument("fan", help="catalog name (P2, P3, H3, P1xP1, ...) or fan JSON path")
    p.add_argument("ideal", help="ideal JSON path")
    p.add_argument("--render", action="store_true",
                   help="also draw ASCII panels to stderr (dim 2 only)")
    _add_common(p)

    p = subs.add_parser("saturate", help="reconstruct the saturated ideal")
    p.add_argument("fan")
    p.add_argument("input", help="ideal or diagram JSON path")
    p.add_argument("--box", default=None,
                   help="explicit class search box, e.g. 0..6 or 0..4,-2..3")
    _add_common(p, window=False)

    p = subs.add_parser("hilbert", help="Hilbert function values")
    p.add_argument("fan")
    p.add_argument("ideal")
    p.add_argument("--degrees", required=True,
                   help="class ranges, e.g. -1..4 or 0..3,0..3")
    _add_common(p, window=False)

    p = subs.add_parser("h1", help="first local cohomology pieces")
    p.add_argument("fan")
    p.add_argument("ideal")
    p.add_argument("--degrees", required=True)
    _add_common(p, window=False)

    p = subs.add_parser("sum", help="diagram of a sum of two ideals")
    p.add_argument("fan")
    p.add_argument("first")
    p.add_argument("second")
    _add_common(p, window=False)

    p = subs.add_parser("check", help="cross-validate against brute force")
    p.add_argument("fan")
    p.add_argument("ideal", nargs="?", default=None,
                   help="check one ideal instead of random ones")
    p.add_argument("--random", type=int, default=100, metavar="N",
                   help="number of random ideals (default 100)")
    p.add_argument("--seed", type=int, default=0)
    _add_common(p, window=False)

    p = subs.add_parser("render", help="staircase picture (dim 2 only)")
    p.add_argument("fan")
    p.add_argument("input", help="ideal or diagram JSON path")
    _add_common(p)

    return parser


def _merge_range_flags(argv):
    # argparse mistakes range values like -1..4 for options; pre-join them
    out = []
    skip = False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok in ("--degrees", "--box") and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            skip = True
        else:
            out.append(tok)
    return out


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(_merge_range_flags(list(argv)))
    try:
        # looked up per call, so a rebound cmd_* (a tracer's wrapper) is the one run
        return globals()[f"cmd_{args.command}"](args)
    except SearchBoxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except KlyachkoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
