"""Command-line interface.

Commands: valency, graph, export, diameter, pendant, excess, delta, ball,
cosets, verify.  Groups are given with -g/--group as a label (``A3``,
``I2(7)``, ``U3``, ``A1xA1``) or as a path to a JSON file
``{"rank": n, "m": [[...]]}`` with 0 encoding an infinite bond; such a
matrix is finite exactly when its cosine form is positive definite.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import graph as gr
from . import infinite as inf
from . import symn
from . import verify as ver
from .coxeter import (
    CoxeterGroup,
    CoxeterMatrix,
    SpecError,
    ToleranceError,
    format_word,
    parse_group_spec,
    parse_word,
)

# the excess histogram and the coset walk visit every element, or every
# coset; on groups at least this large they ask for --heavy first
HEAVY_ORDER = 30_000


def load_group(text):
    """Build a group from a label or a JSON matrix file.

    Returns a finite CoxeterGroup, or an InfiniteCoxeterGroup when the label
    is infinite, or when a JSON matrix's cosine form is not positive definite
    (`CoxeterMatrix.is_finite`).
    """
    if text.endswith(".json"):
        matrix = CoxeterMatrix.from_json_file(text)
        return CoxeterGroup(matrix) if matrix.is_finite else inf.InfiniteCoxeterGroup(matrix)
    spec = parse_group_spec(text)
    if spec.is_finite:
        return CoxeterGroup.from_spec(spec)
    return inf.InfiniteCoxeterGroup.from_spec(spec)


def _require_finite(group, hint):
    if not isinstance(group, CoxeterGroup):
        raise SpecError(f"{group.label} is infinite; {hint}")


def _heavy_gate(group, args):
    order = group.spec.order() if group.spec else None
    big = order is not None and order >= HEAVY_ORDER
    if big and not args.heavy:
        raise SpecError(
            f"{group.label} is a large group (order {order}); pass --heavy to proceed"
        )
    if big:
        print(f"enumerating {group.label} ({order} elements)...", file=sys.stderr)


def _write_or_print(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
        print(f"wrote {out}")
    else:
        print(text)


def cmd_valency(args):
    group = load_group(args.group)
    _require_finite(group, "use `ball` with --radius for ball-restricted data")
    dist = gr.valency_distribution(gr.build_graph(group))
    if args.format == "csv":
        _write_or_print(dist.to_csv(), args.out)
    elif args.format == "json":
        _write_or_print(dist.to_json(), args.out)
    else:
        _write_or_print(str(dist), args.out)
    return 0


def cmd_graph(args):
    group = load_group(args.group)
    _require_finite(group, "use `ball` with --radius instead")
    g = gr.build_graph(group)
    print(f"group {group.label}: {len(g)} involutions, {g.edge_count()} edges")
    print(f"valency distribution: {gr.valency_distribution(g)}")
    if args.out or args.format:
        _export_graph(g, args.format or "json", args.out)
    return 0


def _export_graph(g, fmt, out):
    if fmt == "json":
        _write_or_print(g.to_json(indent=2), out)
    elif fmt == "dot":
        _write_or_print(g.to_dot(), out)
    elif fmt == "csv":
        _write_or_print(gr.valency_distribution(g).to_csv(), out)
    else:
        raise SpecError(f"unknown export format {fmt!r}")


def cmd_export(args):
    group = load_group(args.group)
    if isinstance(group, inf.InfiniteCoxeterGroup):
        if args.radius is None:
            raise SpecError(f"{group.label} is infinite; supply --radius")
        g = inf.involution_graph(group, args.radius)
    else:
        g = gr.build_graph(group)
    _export_graph(g, args.format, args.out)
    return 0


def cmd_diameter(args):
    group = load_group(args.group)
    _require_finite(group, "use `ball --evidence` for diameter evidence")
    g = gr.build_graph(group)
    comps, hat = gr.components_and_diameter(g)
    sizes = sorted(len(c) for c in comps)
    print(f"group {group.label}: {len(comps)} components, sizes {sizes}")
    print(f"diameter of the component away from w0: {hat}")
    return 0


def cmd_pendant(args):
    group = load_group(args.group)
    _require_finite(group, "pendant analysis needs a finite group")
    rep = gr.pendant_report(group)
    print(f"group {group.label}: {len(rep.computed)} pendant elements")
    for _, word in sorted((e.length, e.word) for e in rep.computed):
        print(f"  {format_word(word)}")
    print(f"closed-form prediction matches: {rep.match}")
    return 0 if rep.match else 1


def cmd_excess(args):
    group = load_group(args.group)
    _require_finite(group, "excess is defined over finite groups here")
    if args.word is not None:
        w = group.element_from_word(parse_word(args.word))
        print(f"excess({format_word(w.word)}) = {gr.excess(group, w)}")
        return 0
    _heavy_gate(group, args)
    from collections import Counter

    hist = Counter(gr.excess(group, w) for w in group.elements())
    print(f"group {group.label}: excess histogram over all {group.order()} elements")
    for value, count in sorted(hist.items()):
        print(f"  excess {value}: {count}")
    return 0


def cmd_delta(args):
    value = symn.delta(args.m, args.n)
    print(f"delta({args.m},{args.n}) = {value}")
    if args.oracle:
        oracle = symn.delta_bruteforce(args.m, args.n)
        verdict = "MATCH" if oracle == value else "MISMATCH"
        print(f"graph-degree oracle = {oracle}  [{verdict}]")
        return 0 if oracle == value else 1
    return 0


def cmd_ball(args):
    group = load_group(args.group)
    if isinstance(group, CoxeterGroup):
        raise SpecError(f"{group.label} is finite; the whole graph is available "
                        "via `graph`")
    if args.radius is None:
        raise SpecError("supply --radius")
    ball = inf.enumerate_ball(group, args.radius)
    print(f"group {group.label}: ball of radius {args.radius} has "
          f"{len(ball)} elements, {len(ball.involutions())} involutions")
    if args.graph:
        _write_or_print(ball.graph.to_json(indent=2), args.graph)
    if args.evidence:
        report = inf.ball_graph_diameter_evidence(group, args.radius)
        text = report.to_json(indent=2)
        _write_or_print(text, args.out)
        return 0 if report.ok else 1
    return 0


def cmd_cosets(args):
    group = load_group(args.group)
    _require_finite(group, "coset representatives need a finite group")
    _heavy_gate(group, args)
    if args.parabolic:
        J = {int(t) for t in args.parabolic.split(",")}
    elif args.exclude is not None:
        J = set(group.generators) - group._check_parabolic({args.exclude})
    else:
        raise SpecError("supply --parabolic i,j,... or --exclude k")
    reps = group.coset_representatives(J, side=args.side)
    print(f"group {group.label}, J = {sorted(J)}, {args.side} representatives: "
          f"{len(reps)}")
    for x in reps:
        line = f"  {format_word(x.word)}"
        if args.classify:
            if x.is_identity():
                line += "   (identity)"
            else:
                case = group.classify_dn_coset_rep(x)
                line += (f"   case {case.case}: a={format_word(case.a_word)} "
                         f"b={format_word(case.b_word)}")
        print(line)
    return 0


def cmd_verify(args):
    report = ver.run_check(args.check)
    print(report.summary())
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report.to_json(indent=2) + "\n")
        print(f"wrote {args.out}")
    return 0 if report.ok else 1


def build_parser():
    p = argparse.ArgumentParser(
        prog="e0graph",
        description="Excess-zero graphs on the involutions of Coxeter groups",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, help_):
        sp = sub.add_parser(name, help=help_)
        sp.set_defaults(fn=fn)
        return sp

    def group_opts(sp, radius=False):
        sp.add_argument("-g", "--group", required=True,
                        help="group label or JSON matrix file")
        if radius:
            sp.add_argument("--radius", type=int, default=None,
                            help="ball radius for infinite groups")

    def heavy_opt(sp, what):
        sp.add_argument("--heavy", action="store_true",
                        help=f"allow {what} on groups of order >= {HEAVY_ORDER}")

    sp = add("valency", cmd_valency, "print the valency distribution")
    group_opts(sp)
    sp.add_argument("--format", choices=("text", "csv", "json"), default="text")
    sp.add_argument("--out", default=None)

    sp = add("graph", cmd_graph, "build the graph and print a summary")
    group_opts(sp)
    sp.add_argument("--format", choices=("json", "dot", "csv"), default=None)
    sp.add_argument("--out", default=None)

    sp = add("export", cmd_export, "write the graph (json/dot) or distribution (csv)")
    group_opts(sp, radius=True)
    sp.add_argument("--format", choices=("json", "dot", "csv"), default="json")
    sp.add_argument("--out", default=None)

    sp = add("diameter", cmd_diameter, "components and hat-component diameter")
    group_opts(sp)

    sp = add("pendant", cmd_pendant, "valency-1 vertices vs the prediction")
    group_opts(sp)

    sp = add("excess", cmd_excess, "excess of a word, or the group histogram")
    group_opts(sp)
    sp.add_argument("--word", default=None, help="word like [1,2,1] or [1..4]")
    heavy_opt(sp, "the histogram")

    sp = add("delta", cmd_delta, "the commuting-reflections valency recursion")
    sp.add_argument("m", type=int)
    sp.add_argument("n", type=int)
    sp.add_argument("--oracle", action="store_true",
                    help="also compute the brute-force graph degree")

    sp = add("ball", cmd_ball, "bounded-ball exploration of an infinite group")
    group_opts(sp, radius=True)
    sp.add_argument("--graph", default=None, metavar="PATH",
                    help="write the ball-restricted involution graph as JSON")
    sp.add_argument("--evidence", action="store_true",
                    help="run the diameter evidence report")
    sp.add_argument("--out", default=None)

    sp = add("cosets", cmd_cosets, "distinguished coset representatives")
    group_opts(sp)
    sp.add_argument("--parabolic", default=None, help="J as comma-separated indices")
    sp.add_argument("--exclude", type=int, default=None,
                    help="J = all generators except this one")
    sp.add_argument("--side", choices=("right", "left"), default="right")
    sp.add_argument("--classify", action="store_true",
                    help="classify D_n representatives (J = R minus r_n)")
    heavy_opt(sp, "the coset walk")

    sp = add("verify", cmd_verify, "run a named verification check")
    sp.add_argument("check", choices=sorted(ver.CHECKS))
    sp.add_argument("--out", default=None, help="write the JSON report here")

    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # the reader closed stdout (`| head`): what is still buffered goes to
        # devnull, so the flush at exit raises no second BrokenPipeError
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (SpecError, ToleranceError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
