"""Command-line front end.

Reads variety description files (`-` for stdin), dispatches to the
geometry modules, and renders deterministic text or JSON reports.  Exit
codes: 0 success, 1 domain error, 2 parse error.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys
import warnings
from fractions import Fraction

from .errors import DomainError, ParseError
from .fundforms import (
    base_locus_pencil,
    check_jacobian_containment,
    fundamental_form,
    hyperplane_tangent_cone,
    verify_phibar_relation,
)
from .gallery import example_names, example_text
from .jets import (
    ImplicitVariety,
    Parameterization,
    jet_parameterize,
    osculating_profile,
    osculating_space,
)
from .polyring import parse_rational
from .report import Report, fmt, fmt_point, render
from .ruled import (
    DEFAULT_SEED,
    RuledParameterization,
    check_monge_order,
    fubini_intersection_test,
    heat_equation_check,
    monge_form,
    pushdown_rank_check,
    ruled_dim_bound,
    ruled_surface_diagnostic,
    ruling_fixed_component_check,
    scroll,
    scroll_jets,
    scroll_rank_check,
)
from .varfile import build_variety, parse_variety


class _Unreadable(Exception):
    """The input file could not be read; the CLI exits 1."""


def _read_text(path: str) -> tuple[str, str]:
    name = "<stdin>" if path == "-" else path
    try:
        if path == "-":
            return sys.stdin.read(), name
        # Not pathlib, which interns each part of the path: a process that
        # reads many files then keeps rebuilding the interned-string table,
        # holding the old and the new one at once.
        with open(path, encoding="utf-8") as handle:
            return handle.read(), name
    except UnicodeDecodeError as exc:
        raise _Unreadable(f"{name}: {exc}") from None
    except OSError as exc:
        raise _Unreadable(str(exc)) from None


def _parse_rational_tuple(text: str, flag: str) -> tuple[Fraction, ...]:
    out = []
    for part in text.split(","):
        part = part.strip()
        try:
            out.append(Fraction(part))
        except (ValueError, ZeroDivisionError):
            raise DomainError(f"{flag}: {part!r} is not a rational number") from None
    return tuple(out)


def _load(args) -> tuple[object, Report]:
    """Parse the input file and start the report with an input echo."""
    text, name = _read_text(args.file)
    vf = parse_variety(text)
    report = Report(command=args.command)
    report.inputs["input"] = name
    report.inputs["kind"] = vf.kind
    if vf.label:
        report.inputs["label"] = vf.label
    return vf, report


def _at_point(text: str, count: int, what: str) -> tuple[Fraction, ...]:
    """One --at value, which must have `count` entries (`what` names them)."""
    point = _parse_rational_tuple(text, "--at")
    if len(point) != count:
        raise DomainError(f"--at has {len(point)} entries for {count} {what}")
    return point


def _parameter_point(args, vf, f: Parameterization):
    """The evaluation point: --at, else the point recorded in the file
    (None when there is neither)."""
    at = getattr(args, "at", None)
    if at is not None:
        return _at_point(at, f.source_dim, "parameters")
    return vf.point


def _resolve_surface(vf, args, report: Report, needed_order: int):
    """Turn any file kind into a Parameterization plus evaluation point."""
    obj = build_variety(vf)
    if isinstance(obj, ImplicitVariety):
        if getattr(args, "at", None) is not None:
            raise DomainError(
                "implicit input is analyzed at its recorded point; --at is "
                "not supported here")
        f = jet_parameterize(obj, needed_order + 1)
        report.inputs["point"] = fmt_point(obj.point)
        report.inputs["series_order"] = needed_order + 1
        return f, tuple(Fraction(0) for _ in f.params)
    f = obj if isinstance(obj, Parameterization) else scroll(obj).underlying
    return f, _parameter_point(args, vf, f)


def _record_point_mode(report: Report, point) -> None:
    if point is not None:
        report.mode = "point"
        report.inputs["at"] = fmt_point(point)
    else:
        report.mode = "generic-symbolic"


def _as_ruled(f: Parameterization) -> RuledParameterization:
    """Longest parameter suffix in which all coordinates are affine-linear."""
    for i in range(1, f.source_dim):
        try:
            return RuledParameterization(f.params[:i], f.params[i:], f.coords,
                                         label=f.label)
        except DomainError:
            continue
    raise DomainError(
        "no fiber parameters detected: no parameter suffix is jointly "
        "affine-linear across the coordinates")


def _cmd_osc(args) -> Report:
    vf, report = _load(args)
    f, point = _resolve_surface(vf, args, report, args.order)
    _record_point_mode(report, point)
    if args.max:
        report.add("dims", list(osculating_profile(f, args.order, point=point).dims))
    elif point is not None:
        space = osculating_space(f, args.order, point)
        report.add("dim", space.dim - 1)
        report.add("basis", [fmt_point(row) for row in space.basis])
    else:
        report.add("dim", osculating_profile(f, args.order).dims[-1])
    return report


def _cmd_fundform(args) -> Report:
    vf, report = _load(args)
    f, point = _resolve_surface(vf, args, report, args.order)
    system = fundamental_form(f, args.order, point=point)
    _record_point_mode(report, point)
    report.add("degree", system.degree)
    report.add("generator_count", system.generator_count)
    report.add("projective_dim", system.projective_dim)
    report.add("generators", [str(g) for g in system.generators])
    return report


def _cmd_jacobian_check(args) -> Report:
    vf, report = _load(args)
    f, point = _resolve_surface(vf, args, report, args.order)
    result = check_jacobian_containment(f, args.order, point=point)
    _record_point_mode(report, point)
    report.add("order", result.order)
    report.add("contained", result.contained)
    report.add("equal", result.equal)
    report.add("jacobian_dim", result.jacobian_dim)
    report.add("previous_dim", result.previous_dim)
    report.add("note", result.note)
    return report


def _cmd_phibar_check(args) -> Report:
    vf, report = _load(args)
    # The relation is an identity over the function field; a point is
    # only a specialization certificate, so use one on --at only.
    f, point = _resolve_surface(vf, args, report, args.order)
    if getattr(args, "at", None) is None:
        point = None
    result = verify_phibar_relation(f, args.order, point=point)
    _record_point_mode(report, point)
    report.add("order", result.order)
    report.add("holds", result.holds)
    report.add("lower_order_vanishes", result.lower_order_vanishes)
    report.add("symmetric_part_matches", result.symmetric_part_matches)
    report.add("factor", f"-{result.order}")
    return report


def _cmd_base_locus(args) -> Report:
    vf, report = _load(args)
    f, point = _resolve_surface(vf, args, report, args.order)
    system = fundamental_form(f, args.order, point=point)
    result = base_locus_pencil(system)
    _record_point_mode(report, point)
    report.add("degree", system.degree)
    report.add("generators", [str(g) for g in system.generators])
    report.add("has_base_point", result.has_base_point)
    report.add("common_factor",
               str(result.common_factor) if result.common_factor else "none")
    report.add("base_points", [fmt_point(p) for p in result.base_points])
    report.add("note", result.note)
    return report


def _cmd_tangent_cone(args) -> Report:
    vf, report = _load(args)
    f, point = _resolve_surface(vf, args, report, args.max_order)
    h = _parse_rational_tuple(args.hyperplane, "--hyperplane")
    result = hyperplane_tangent_cone(f, h, point=point, max_order=args.max_order)
    _record_point_mode(report, point)
    report.inputs["hyperplane"] = fmt_point(h)
    report.add("vanishing_order", result.order)
    report.add("tangent_cone", str(result.form))
    return report


def _cmd_scroll(args) -> Report:
    vf, report = _load(args)
    spec = build_variety(vf)
    if not hasattr(spec, "degrees"):
        raise DomainError("the scroll command needs a file with kind: scroll")
    orders = list(range(1, spec.degrees[0] + 1)) if args.order is None else [args.order]
    report.mode = "generic-symbolic"
    jets = scroll_jets(spec, orders)
    checks = list(zip(scroll_rank_check(spec, orders, jets),
                      pushdown_rank_check(spec, orders, jets)))
    for rc, pd in checks:
        report.add(
            f"m={rc.order}",
            f"rank {rc.rank} expected {rc.expected} "
            f"({'ok' if rc.match else 'MISMATCH'}); pushdown blocks "
            f"{pd.block_ranks} expected {pd.expected_ranks} structure "
            f"{'ok' if pd.structure_ok else 'BROKEN'}")
    report.add("all_match", all(rc.match and pd.match for rc, pd in checks))
    return report


def _cmd_ruling_check(args) -> Report:
    vf, report = _load(args)
    obj = build_variety(vf)
    if hasattr(obj, "degrees"):
        ruled = scroll(obj)
    elif isinstance(obj, Parameterization):
        ruled = _as_ruled(obj)
    else:
        raise DomainError("ruling-check needs a parameterization or scroll file")
    point = _parameter_point(args, vf, ruled.underlying)
    result = ruling_fixed_component_check(ruled, args.order, point=point)
    # dim |Phi_m| in the report's own mode; the bound holds at every point.
    dim = result.system.projective_dim
    bound = ruled_dim_bound(ruled, args.order)
    _record_point_mode(report, point)
    report.inputs["base_params"] = " ".join(ruled.base_params)
    report.inputs["fiber_params"] = " ".join(ruled.fiber_params)
    report.add("generators", [str(g) for g in result.system.generators])
    report.add("all_members_contain_ruling", result.all_members_contain_ruling)
    report.add("monomial_support_ok", result.monomial_support_ok)
    report.add("singular_along_ruling",
               "n/a" if result.singular_along_ruling is None
               else result.singular_along_ruling)
    report.add("fixed_component", result.fixed_component or "none")
    report.add("dim", dim)
    report.add("bound", bound)
    report.add("within_bound", dim <= bound)
    return report


def _cmd_monge(args) -> Report:
    """The Monge chart of a surface in P^3 at a point: the frame, the
    pieces f2, f3 and f4, and the Fubini resultant.

    The requested order is checked as `monge_form` checks it, with the
    same errors at the same step, but the graph is solved only through
    min(order, 4): the report prints no piece above f4, and the pieces
    through f4 do not depend on the order of the solve.  The `order:`
    line echoes the requested order, and an order of 3 prints
    `f4: not computed`."""
    vf, report = _load(args)
    obj = build_variety(vf)
    printed = (2, 3, 4)

    def chart(surface, point):
        check_monge_order(args.order)
        return monge_form(surface, point, order=min(args.order, max(printed)))

    if isinstance(obj, ImplicitVariety):
        point = None
        if getattr(args, "at", None) is not None:
            point = _parse_rational_tuple(args.at, "--at")
        md = chart(obj, point)
    elif isinstance(obj, Parameterization):
        point = _parameter_point(args, vf, obj)
        if point is None:
            raise DomainError("monge needs --at or a point recorded in the file")
        md = chart(obj, point)
    else:
        f = scroll(obj).underlying
        md = chart(f, _parameter_point(args, vf, f))
    report.mode = "point"
    report.inputs["order"] = args.order
    report.add("ambient_point", fmt_point(md.ambient_point))
    if md.parameter_point is not None:
        report.add("parameter_point", fmt_point(md.parameter_point))
    report.add("chart_rows", [fmt_point(md.chart.row(i)) for i in range(4)])
    for m in printed:
        report.add(f"f{m}", str(md.piece(m)) if m <= md.order else "not computed")
    try:
        fubini = fubini_intersection_test(md)
        report.add("resultant", fmt(fubini.resultant))
        report.add("intersects", fubini.intersects)
    except DomainError:
        report.add("resultant", "degenerate: f2 = 0")
    return report


def _cmd_ruled_test(args) -> Report:
    vf, report = _load(args)
    obj = build_variety(vf)
    seed = args.seed if args.seed is not None else DEFAULT_SEED
    rng = random.Random(seed)
    if isinstance(obj, ImplicitVariety):
        if args.samples not in (None, 1):
            raise DomainError(
                f"--samples {args.samples}: implicit input is examined at its "
                "recorded point (or at the --at points), not at random samples")
        samples = [_at_point(a, len(obj.variables), "coordinates")
                   for a in (args.at or [])] or [obj.point]
    else:
        if hasattr(obj, "degrees"):
            obj = scroll(obj).underlying
        samples = [_at_point(a, obj.source_dim, "parameters") for a in (args.at or [])]
        while len(samples) < (5 if args.samples is None else args.samples):
            samples.append(tuple(Fraction(rng.randint(-30, 30), rng.randint(1, 6))
                                 for _ in obj.params))
    diag = ruled_surface_diagnostic(obj, samples, order=args.order, rng=seed)
    report.mode = "point"
    report.inputs["seed"] = seed
    report.inputs["order"] = args.order
    report.sampled_points = [fmt_point(p.point) for p in diag.points]
    if diag.projection is not None:
        report.add("projection_rows",
                   [fmt_point(diag.projection.row(i)) for i in range(4)])
    for p in diag.points:
        if p.error is not None:
            report.add(f"point {fmt_point(p.point)}", f"error: {p.error}")
            continue
        dirs = "; ".join(
            f"{d.direction} contact {d.contact}"
            for d in p.directions) or "no common direction"
        report.add(
            f"point {fmt_point(p.point)}",
            f"intersects {fmt(p.intersects)} (resultant {fmt(p.resultant)}); {dirs}")
    report.add("verdict", diag.verdict)
    report.add("disclaimer", diag.disclaimer)
    return report


def _cmd_heat_check(args) -> Report:
    vf, report = _load(args)
    obj = build_variety(vf)
    if hasattr(obj, "degrees"):
        obj = scroll(obj).underlying
    if not isinstance(obj, Parameterization):
        raise DomainError("heat-check needs a parameterized surface")
    phi = parse_rational(args.phi, obj.params)
    satisfied = heat_equation_check(obj, phi, x_var=args.x_var, y_var=args.y_var)
    report.mode = "generic-symbolic"
    report.inputs["phi"] = args.phi
    report.add("satisfied", satisfied)
    return report


def _cmd_implicit_jet(args) -> Report:
    vf, report = _load(args)
    obj = build_variety(vf)
    if not isinstance(obj, ImplicitVariety):
        raise DomainError("implicit-jet needs a file with kind: implicit")
    f = jet_parameterize(obj, args.order)
    report.mode = "point"
    report.inputs["point"] = fmt_point(obj.point)
    report.inputs["order"] = args.order
    report.add("params", " ".join(f.params))
    report.add("truncated_order", f.truncated_order)
    report.add("coords", [str(c) for c in f.coords])
    return report


def _cmd_example(args):
    text = example_text(args.name)
    if args.format == "json":
        report = Report(command="example")
        report.inputs["name"] = args.name
        report.add("text", text)
        return report
    return text


def _add_common(sub, order_default=None, order_required=False,
                order_help="jet / form order m"):
    sub.add_argument("file", help="variety file path, or - for stdin")
    if order_required:
        sub.add_argument("--order", type=int, required=True, help=order_help)
    else:
        sub.add_argument("--order", type=int, default=order_default,
                         help=f"{order_help} (default {order_default})")
    sub.add_argument("--at", help="rational evaluation point, e.g. 1,-2/3")
    sub.add_argument("--format", choices=("text", "json"), default="text")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    Nothing mutates it after it is built, and every parse_args call
    returns a fresh Namespace, so calls to main share it safely.
    """
    parser = argparse.ArgumentParser(
        prog="oscform",
        description="Osculating spaces, fundamental forms, and ruledness "
                    "diagnostics for parameterized projective varieties.")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("osc", help="osculating space dimensions / basis")
    _add_common(p, order_required=True)
    p.add_argument("--max", action="store_true",
                   help="report s(0..m) instead of order m only")
    p.set_defaults(handler=_cmd_osc)

    p = commands.add_parser("fundform", help="generators of the m-th fundamental form")
    _add_common(p, order_required=True)
    p.set_defaults(handler=_cmd_fundform)

    p = commands.add_parser("jacobian-check",
                            help="Jacobian of form m against form m-1")
    _add_common(p, order_default=3)
    p.set_defaults(handler=_cmd_jacobian_check)

    p = commands.add_parser("phibar-check",
                            help="top-block representative equals -m times the form")
    _add_common(p, order_default=2)
    p.set_defaults(handler=_cmd_phibar_check)

    p = commands.add_parser("base-locus", help="base locus of a pencil of binary forms")
    _add_common(p, order_default=2)
    p.set_defaults(handler=_cmd_base_locus)

    p = commands.add_parser("tangent-cone",
                            help="tangent cone of a hyperplane section")
    p.add_argument("file", help="variety file path, or - for stdin")
    p.add_argument("--hyperplane", required=True,
                   help="comma-separated hyperplane coefficients")
    p.add_argument("--at", help="rational evaluation point")
    p.add_argument("--max-order", type=int, default=12,
                   help="largest vanishing order to search")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=_cmd_tangent_cone)

    p = commands.add_parser("scroll", help="scroll jet ranks and block structure")
    p.add_argument("file", help="variety file path, or - for stdin")
    p.add_argument("--order", type=int,
                   help="single order m (default: all 1..d0)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=_cmd_scroll)

    p = commands.add_parser("ruling-check",
                            help="fixed-component structure of a ruled variety")
    _add_common(p, order_default=2)
    p.set_defaults(handler=_cmd_ruling_check)

    p = commands.add_parser("monge", help="local graph form of a surface in P^3")
    _add_common(p, order_default=4,
                order_help="Monge expansion order, at least 3; pieces above f4 are "
                           "not printed, so they are not computed")
    p.set_defaults(handler=_cmd_monge)

    p = commands.add_parser("ruled-test", help="sampled ruledness diagnostic")
    p.add_argument("file", help="variety file path, or - for stdin")
    p.add_argument("--order", type=int, default=4, help="Monge expansion order")
    p.add_argument("--at", action="append",
                   help="sample point (repeatable); random points fill the rest")
    p.add_argument("--samples", type=int,
                   help="number of sample points of a parameterization (default 5); "
                        "implicit input is examined at its recorded point or --at "
                        "points only")
    p.add_argument("--seed", type=int, help="seed for sample points and projection")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=_cmd_ruled_test)

    p = commands.add_parser("heat-check",
                            help="divided heat equation D_yy f = phi * D_x f")
    p.add_argument("file", help="variety file path, or - for stdin")
    p.add_argument("--phi", default="1", help="factor phi as an expression")
    p.add_argument("--x-var", help="first-order variable (default: first parameter)")
    p.add_argument("--y-var", help="second-order variable (default: second parameter)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=_cmd_heat_check)

    p = commands.add_parser("implicit-jet",
                            help="series parameterization of an implicit variety")
    p.add_argument("file", help="variety file path, or - for stdin")
    p.add_argument("--order", type=int, default=4, help="series truncation order")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=_cmd_implicit_jet)

    p = commands.add_parser("example", help="print a built-in example file")
    p.add_argument("name", help="one of: " + ", ".join(example_names()))
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=_cmd_example)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = args.handler(args)
        if isinstance(result, str):
            sys.stdout.write(result)
        else:
            # A warning raised once per order or per sample point is
            # listed once, at its first occurrence.
            result.warnings.extend(dict.fromkeys(str(w.message) for w in caught))
            sys.stdout.write(render(result, args.format))
        return 0
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _Unreadable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
