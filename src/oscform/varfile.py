"""Variety description files.

A variety file is UTF-8 text made of `key: value` lines.  Blank lines
and lines starting with `#` are skipped.  Three kinds are supported:

    kind: parameterization        kind: implicit            kind: scroll
    label: togliatti              label: dye                label: scroll-2-2
    params: x y                   vars: X0 X1 X2 X3 X4 X5   degrees: 2,2
    coords: 1, x, y, x*y^2, ...   equations: ..., ...
    point: 1, 1                   point: 1,0,0,2,2,1

`params` and `vars` are space-separated names; `coords` and `equations`
are comma-separated expressions (lines may repeat to extend the list);
`point` entries are rationals like `-3/2`.  For a parameterization the
optional point lives in parameter space; for an implicit variety the
point is required and lives in the ambient projective space.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ConsistencyError, ParseError
from .jets import ImplicitVariety, Parameterization
from .polyring import parse_polynomial, parse_rational
from .ruled import ScrollSpec

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

_LIST_KEYS = ("coords", "equations")
_SCALAR_KEYS = ("kind", "label", "params", "vars", "point", "degrees")
_KEY_ORDER = ("kind", "label", "params", "vars", "coords", "equations",
              "point", "degrees")
_KEYS_BY_KIND = {
    "parameterization": {"kind", "label", "params", "coords", "point"},
    "implicit": {"kind", "label", "vars", "equations", "point"},
    "scroll": {"kind", "label", "degrees"},
}


@dataclass(frozen=True)
class VarietyFile:
    kind: str
    label: str | None = None
    params: tuple[str, ...] | None = None
    variables: tuple[str, ...] | None = None
    coords: tuple[str, ...] | None = None
    equations: tuple[str, ...] | None = None
    point: tuple[Fraction, ...] | None = None
    degrees: tuple[int, ...] | None = None
    # The coords or equations parsed by validation; equality is the text's.
    parsed: tuple = field(default=(), compare=False, repr=False)


def _split_names(value: str, key: str, line: int) -> tuple[str, ...]:
    names = tuple(value.split())
    if not names:
        raise ParseError(f"{key}: expected at least one name", line=line)
    for name in names:
        if not _NAME.match(name):
            raise ParseError(f"{key}: invalid name {name!r}", line=line)
    if len(set(names)) != len(names):
        raise ConsistencyError(f"{key}: duplicate names in {names}", line=line)
    return names


def _split_point(value: str, line: int) -> tuple[Fraction, ...]:
    out = []
    for part in value.split(","):
        part = part.strip()
        try:
            out.append(Fraction(part))
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"point: {part!r} is not a rational number",
                             line=line) from None
    return tuple(out)


def _split_degrees(value: str, line: int) -> tuple[int, ...]:
    out = []
    for part in value.split(","):
        part = part.strip()
        try:
            out.append(int(part))
        except ValueError:
            raise ParseError(f"degrees: {part!r} is not an integer",
                             line=line) from None
    return tuple(out)


def _parse_expressions(entries, names, key, parser, lines) -> tuple:
    parsed = []
    for k, text in enumerate(entries):
        try:
            parsed.append(parser(text, names))
        except ParseError as exc:
            raise ParseError(f"{key} entry {k + 1}: {exc}",
                             line=lines.get(key)) from None
    return tuple(parsed)


def parse_variety(text: str) -> VarietyFile:
    """Parse and validate a variety description file."""
    raw: dict[str, object] = {}
    where: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if ":" not in stripped:
            raise ParseError("expected a 'key: value' line", line=lineno)
        key, _, value = stripped.partition(":")
        key = key.strip()
        value = value.strip()
        if key in _LIST_KEYS:
            entries = tuple([v.strip() for v in value.split(",") if v.strip()])
            if not entries:
                raise ParseError(f"{key}: expected at least one expression",
                                 line=lineno)
            raw[key] = raw.get(key, ()) + entries
            where.setdefault(key, lineno)
        elif key in _SCALAR_KEYS:
            if key in raw:
                raise ParseError(f"duplicate key {key!r}", line=lineno)
            raw[key] = value
            where[key] = lineno
        else:
            raise ParseError(f"unknown key {key!r}", line=lineno)

    kind = raw.get("kind")
    if kind is None:
        raise ConsistencyError("missing 'kind:' line")
    if kind not in _KEYS_BY_KIND:
        raise ConsistencyError(
            f"kind must be parameterization, implicit, or scroll, got {kind!r}",
            line=where["kind"],
        )
    allowed = _KEYS_BY_KIND[kind]
    for key in raw:
        if key not in allowed:
            raise ConsistencyError(f"key {key!r} is not valid for kind {kind!r}",
                                   line=where[key])

    label = raw.get("label") or None
    params = variables = coords = equations = point = degrees = None
    parsed = ()
    if "params" in raw:
        params = _split_names(raw["params"], "params", where["params"])
    if "vars" in raw:
        variables = _split_names(raw["vars"], "vars", where["vars"])
    if "coords" in raw:
        coords = raw["coords"]
    if "equations" in raw:
        equations = raw["equations"]
    if "point" in raw:
        point = _split_point(raw["point"], where["point"])
    if "degrees" in raw:
        degrees = _split_degrees(raw["degrees"], where["degrees"])

    if kind == "parameterization":
        if params is None or coords is None:
            raise ConsistencyError(
                "kind parameterization needs 'params:' and 'coords:'")
        if len(coords) < len(params) + 1:
            raise ConsistencyError(
                f"{len(coords)} coordinates cannot parameterize a variety "
                f"with {len(params)} parameters")
        parsed = _parse_expressions(coords, params, "coords", parse_rational, where)
        if point is not None and len(point) != len(params):
            raise ConsistencyError(
                f"point has {len(point)} entries for {len(params)} parameters",
                line=where["point"])
    elif kind == "implicit":
        if variables is None or equations is None:
            raise ConsistencyError("kind implicit needs 'vars:' and 'equations:'")
        if point is None:
            raise ConsistencyError("kind implicit needs a 'point:' on the variety")
        if len(point) != len(variables):
            raise ConsistencyError(
                f"point has {len(point)} entries for {len(variables)} variables",
                line=where["point"])
        parsed = _parse_expressions(equations, variables, "equations",
                                    parse_polynomial, where)
    else:
        if degrees is None:
            raise ConsistencyError("kind scroll needs 'degrees:'")
        if any(d < 1 for d in degrees):
            raise ConsistencyError(f"degrees must be positive, got {degrees}",
                                   line=where["degrees"])

    return VarietyFile(kind=kind, label=label, params=params,
                       variables=variables, coords=coords,
                       equations=equations, point=point, degrees=degrees,
                       parsed=parsed)


def print_variety(vf: VarietyFile) -> str:
    """Render a variety file; parse_variety(print_variety(v)) == v."""
    lines = []
    for key in _KEY_ORDER:
        if key == "kind":
            lines.append(f"kind: {vf.kind}")
        elif key == "label" and vf.label is not None:
            lines.append(f"label: {vf.label}")
        elif key == "params" and vf.params is not None:
            lines.append("params: " + " ".join(vf.params))
        elif key == "vars" and vf.variables is not None:
            lines.append("vars: " + " ".join(vf.variables))
        elif key == "coords" and vf.coords is not None:
            lines.append("coords: " + ", ".join(vf.coords))
        elif key == "equations" and vf.equations is not None:
            lines.append("equations: " + ", ".join(vf.equations))
        elif key == "point" and vf.point is not None:
            lines.append("point: " + ",".join(str(v) for v in vf.point))
        elif key == "degrees" and vf.degrees is not None:
            lines.append("degrees: " + ",".join(str(d) for d in vf.degrees))
    return "\n".join(lines) + "\n"


def build_variety(vf: VarietyFile):
    """Turn a parsed file into the matching geometric object."""
    if vf.kind == "parameterization":
        return Parameterization(vf.params, vf.parsed, label=vf.label)
    if vf.kind == "implicit":
        return ImplicitVariety(vf.parsed, vf.point, label=vf.label)
    return ScrollSpec(vf.degrees)
