"""Checks on command reports that do not come from the code under test.

Each check takes the report text and returns None when it passes or a
one-line reason when it fails.  Expected values come from goldens, closed
forms, theorems, facts known by construction, or the benchmark's own
jet-rank oracle (Taylor coefficients by the binomial formula and
Gaussian elimination over Fractions, written here).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path

from inputs import padd, parse_poly, pconst, peval, pmul, taylor


def report_fields(text: str) -> dict[str, str]:
    """`key: value` lines of a text report (first occurrence wins)."""
    out: dict[str, str] = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep and key not in out:
            out[key] = value
    return out


def list_items(value: str) -> list[str]:
    """Items of a rendered `[a, b, c]` list of polynomials or points."""
    inner = value.strip()[1:-1].strip()
    if not inner:
        return []
    items, depth, start = [], 0, 0
    for i, ch in enumerate(inner):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            items.append(inner[start:i].strip())
            start = i + 1
    items.append(inner[start:].strip())
    return items


def fmt_point(point) -> str:
    return "(" + ", ".join(str(Fraction(v)) for v in point) + ")"


# -- jet-rank oracle ----------------------------------------------------

def _rank(rows: list[list[Fraction]]) -> int:
    rows = [list(r) for r in rows if any(r)]
    rank, col = 0, 0
    ncols = len(rows[0]) if rows else 0
    while rank < len(rows) and col < ncols:
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        p = rows[rank][col]
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                f = rows[i][col] / p
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


def _multi_indices(nvars: int, degree: int):
    for combo in combinations_with_replacement(range(nvars), degree):
        e = [0] * nvars
        for i in combo:
            e[i] += 1
        yield tuple(e)


def osculating_dims(polys, point, order: int) -> list[int]:
    """s(0..order): projective dimensions of the osculating spaces."""
    nvars = len(point)
    series = [taylor(p, point) for p in polys]
    rows, dims = [], []
    for k in range(order + 1):
        rows += [[s.get(I, Fraction(0)) for s in series]
                 for I in _multi_indices(nvars, k)]
        dims.append(_rank(rows) - 1)
    return dims


def kernel_vector(rows: list[list[Fraction]], weights) -> list[Fraction]:
    """A kernel vector of `rows`: the combination of a kernel basis with
    the given integer weights (by reduced row echelon form)."""
    ncols = len(rows[0])
    work = [list(r) for r in rows]
    pivots, r = [], 0
    for c in range(ncols):
        p = next((i for i in range(r, len(work)) if work[i][c]), None)
        if p is None:
            continue
        work[r], work[p] = work[p], work[r]
        piv = work[r][c]
        work[r] = [a / piv for a in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(ncols) if c not in pivots]
    out = [Fraction(0)] * ncols
    for w, fc in zip(weights, free):
        out[fc] += w
        for i, pc in enumerate(pivots):
            out[pc] -= w * work[i][fc]
    return out


def vanishing_order(polys, point, h) -> int | None:
    """Lowest degree present in h . f(point + v); None if identically 0."""
    total: dict = {}
    for c, p in zip(h, polys):
        if c:
            total = padd(total, taylor(p, point), c)
    return min((sum(e) for e in total), default=None)


# -- checks -------------------------------------------------------------

def golden(path: Path):
    expected = path.read_text(encoding="utf-8")

    def check(out: str):
        return None if out == expected else f"differs from {path.name}"
    return check


def fields(expected: dict):
    """Named report fields must read exactly as given."""
    def check(out: str):
        got = report_fields(out)
        for key, value in expected.items():
            if got.get(key) != value:
                return f"{key}: expected {value!r}, got {got.get(key)!r}"
        return None
    return check


def osc_max(polys, point, order):
    dims = osculating_dims(polys, point, order)
    return fields({"dims": "[" + ", ".join(map(str, dims)) + "]"})


def fundform_counts(polys, point, order):
    """Dimension law by the oracle: s(m) - s(m-1) generators."""
    dims = osculating_dims(polys, point, order)
    count = dims[order] - dims[order - 1]

    def check(out: str):
        got = report_fields(out)
        if got.get("degree") != str(order):
            return f"degree {got.get('degree')!r}, expected {order}"
        if len(list_items(got.get("generators", "[]"))) != count:
            return f"generators {got.get('generators')!r}, expected {count} of them"
        if "generator_count" in got and got["generator_count"] != str(count):
            return f"generator_count {got['generator_count']}, expected {count}"
        return None
    return check


def tangent_cone_order(polys, point, h):
    return fields({"vanishing_order": str(vanishing_order(polys, point, h))})


def scroll_closed_form(degrees, orders):
    """rank m(e+1)+1 and blocks [m+1]*(e+1) for every m, all_match: true."""
    e = len(degrees) - 1

    def check(out: str):
        got = report_fields(out)
        for m in orders:
            line = got.get(f"m={m}", "")
            rank = m * (e + 1) + 1
            blocks = "[" + ", ".join([str(m + 1)] * (e + 1)) + "]"
            if not line.startswith(f"rank {rank} ") or f"pushdown blocks {blocks}" not in line:
                return f"m={m}: {line!r}, expected rank {rank} and blocks {blocks}"
        if got.get("all_match") != "true":
            return "all_match is not true"
        return None
    return check


def verdict(ruled: bool):
    """ruled-evidence for a ruled surface, anything else for a non-ruled one."""
    def check(out: str):
        v = report_fields(out).get("verdict")
        if v is None:
            return "no verdict"
        if (v == "ruled-evidence") != ruled:
            return f"verdict {v!r} for a {'ruled' if ruled else 'non-ruled'} surface"
        return None
    return check


def monge_chart(polys, point, ruled: bool | None):
    """The chart is centred at f(point) and its rows start with the point
    and the two first derivatives; on a ruled surface f2 and f3 meet."""
    nvars = len(point)
    series = [taylor(p, point) for p in polys]
    rows = [[s.get(I, Fraction(0)) for s in series]
            for I in [(0,) * nvars] + list(_multi_indices(nvars, 1))]
    ambient = fmt_point(peval(p, point) for p in polys)

    def check(out: str):
        got = report_fields(out)
        if got.get("ambient_point") != ambient:
            return f"ambient_point {got.get('ambient_point')!r}, expected {ambient}"
        chart = list_items(got.get("chart_rows", "[]"))
        if chart[:3] != [fmt_point(r) for r in rows]:
            return f"chart rows {chart[:3]} do not start with the 1-jet"
        if ruled and got.get("intersects") != "true":
            return "f2 and f3 share no zero on a ruled surface"
        return None
    return check


def _residual(equation, coords, nparams: int, order: int) -> dict:
    """The terms of degree <= order of equation(coords), where coords are
    polynomials in nparams parameters (the benchmark's own arithmetic)."""
    zero = (0,) * nparams
    total: dict = {}
    for e, c in equation.items():
        term = {zero: Fraction(c)}
        for coord, k in zip(coords, e):
            for _ in range(k):
                term = pmul(term, coord, order)
        total = padd(total, term)
    return total


def implicit_monge(equation, point):
    """The printed chart starts at the recorded point and is a basis, and
    x = r0 + x1*r1 + x2*r2 + (f2 + f3 + f4)*r3 solves the equation
    through degree 4: this checks the chart and f2, f3, f4 at once."""
    def check(out: str):
        got = report_fields(out)
        if got.get("ambient_point") != fmt_point(point):
            return f"ambient_point {got.get('ambient_point')!r}, expected {fmt_point(point)}"
        rows = [[Fraction(x) for x in item.strip("()").split(",")]
                for item in list_items(got.get("chart_rows", "[]"))]
        if len(rows) != 4 or rows[0] != [Fraction(v) for v in point] or _rank(rows) != 4:
            return f"chart rows {got.get('chart_rows')!r} are not a basis starting at the point"
        xs = ("x1", "x2")
        f: dict = {}
        for key in ("f2", "f3", "f4"):
            f = padd(f, parse_poly(got.get(key, ""), xs))
        if any(not 2 <= sum(e) <= 4 for e in f):
            return "f2 + f3 + f4 has terms outside degrees 2-4"
        coords = [padd(padd(padd(pconst(2, r0), {(1, 0): r1}), {(0, 1): r2}), f, r3)
                  for r0, r1, r2, r3 in zip(*rows)]
        residual = _residual(equation, coords, 2, 4)
        if residual:
            return f"the chart and f2..f4 leave a residual of degree {min(map(sum, residual))}"
        return None
    return check


def series_residual(equations, names, order):
    """implicit-jet: the printed coordinates satisfy every equation
    through the truncation order (checked with the benchmark's own
    polynomial arithmetic)."""
    def check(out: str):
        got = report_fields(out)
        params = tuple(got.get("params", "").split())
        coords = [parse_poly(c, params) for c in list_items(got.get("coords", "[]"))]
        if len(coords) != len(names) or got.get("truncated_order") != str(order):
            return "wrong coordinate count or truncation order"
        for eq in equations:
            total = _residual(eq, coords, len(params), order)
            if total:
                return f"residual of degree {min(sum(e) for e in total)} <= {order}"
        return None
    return check
