"""Seeded inputs for the benchmark.

Every input is built here from the workload seed, with the benchmark's
own small polynomial helpers, and written as variety-file text to
`examples/<name>.var` inside a temporary directory, so that gallery
reports can be compared byte for byte with `tests/golden/*.txt`.  The
random recipes follow the ones in the test suite (random surfaces, random
ruled varieties, random P^4 ruled surfaces) but are ported, not imported,
so the benchmark does not depend on test code.

A polynomial here is a dict {exponent tuple: Fraction} over a tuple of
variable names; zero coefficients are never stored.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, isqrt
from pathlib import Path

GALLERY_STATIC = ("togliatti", "shifrin", "dye", "togliatti-implicit")


# -- polynomial helpers -------------------------------------------------

def padd(a: dict, b: dict, scale=1) -> dict:
    out = dict(a)
    for e, c in b.items():
        v = out.get(e, 0) + scale * c
        if v:
            out[e] = Fraction(v)
        else:
            out.pop(e, None)
    return out


def pmul(a: dict, b: dict, max_degree: int | None = None) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if max_degree is not None and sum(e) > max_degree:
                continue
            v = out.get(e, 0) + ca * cb
            if v:
                out[e] = Fraction(v)
            else:
                out.pop(e, None)
    return out


def pconst(nvars: int, c) -> dict:
    return {(0,) * nvars: Fraction(c)} if c else {}


def pvar(nvars: int, i: int) -> dict:
    e = [0] * nvars
    e[i] = 1
    return {tuple(e): Fraction(1)}


def peval(p: dict, point) -> Fraction:
    total = Fraction(0)
    for e, c in p.items():
        term = Fraction(c)
        for x, k in zip(point, e):
            term *= Fraction(x) ** k
        total += term
    return total


def taylor(p: dict, point) -> dict:
    """Coefficients of p(point + h) as a polynomial in h (divided
    derivatives at the point), by the binomial expansion."""
    out: dict = {}
    for e, c in p.items():
        partial = {(): Fraction(c)}
        for x, k in zip(point, e):
            nxt: dict = {}
            for pe, pc in partial.items():
                for j in range(k + 1):
                    v = pc * comb(k, j) * Fraction(x) ** (k - j)
                    if v:
                        key = pe + (j,)
                        nxt[key] = nxt.get(key, 0) + v
            partial = nxt
        for pe, pc in partial.items():
            v = out.get(pe, 0) + pc
            if v:
                out[pe] = v
            else:
                out.pop(pe, None)
    return out


def _coeff_text(c: Fraction) -> str:
    return str(c) if c.denominator == 1 and c >= 0 else f"({c})"


def ptext(p: dict, names) -> str:
    """Expression text the variety-file parser reads."""
    if not p:
        return "0"
    parts = []
    for e in sorted(p, key=lambda e: (sum(e), e), reverse=True):
        factors = [n if k == 1 else f"{n}^{k}" for n, k in zip(names, e) if k]
        c = Fraction(p[e])
        if not factors:
            parts.append(_coeff_text(c))
        elif c == 1:
            parts.append("*".join(factors))
        else:
            parts.append(_coeff_text(c) + "*" + "*".join(factors))
    return " + ".join(parts)


def parse_poly(text: str, names) -> dict:
    """Read a polynomial as the report layer prints it, e.g.
    `3/2*x^2 - x*y + 5`.  Independent of the code under test."""
    text = text.strip()
    if text == "0":
        return {}
    index = {n: i for i, n in enumerate(names)}
    terms = []
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    for chunk in text.replace(" - ", " + -").split(" + "):
        chunk = chunk.strip()
        s = sign
        sign = 1
        if chunk.startswith("-"):
            s, chunk = -s, chunk[1:]
        terms.append((s, chunk))
    out: dict = {}
    for s, chunk in terms:
        coeff = Fraction(s)
        exps = [0] * len(names)
        for factor in chunk.split("*"):
            base, _, power = factor.partition("^")
            if base in index:
                exps[index[base]] += int(power or 1)
            else:
                coeff *= Fraction(base)
        key = tuple(exps)
        v = out.get(key, 0) + coeff
        if v:
            out[key] = v
        else:
            out.pop(key, None)
    return out


# -- variety records ----------------------------------------------------

@dataclass
class Variety:
    """One generated input: its file text plus what the checks need."""

    name: str
    kind: str                      # parameterization | implicit | scroll
    names: tuple = ()              # params or vars
    polys: list = field(default_factory=list)   # coords or equations
    point: tuple | None = None     # the recorded point of an implicit variety
    degrees: tuple = ()
    ruled: bool | None = None      # known by construction, for P^3 surfaces
    text: str = ""

    def render(self) -> str:
        if self.text:
            return self.text
        lines = [f"kind: {self.kind}", f"label: {self.name}"]
        if self.kind == "parameterization":
            lines.append("params: " + " ".join(self.names))
            lines.append("coords: " + ", ".join(ptext(p, self.names) for p in self.polys))
        elif self.kind == "implicit":
            lines.append("vars: " + " ".join(self.names))
            lines.append("equations: " + ", ".join(ptext(p, self.names) for p in self.polys))
            lines.append("point: " + ",".join(str(v) for v in self.point))
        else:
            lines.append("degrees: " + ",".join(str(d) for d in self.degrees))
        return "\n".join(lines) + "\n"


def _mono(names, text_terms) -> dict:
    """Polynomial from [(coeff, {name: exp})] pairs."""
    out: dict = {}
    for c, powers in text_terms:
        e = tuple(powers.get(n, 0) for n in names)
        out = padd(out, {e: Fraction(c)})
    return out


def _monomials(names, texts) -> list[dict]:
    polys = []
    for t in texts:
        powers: dict = {}
        if t != "1":
            for factor in t.split("*"):
                base, _, power = factor.partition("^")
                powers[base] = powers.get(base, 0) + int(power or 1)
        polys.append(_mono(names, [(1, powers)]))
    return polys


# The gallery's polynomial coordinates, kept here for the rank oracle and
# the P^3 projections; the file text itself comes from the gallery module.
XY = ("x", "y")
TOGLIATTI = _monomials(XY, ["1", "x", "y", "x*y^2", "x^2*y", "x^2*y^2"])
SHIFRIN = [
    _mono(XY, [(1, {})]),
    _mono(XY, [(1, {"x": 1}), (1, {"y": 2})]),
    _mono(XY, [(1, {"y": 1})]),
    _mono(XY, [(1, {"y": 3}), (3, {"x": 1, "y": 1})]),
    _mono(XY, [(1, {"y": 4}), (6, {"x": 1, "y": 2}), (3, {"x": 2})]),
    _mono(XY, [(1, {"y": 5}), (10, {"x": 1, "y": 3}), (15, {"x": 2, "y": 1})]),
]


# The dye surface's equations, for the series residual check.
DYE_VARS = ("X0", "X1", "X2", "X3", "X4", "X5")
DYE_EQUATIONS = [
    {tuple(2 * int(i == k) for i in range(6)): Fraction(c)
     for k, c in enumerate(row)}
    for row in ((-1, 1, 1, 1, -1, 1), (-1, 2, 3, 4, -6, 9), (-1, 4, 9, 16, -36, 81))
]


def gallery(example_text) -> dict[str, Variety]:
    """Gallery entries, with file text taken from the program's gallery."""
    out = {}
    for name in GALLERY_STATIC:
        out[name] = Variety(name, "gallery", text=example_text(name))
    out["togliatti"].names, out["togliatti"].polys = XY, TOGLIATTI
    out["shifrin"].names, out["shifrin"].polys = XY, SHIFRIN
    for degrees in ((2, 2), (2, 4), (3, 3), (3, 3, 3)):
        name = "scroll-" + "-".join(map(str, degrees))
        out[name] = Variety(name, "scroll", degrees=degrees, text=example_text(name))
    return out


# -- seeded recipes -----------------------------------------------------

def random_point(rng: random.Random, arity: int, height: int = 9, den: int = 4) -> tuple:
    return tuple(Fraction(rng.randint(-height, height), rng.randint(1, den))
                 for _ in range(arity))


def random_surface(rng: random.Random, name: str, extra: int) -> Variety:
    """(1 : x : y : q_1 : ... : q_extra), deg q_i <= 3: P^3 to P^6 for
    extra = 1..4."""
    coords = [pconst(2, 1), pvar(2, 0), pvar(2, 1)]
    for _ in range(extra):
        terms: dict = {}
        for _ in range(rng.randint(2, 5)):
            e = (rng.randint(0, 3), rng.randint(0, 3))
            c = rng.randint(-5, 5)
            if 0 < sum(e) <= 3 and c:
                terms = padd(terms, {e: Fraction(c)})
        coords.append(terms or {(1, 1): Fraction(1)})
    return Variety(name, "parameterization", XY, coords)


def _nonzero(rng: random.Random, height: int) -> Fraction:
    while True:
        c = rng.randint(-height, height)
        if c:
            return Fraction(c)


def full_surface(rng: random.Random, name: str, degrees) -> Variety:
    """(1 : x : y : q_1 : ... : q_k) with every monomial of degree 2..deg q_i
    present.  Over Q(u) the random-support recipe above has a heavy tail
    (a few draws in a hundred take seconds to minutes), so the generic
    workload fixes the support and draws only the coefficients."""
    coords = [pconst(2, 1), pvar(2, 0), pvar(2, 1)]
    for d in degrees:
        coords.append({(a, s - a): _nonzero(rng, 5)
                       for s in range(2, d + 1) for a in range(s + 1)})
    return Variety(name, "parameterization", XY, coords)


def _ruled_coordinate(rng: random.Random, nvars: int, n: int, e: int) -> dict:
    """c(u) + sum_j d_j(u) t_j with base degree <= 3."""
    terms: dict = {}

    def add_base(fiber_index):
        nonlocal terms
        for _ in range(rng.randint(1, 3)):
            exps = [0] * nvars
            for _ in range(rng.randint(0, 3)):
                exps[rng.randrange(n)] += 1
            if fiber_index is not None:
                exps[n + fiber_index] = 1
            c = rng.randint(-4, 4)
            if c:
                terms = padd(terms, {tuple(exps): Fraction(c)})

    add_base(None)
    for j in range(e):
        add_base(j)
    return terms or pvar(nvars, 0)


def random_ruled(rng: random.Random, name: str, n: int, e: int) -> Variety:
    """Monomial anchors rich enough that the second and third forms are
    nonzero, plus two random affine-linear fiber coordinates: base n,
    fiber e, up to P^17."""
    names = tuple(f"u{i + 1}" for i in range(n)) + tuple(f"t{j + 1}" for j in range(e))
    if n == 1:
        anchors = ["1", "u1", "u1^2", "u1^3"]
        for j in range(1, e + 1):
            anchors += [f"t{j}", f"u1*t{j}", f"u1^2*t{j}"]
    else:
        anchors = ["1", "u1", "u2", "u1^2", "u1*u2", "u2^2", "u1^3", "u2^3"]
        for j in range(1, e + 1):
            anchors += [f"t{j}", f"u1*t{j}", f"u2*t{j}", f"u1^2*t{j}"]
    coords = _monomials(names, anchors)
    coords += [_ruled_coordinate(rng, len(names), n, e) for _ in range(2)]
    return Variety(name, "parameterization", names, coords)


def ruled_p4(rng: random.Random, name: str) -> Variety:
    """Ruled surface in P^4: (1 : c_j(u) + d_j(u) t), j = 1..4, with
    deg c_j = 2, 1, 1, 1, deg d_j = 1 and every coefficient drawn nonzero.
    With random supports of degree <= 3, as the test suite draws them,
    generic costs range from 40 ms to over a minute; this fixed shape
    costs about a second each and its kernel entries reach degree 31."""
    names = ("u", "t")
    coords = [pconst(2, 1)]
    for deg_c in (2, 1, 1, 1):
        terms = {(i, 0): _nonzero(rng, 4) for i in range(deg_c + 1)}
        terms.update({(i, 1): _nonzero(rng, 4) for i in range(2)})
        coords.append(terms)
    return Variety(name, "parameterization", names, coords)


def _univariate(rng: random.Random, degree: int, height: int) -> list[int]:
    """Coefficients c_0..c_degree with a nonzero leading one."""
    cs = [rng.randint(-height, height) for _ in range(degree)]
    lead = 0
    while not lead:
        lead = rng.randint(-height, height)
    return cs + [lead]


def ruled_graph(rng: random.Random, name: str, height: int, deg_c: int, deg_d: int) -> Variety:
    """Graph z = c(x) + d(x) y in P^3, deg c = deg_c, deg d = deg_d: ruled
    by construction (the lines x = const).  `height` bounds the
    coefficients, one to many digits."""
    g: dict = {}
    for k, v in enumerate(_univariate(rng, deg_c, height)):
        g = padd(g, {(k, 0): Fraction(v)})
    for k, v in enumerate(_univariate(rng, deg_d, height)):
        g = padd(g, {(k, 1): Fraction(v)})
    return Variety(name, "parameterization", XY,
                   [pconst(2, 1), pvar(2, 0), pvar(2, 1), g], ruled=True)


def quadric(rng: random.Random, name: str, conjugate: bool) -> Variety:
    """Graph of z = a*x^2 + b*x*y + c*y^2 + (linear): rational rulings when
    the discriminant b^2 - 4ac is a nonzero square, conjugate ones (over a
    quadratic field) when it is not a square; doubly ruled either way."""
    while True:
        a, b, c = (rng.randint(-6, 6) for _ in range(3))
        disc = b * b - 4 * a * c
        square = disc > 0 and isqrt(disc) ** 2 == disc
        if disc and square != conjugate:
            break
    lin = {(1, 0): Fraction(rng.randint(-5, 5)), (0, 1): Fraction(rng.randint(-5, 5)),
           (0, 0): Fraction(rng.randint(-5, 5))}
    g = padd({k: v for k, v in lin.items() if v},
             {(2, 0): Fraction(a), (1, 1): Fraction(b), (0, 2): Fraction(c)})
    return Variety(name, "parameterization", XY,
                   [pconst(2, 1), pvar(2, 0), pvar(2, 1), g], ruled=True)


def nonruled_graph(rng: random.Random, name: str, degree: int) -> Variety:
    """Graph z = a*x^d + b*y^d + (random terms of degree 2..d-1), d in
    {3, 4}.  Its closure in P^3 has one isolated singular point, at
    infinity, so it is neither a cone nor singular along a line, and is
    not ruled."""
    g = {(degree, 0): Fraction(rng.randint(1, 5)), (0, degree): Fraction(rng.randint(1, 5))}
    for _ in range(4):
        e = (rng.randint(0, degree - 1), rng.randint(0, degree - 1))
        if 2 <= sum(e) < degree:
            g = padd(g, {e: Fraction(rng.randint(-5, 5))})
    return Variety(name, "parameterization", XY,
                   [pconst(2, 1), pvar(2, 0), pvar(2, 1), g], ruled=False)


def project_to_p3(rng: random.Random, name: str, source: Variety,
                  ruled: bool | None) -> Variety:
    """Seeded linear projection of a P^n parameterized surface to P^3."""
    width = len(source.polys)
    coords = []
    for _ in range(4):
        row = [rng.randint(-3, 3) for _ in range(width)]
        total: dict = {}
        for c, p in zip(row, source.polys):
            if c:
                total = padd(total, p, c)
        coords.append(total)
    coords[0] = padd(coords[0], pconst(2, 1))
    return Variety(name, "parameterization", source.names, coords, ruled=ruled)


def implicit_hypersurface(rng: random.Random, name: str, degree: int) -> Variety:
    """X0^(d-1)*X3 + X3^2*L(X) - G(X0, X1, X2) = 0 at (1:0:0:0): the
    Newton solve for X3 is a genuine series, not a polynomial."""
    names = ("X0", "X1", "X2", "X3")
    eq = {(degree - 1, 0, 0, 1): Fraction(1)}
    for i in (1, 2):
        c = rng.randint(-4, 4)
        if c:
            e = [0, 0, 0, 2]
            e[i] = 1
            e[0] = degree - 3
            eq = padd(eq, {tuple(e): Fraction(c)})
    for _ in range(5):
        a = rng.randint(0, degree)
        b = rng.randint(0, degree - a)
        if a + b >= 2:
            eq = padd(eq, {(degree - a - b, a, b, 0): Fraction(rng.randint(-5, 5))})
    return Variety(name, "implicit", names, [eq], point=(1, 0, 0, 0))


def write_examples(directory: Path, varieties) -> None:
    """Write each variety as examples/<name>.var under `directory`."""
    examples = directory / "examples"
    examples.mkdir(parents=True, exist_ok=True)
    for v in varieties:
        (examples / f"{v.name}.var").write_text(v.render(), encoding="utf-8")
