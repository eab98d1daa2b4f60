"""The three workloads as seeded task lists.

A task is one CLI invocation (`oscform.cli.main(argv)`) plus the check
its report must pass.  Each workload spreads its kinds of task evenly
over the task list, so every stretch of the timed loop sees the same mix
whatever the run length.  Inputs are drawn from the workload seed only;
no draw is rejected for its cost.

No task uses `--jobs`, `--symbolic` or sampled generic `osc`: those flags
and defaults are planned to go or change meaning, and the benchmark must
not break or read a regression when they do.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import checks as C
import inputs as I

WORKLOADS = ("point", "generic", "ruled")

# Pool sizes per run: enough distinct draws that a seed's cost averages
# out, few enough that checking each distinct report once stays cheap.
# Two are also set so that the p50 and the tail fall inside a dense band
# of task times, not on the edge between two bands, where small timing
# noise flips them from one band to the other (the `ruled` p50 spread 0.13
# over ten seeds there): on `point` the tail sits among the
# jacobian-checks of the twenty base-2, fiber-2 ruled varieties, and on
# `ruled` the p50 sits among the ruled-tests rather than at the top of
# the Monge charts.
POINT_SURFACES = 96
POINT_RULED = 80
GENERIC_SURFACES = 18
GENERIC_RULED = 24
RULED_GRAPHS = 30
HYPERSURFACES = 15


@dataclass
class Task:
    name: str
    argv: list[str]
    check: tuple          # (check factory, *args); built when first needed
    at: str | None = None  # `--at=` of a generic task's general point

    @property
    def command(self) -> str:
        return self.argv[0]

    def point_twin(self) -> Task:
        """The same command at the task's general point, over Q."""
        return Task(f"{self.name} at point", self.argv[:-1] + [self.at, self.argv[-1]],
                    self.check)

    def verify(self, out: str) -> str | None:
        """None when the report passes its check, else the reason."""
        factory, *args = self.check
        try:
            return factory(*args)(out)
        except (ValueError, IndexError, KeyError, ZeroDivisionError) as exc:
            return f"unreadable report: {type(exc).__name__}: {exc}"


def _at(point) -> str:
    return "--at=" + ",".join(str(Fraction(v)) for v in point)


def _file(v: I.Variety) -> str:
    return f"examples/{v.name}.var"


def _interleave(groups: list[list[Task]]) -> tuple[list[Task], list[Task]]:
    """Merge the groups so that each group's tasks are spread evenly over
    the cycle: any stretch of the timed loop sees the groups in proportion
    to their sizes.  Also returns the warm-up tasks: the first task of
    each command, taken from the first group (the gallery's) where it has
    one."""
    placed = [((k + 0.5) / len(g), j, task)
              for j, g in enumerate(groups) for k, task in enumerate(g)]
    warmups: dict[str, Task] = {}
    for task in (t for g in groups for t in g):
        warmups.setdefault(task.command, task)
    return [task for *_, task in sorted(placed, key=lambda p: p[:2])], list(warmups.values())


def _hyperplane(rng: random.Random, v: I.Variety, point) -> list[Fraction]:
    """A hyperplane through f(point), tangent there when the tangent
    space allows it, whose section does not vanish identically."""
    series = [I.taylor(p, point) for p in v.polys]
    nvars = len(point)
    jet1 = [[s.get(e, Fraction(0)) for s in series]
            for e in [(0,) * nvars] + [tuple(int(i == k) for i in range(nvars))
                                       for k in range(nvars)]]
    for rows in (jet1, jet1[:1]):
        for _ in range(4):
            weights = [rng.randint(1, 5) for _ in v.polys]
            h = C.kernel_vector(rows, weights)
            if any(h) and C.vanishing_order(v.polys, point, h) is not None:
                scale = math.lcm(*(c.denominator for c in h))
                return [c * scale for c in h]
    raise ValueError(f"{v.name}: no hyperplane section that is not identically zero")


def _general_point(rng: random.Random, v: I.Variety, order: int = 3, **height):
    """A seeded rational point where the osculating dimensions through
    `order` are the generic ones (the largest seen at three draws): the
    theorems the checks rely on hold at general points, not at all."""
    nvars = len(v.names)
    draws = [I.random_point(rng, nvars, **height) for _ in range(3)]
    dims = [C.osculating_dims(v.polys, p, order) for p in draws]
    generic = [max(d[k] for d in dims) for k in range(order + 1)]
    for p, d in zip(draws, dims):
        if d == generic:
            return p
    while True:
        p = I.random_point(rng, nvars, **height)
        if C.osculating_dims(v.polys, p, order) == generic:
            return p


# -- point --------------------------------------------------------------

def point_workload(seed: int, gallery: dict, golden_dir: Path):
    rng = random.Random(seed)
    varieties, surface_tasks, ruled_tasks, gallery_tasks = [], [], [], []
    for i in range(POINT_SURFACES):
        # The extra coordinate count cycles 1..4, so every seed has the
        # same mix of ambient dimensions P^3..P^6.
        v = I.random_surface(rng, f"surface-{i}", extra=1 + i % 4)
        p = _general_point(rng, v)
        h = _hyperplane(rng, v, p)
        varieties.append(v)
        f, at = _file(v), _at(p)
        surface_tasks += [
            Task(f"osc {v.name}", ["osc", "--order", "3", "--max", at, f],
                 (C.osc_max, v.polys, p, 3)),
            Task(f"fundform {v.name}", ["fundform", "--order", "2", at, f],
                 (C.fundform_counts, v.polys, p, 2)),
            Task(f"jacobian-check {v.name}", ["jacobian-check", "--order", "3", at, f],
                 (C.fields, {"contained": "true"})),
            Task(f"base-locus {v.name}", ["base-locus", "--order", "2", at, f],
                 (C.fundform_counts, v.polys, p, 2)),
            Task(f"tangent-cone {v.name}",
                 ["tangent-cone", "--hyperplane=" + ",".join(map(str, h)), at, f],
                 (C.tangent_cone_order, v.polys, p, h)),
        ]
    shapes = ((1, 1), (1, 2), (2, 1), (2, 2))
    for i in range(POINT_RULED):
        n, e = shapes[i % 4]
        v = I.random_ruled(rng, f"ruled-{i}", n, e)
        p = _general_point(rng, v)
        varieties.append(v)
        f, at = _file(v), _at(p)
        ruled_tasks += [
            Task(f"osc {v.name}", ["osc", "--order", "3", "--max", at, f],
                 (C.osc_max, v.polys, p, 3)),
            Task(f"fundform {v.name}", ["fundform", "--order", "2", at, f],
                 (C.fundform_counts, v.polys, p, 2)),
            Task(f"jacobian-check {v.name}", ["jacobian-check", "--order", "3", at, f],
                 (C.fields, {"contained": "true"})),
        ]
    tog = gallery["togliatti"]
    gallery_tasks = [
        Task("golden togliatti", ["osc", "--order", "3", "--max", "examples/togliatti.var"],
             (C.golden, golden_dir / "togliatti.txt")),
        Task("golden shifrin", ["base-locus", "--order", "2", "examples/shifrin.var"],
             (C.golden, golden_dir / "shifrin.txt")),
        Task("golden dye", ["fundform", "--order", "2", "examples/dye.var"],
             (C.golden, golden_dir / "dye.txt")),
        # The implicit entry goes through the Newton chart at its point,
        # which is the togliatti surface at parameter (0, 0).
        Task("osc togliatti-implicit",
             ["osc", "--order", "3", "--max", "examples/togliatti-implicit.var"],
             (C.osc_max, tog.polys, (0, 0), 3)),
    ]
    # ruling-check also bounds dim |Phi_m| generically, over Q(u), even
    # with --at; on scrolls that part stays small.
    for name, at in (("scroll-2-2", "--at=1/2,3"), ("scroll-2-4", "--at=-2,1/3")):
        gallery_tasks.append(Task(
            f"ruling-check {name}", ["ruling-check", "--order", "2", at, f"examples/{name}.var"],
            (C.fields, {"all_members_contain_ruling": "true", "within_bound": "true"})))
    return (varieties, *_interleave([gallery_tasks, surface_tasks, ruled_tasks]))


# -- generic ------------------------------------------------------------

def _generic_gallery(rng: random.Random, gallery: dict, golden_dir: Path):
    varieties, tasks = [], []
    for name in ("togliatti", "shifrin"):
        # The gallery files record a point; these copies do not, so the
        # commands run over Q(u).
        g = gallery[name]
        v = I.Variety(f"{name}-generic", "parameterization", g.names, g.polys)
        varieties.append(v)
        p = _general_point(rng, v)
        tasks += [
            Task(f"fundform {v.name}", ["fundform", "--order", "2", _file(v)],
                 (C.fundform_counts, v.polys, p, 2), _at(p)),
            Task(f"jacobian-check {v.name}", ["jacobian-check", "--order", "3", _file(v)],
                 (C.fields, {"contained": "true"}), _at(p)),
            Task(f"phibar-check {v.name}", ["phibar-check", "--order", "2", _file(v)],
                 (C.fields, {"holds": "true"})),
        ]
    for name in ("dye", "togliatti-implicit"):
        tasks.append(Task(
            f"phibar-check {name}", ["phibar-check", "--order", "2", f"examples/{name}.var"],
            (C.fields, {"holds": "true"})))
    for name, argv in (("scroll-2-2", ["scroll"]), ("scroll-2-4", ["scroll"]),
                       ("scroll-3-3-3", ["scroll", "--order", "3"]),
                       ("scroll-3-3", ["ruling-check", "--order", "2"])):
        tasks.append(Task(f"golden {name}", argv + [f"examples/{name}.var"],
                          (C.golden, golden_dir / f"{name}.txt")))
    return varieties, tasks


def generic_workload(seed: int, gallery: dict, golden_dir: Path):
    """Tasks with a point twin (`Task.at`, a general point through order
    3) give pairs.generic_over_point in the traced run."""
    rng = random.Random(seed)
    varieties, gallery_tasks = _generic_gallery(rng, gallery, golden_dir)
    surface_tasks, ruled_tasks, scroll_tasks = [], [], []
    for i in range(GENERIC_SURFACES):
        v = I.full_surface(rng, f"surface-{i}", (3,) if i % 2 == 0 else (2, 3))
        p = _general_point(rng, v)
        varieties.append(v)
        f = _file(v)
        surface_tasks += [
            Task(f"fundform {v.name}", ["fundform", "--order", "2", f],
                 (C.fundform_counts, v.polys, p, 2), _at(p)),
            Task(f"jacobian-check {v.name}", ["jacobian-check", "--order", "3", f],
                 (C.fields, {"contained": "true"}), _at(p)),
            Task(f"phibar-check {v.name}", ["phibar-check", "--order", "2", f],
                 (C.fields, {"holds": "true"})),
        ]
    for i in range(GENERIC_RULED):
        v = I.ruled_p4(rng, f"ruled-p4-{i}")
        p = _general_point(rng, v)
        varieties.append(v)
        f = _file(v)
        # One draw in eight gets ruling-check, which costs two generic
        # fundamental forms; the rest get fundform.  The heavy tasks then
        # form one cluster that the tail percentile falls inside.
        # ruling-check has no point twin: with --at it still bounds
        # dim |Phi_m| over Q(u).
        if i % 8 == 0:
            ruled_tasks.append(Task(
                f"ruling-check {v.name}", ["ruling-check", "--order", "2", f],
                (C.fields, {"all_members_contain_ruling": "true", "within_bound": "true"})))
        else:
            ruled_tasks.append(Task(f"fundform {v.name}", ["fundform", "--order", "2", f],
                                    (C.fundform_counts, v.polys, p, 2), _at(p)))
    # Scroll costs follow from the splitting type alone, so these are
    # fixed rather than drawn; the closed forms check them.
    for i, degrees in enumerate(((2, 3), (3, 4), (2, 2, 3), (2, 3, 3))):
        v = I.Variety(f"scroll-{i}", "scroll", degrees=degrees)
        varieties.append(v)
        scroll_tasks += [
            Task(f"scroll {v.name}", ["scroll", _file(v)],
                 (C.scroll_closed_form, degrees, range(1, degrees[0] + 1))),
            Task(f"ruling-check {v.name}", ["ruling-check", "--order", "2", _file(v)],
                 (C.fields, {"all_members_contain_ruling": "true", "fixed_component": "v"})),
        ]
    return (varieties, *_interleave([gallery_tasks, surface_tasks, ruled_tasks, scroll_tasks]))


def gallery_pairs(seed: int, gallery: dict, golden_dir: Path):
    """The generic workload's gallery tasks that have a point twin, for
    pairs.generic_over_point on the workloads that run no generic task:
    (varieties to write, tasks)."""
    varieties, tasks = _generic_gallery(random.Random(seed), gallery, golden_dir)
    return varieties, [t for t in tasks if t.at]


# -- ruled --------------------------------------------------------------

def ruled_workload(seed: int, gallery: dict, golden_dir: Path):
    rng = random.Random(seed)
    varieties = []
    ruled_graphs, quadrics, graphs, projected, hypersurfaces = [], [], [], [], []

    def surface_tasks(v: I.Variety, group: list, order: int):
        # Small points: a Monge expansion to order 8 grows with the
        # point's height, and large ones spread the cost between seeds.
        p = _general_point(rng, v, 2, height=3, den=2)
        varieties.append(v)
        if v.ruled is not None:
            group.append(Task(f"ruled-test {v.name}", ["ruled-test", _file(v)],
                              (C.verdict, v.ruled)))
        group.append(Task(f"monge {v.name}", ["monge", "--order", str(order), _at(p), _file(v)],
                          (C.monge_chart, v.polys, p, v.ruled)))

    # One, three and five digits.  Larger heights reach the trial-division
    # divisor search in binform.rational_zeros, whose cost then follows
    # the factorization of the coefficients: 0.2 s to several seconds per
    # task, a spread no run-to-run bound can hold.
    heights = (9, 999, 99999)
    for i in range(RULED_GRAPHS):
        # Degrees, heights and Monge orders follow the slot, so every seed
        # has the same mix.  Order 8 goes to the ruled graphs only: their
        # order-8 charts cost 0.4-0.6 s, those of quadrics and other graphs
        # 0.3-0.9 s, and fewer than ten of them per run keep the tail
        # percentile in the dense band of order-7 charts and ruled-test.
        surface_tasks(I.ruled_graph(rng, f"ruled-graph-{i}", heights[i % 3],
                                    2 + i % 2, 1 + i // 2 % 2), ruled_graphs, 4 + i % 5)
        surface_tasks(I.quadric(rng, f"quadric-{i}", conjugate=bool(i % 2)), quadrics, 4 + i % 4)
        surface_tasks(I.nonruled_graph(rng, f"graph-{i}", 3 + i % 2), graphs, 4 + i % 4)
    # The togliatti surface, a sextic del Pezzo surface, holds finitely many
    # lines, so neither it nor a projection of it is ruled; the shifrin
    # surface has no verdict known by construction and gets only monge.
    for order, (name, ruled) in enumerate((("togliatti", False), ("shifrin", None)), start=4):
        surface_tasks(I.project_to_p3(rng, f"{name}-p3", gallery[name], ruled), projected, order)
    for i in range(HYPERSURFACES):
        v = I.implicit_hypersurface(rng, f"hypersurface-{i}", 3 + i % 2)
        varieties.append(v)
        order = 4 + i % 5
        hypersurfaces += [
            Task(f"implicit-jet {v.name} {order}",
                 ["implicit-jet", "--order", str(order), _file(v)],
                 (C.series_residual, v.polys, v.names, order)),
            Task(f"monge {v.name} {order}", ["monge", "--order", str(order), _file(v)],
                 (C.implicit_monge, v.polys[0], v.point)),
        ]
    gallery_tasks = [
        Task(f"implicit-jet dye {order}",
             ["implicit-jet", "--order", str(order), "examples/dye.var"],
             (C.series_residual, I.DYE_EQUATIONS, I.DYE_VARS, order))
        for order in range(4, 9)]
    gallery_tasks.append(Task(
        "golden togliatti-implicit",
        ["implicit-jet", "--order", "4", "examples/togliatti-implicit.var"],
        (C.golden, golden_dir / "togliatti-implicit.txt")))
    return (varieties, *_interleave([gallery_tasks, hypersurfaces, projected,
                                     graphs, quadrics, ruled_graphs]))


BUILDERS = {"point": point_workload, "generic": generic_workload, "ruled": ruled_workload}
