"""The benchmark's own test: every kind of report check accepts the
program's real report and rejects a corrupted copy of it.

    python3 -m pytest perfbench/test_checks.py
"""

import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import inputs as I  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402
from oscform.cli import main  # noqa: E402
from oscform.gallery import example_text  # noqa: E402

SEED = 3
GOLDEN = HERE.parent / "tests" / "golden"


def set_field(key, change):
    """Corruption that rewrites the value of one `key: value` line."""
    def corrupt(out):
        return re.sub(rf"^{re.escape(key)}: (.*)$",
                      lambda m: f"{key}: {change(m.group(1))}", out, count=1, flags=re.M)
    return corrupt


def bump_last_number(value):
    return re.sub(r"(\d+)(\D*)$", lambda m: f"{int(m.group(1)) + 1}{m.group(2)}", value)


def drop_first_item(value):
    return "[" + value[1:-1].split(", ", 1)[-1] + "]" if ", " in value else "[]"


def add_item(value):
    return value[:-1] + ", v1^2]"


CASES = [
    ("point", "golden togliatti", set_field("dims", bump_last_number)),
    ("point", "osc surface-0", set_field("dims", bump_last_number)),
    ("point", "fundform surface-0", set_field("generators", add_item)),
    ("point", "base-locus surface-0", set_field("generators", drop_first_item)),
    ("point", "jacobian-check surface-0", set_field("contained", lambda v: "false")),
    ("point", "tangent-cone surface-0", set_field("vanishing_order", bump_last_number)),
    ("point", "osc togliatti-implicit", set_field("dims", bump_last_number)),
    ("point", "ruling-check scroll-2-2",
     set_field("all_members_contain_ruling", lambda v: "false")),
    ("generic", "phibar-check togliatti-generic", set_field("holds", lambda v: "false")),
    ("generic", "fundform togliatti-generic", set_field("generators", drop_first_item)),
    ("generic", "fundform surface-0 at point", set_field("generators", add_item)),
    ("generic", "jacobian-check surface-0 at point", set_field("contained", lambda v: "false")),
    ("generic", "golden scroll-2-2", set_field("all_match", lambda v: "false")),
    ("generic", "scroll scroll-0", set_field("m=1", lambda v: v.replace("rank ", "rank 1", 1))),
    ("generic", "scroll scroll-0", set_field("all_match", lambda v: "false")),
    ("ruled", "ruled-test ruled-graph-0", set_field("verdict", lambda v: "inconclusive")),
    ("ruled", "ruled-test quadric-1", set_field("verdict", lambda v: "inconclusive")),
    ("ruled", "ruled-test graph-0", set_field("verdict", lambda v: "ruled-evidence")),
    ("ruled", "monge ruled-graph-0", set_field("intersects", lambda v: "false")),
    ("ruled", "monge graph-0", set_field("ambient_point", lambda v: v.replace("(1,", "(2,"))),
    ("ruled", "monge togliatti-p3", set_field("chart_rows", lambda v: v.replace("(", "(7/5*", 1))),
    ("ruled", "monge hypersurface-0 4",
     set_field("ambient_point", lambda v: v.replace("(1,", "(2,"))),
    ("ruled", "monge hypersurface-0 4", set_field("f2", lambda v: v + " + x2^2")),
    ("ruled", "monge hypersurface-0 4", set_field("f3", lambda v: v + " + x1^2*x2")),
    ("ruled", "monge hypersurface-0 4", set_field("f4", lambda v: v + " + x1^4")),
    ("ruled", "monge hypersurface-0 4",
     set_field("chart_rows", lambda v: v.replace("(0, 0, 0, 1)", "(0, 0, 0, 2)"))),
    ("ruled", "implicit-jet hypersurface-0 4", set_field("coords", lambda v: v[:-1] + " + X1^3]")),
    ("ruled", "implicit-jet dye 5", set_field("coords", lambda v: v.replace("X1", "X2", 1))),
    ("ruled", "golden togliatti-implicit", set_field("truncated_order", bump_last_number)),
]


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    gallery = I.gallery(example_text)
    out = {}
    for workload in W.WORKLOADS:
        directory = tmp_path_factory.mktemp(workload)
        varieties, tasks, _ = W.BUILDERS[workload](SEED, gallery, GOLDEN)
        I.write_examples(directory, list(gallery.values()) + varieties)
        twins = [t.point_twin() for t in tasks if t.at]
        out[workload] = directory, {t.name: t for t in tasks + twins}
    return out


@pytest.mark.parametrize("workload, name, corrupt", CASES,
                         ids=[f"{w}:{n}:{i}" for i, (w, n, _) in enumerate(CASES)])
def test_check_rejects_corrupted_report(built, monkeypatch, workload, name, corrupt):
    directory, tasks = built[workload]
    monkeypatch.chdir(directory)
    task = tasks[name]
    code, out = run.run_task(main, task.argv)
    assert code == 0
    assert task.verify(out) is None
    bad = corrupt(out)
    assert bad != out
    assert task.verify(bad) is not None


def test_repeated_task_must_repeat_its_report():
    task = W.Task("t", ["osc"], (lambda: (lambda out: None),))
    outcomes = run.Outcomes([task])
    outcomes.record(0, 0, "dims: [0, 2]\n")
    outcomes.record(0, 0, "dims: [0, 2]\n")
    assert not outcomes.failures
    outcomes.record(0, 0, "dims: [0, 1]\n")
    outcomes.record(0, 1, "")
    assert len(outcomes.failures) == 2
