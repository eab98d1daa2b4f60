"""End-to-end tests for the command line interface.

Covers exit codes, text and JSON formats, stdin input, determinism of
seeded reports, the variety-file round trip, and the checked-in golden
reports for every built-in example.
"""

import argparse
import io
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from oscform import cli, exactla, ruled
from oscform.cli import main
from oscform.gallery import example_names, example_text
from oscform.polyring import RationalFunction, parse_rational
from oscform.varfile import parse_variety, print_variety

GOLDEN = Path(__file__).resolve().parent / "golden"
README = Path(__file__).resolve().parent.parent / "README.md"

# Reports pinned byte-for-byte: golden file stem -> (example, command).
# One per built-in example, plus the Monge chart, the ruledness test and
# a generic report that prints quotients.
GOLDEN_COMMANDS = {
    "togliatti": ("togliatti", ["osc", "--order", "3", "--max"]),
    "shifrin": ("shifrin", ["base-locus", "--order", "2"]),
    "dye": ("dye", ["fundform", "--order", "2"]),
    "togliatti-implicit": ("togliatti-implicit", ["implicit-jet", "--order", "4"]),
    "scroll-2-2": ("scroll-2-2", ["scroll"]),
    "scroll-2-4": ("scroll-2-4", ["scroll"]),
    "scroll-3-3": ("scroll-3-3", ["ruling-check", "--order", "2"]),
    "scroll-3-3-3": ("scroll-3-3-3", ["scroll", "--order", "3"]),
    "scroll-1-1-monge": ("scroll-1-1", ["monge", "--order", "8", "--at", "1/2,3"]),
    "scroll-2-2-ruled-test": ("scroll-2-2", ["ruled-test"]),
    "togliatti-generic": ("togliatti-generic", ["fundform", "--order", "2"]),
}

# Inputs derived from a built-in example: name -> text.  The point-free
# togliatti pins how generic reports print quotients in Q(x, y).
DERIVED_EXAMPLES = {
    "togliatti-generic": "".join(line for line in example_text("togliatti")
                                 .splitlines(keepends=True)
                                 if not line.startswith("point:")),
}


@pytest.fixture
def examples(tmp_path, monkeypatch):
    """Write every gallery example to examples/<name>.var under tmp_path.

    Changes into tmp_path and returns the relative directory, so paths
    read the same as in the goldens' input lines.
    """
    directory = tmp_path / "examples"
    directory.mkdir()
    for name in example_names():
        (directory / f"{name}.var").write_text(example_text(name))
    for name, text in DERIVED_EXAMPLES.items():
        (directory / f"{name}.var").write_text(text)
    monkeypatch.chdir(tmp_path)
    return Path("examples")


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_osc_text_output(capsys, examples):
    code, out, err = run(capsys, ["osc", "--order", "3", "--max",
                                  str(examples / "togliatti.var")])
    assert code == 0
    assert err == ""
    assert "dims: [0, 2, 4, 5]" in out


def test_fundform_text_output(capsys, examples):
    code, out, _ = run(capsys, ["fundform", "--order", "2",
                                str(examples / "togliatti.var"),
                                "--at", "1,1"])
    assert code == 0
    # Canonical reduced basis of the span <2 v1 v2 + v2^2, v1^2 + 2 v1 v2>.
    assert "generators: [v1^2 - v2^2, v1*v2 + 1/2*v2^2]" in out


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(example_text("togliatti")))
    code, out, _ = run(capsys, ["osc", "--order", "3", "--max", "-"])
    assert code == 0
    assert "dims: [0, 2, 4, 5]" in out


def test_json_format_carries_schema(capsys, examples):
    code, out, _ = run(capsys, ["osc", "--order", "3", "--max",
                                "--format", "json",
                                str(examples / "togliatti.var")])
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["command"] == "osc"
    assert payload["results"]["dims"] == [0, 2, 4, 5]


def test_parse_error_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.var"
    bad.write_text("kind: mystery\nparams: x y\ncoords: 1; x; y\n")
    code, _, err = run(capsys, ["osc", "--order", "2", str(bad)])
    assert code == 2
    assert err.startswith("error:")

    worse = tmp_path / "worse.var"
    worse.write_text("kind: parameterization\nparams: x y\n"
                     "coords: 1; x^-1; y\n")
    code, _, err = run(capsys, ["osc", "--order", "2", str(worse)])
    assert code == 2
    assert "error:" in err


def test_implicit_file_without_point_exits_2(capsys, tmp_path):
    partial = tmp_path / "partial.var"
    partial.write_text("kind: implicit\nvars: X0 X1 X2\n"
                       "equations: X1^2 + X2^2 - X0^2\n")
    code, _, err = run(capsys, ["osc", "--order", "2", str(partial)])
    assert code == 2
    assert "point" in err


def test_domain_error_exits_1(capsys, examples):
    code, _, err = run(capsys, ["osc", "--order", "2", "--at", "1,2,3",
                                str(examples / "togliatti.var")])
    assert code == 1
    assert err.startswith("error:")
    assert "--at has 3 entries for 2 parameters" in err


def test_ruling_check_at_reports_the_arity_like_every_command(capsys, examples):
    code, _, err = run(capsys, ["ruling-check", "--order", "2", "--at", "1",
                                str(examples / "scroll-3-3.var")])
    assert code == 1
    assert "--at has 1 entries for 2 parameters" in err


def test_malformed_coordinate_names_its_entry_and_line(capsys, tmp_path):
    bad = tmp_path / "bad.var"
    bad.write_text("kind: parameterization\n# comment\nparams: x y\n"
                   "coords: 1, x*), y, x*y\n")
    code, _, err = run(capsys, ["osc", "--order", "2", str(bad)])
    assert code == 2
    assert err.startswith("error: line 4: coords entry 2: ")


def test_missing_file_exits_1(capsys):
    code, _, err = run(capsys, ["osc", "--order", "2", "no-such-file.var"])
    assert code == 1
    assert "error:" in err


def test_directory_input_exits_1(capsys, tmp_path):
    code, out, err = run(capsys, ["osc", "--order", "2", str(tmp_path)])
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "Is a directory" in err


def test_input_that_is_not_utf8_exits_1(capsys, tmp_path):
    # A UTF-16 byte order mark: ff fe is not UTF-8.
    path = tmp_path / "utf16.var"
    path.write_bytes("kind: parameterization\n".encode("utf-16"))
    assert path.read_bytes()[:2] == b"\xff\xfe"
    code, out, err = run(capsys, ["osc", "--order", "2", str(path)])
    assert (code, out) == (1, "")
    assert err == (f"error: {path}: 'utf-8' codec can't decode byte 0xff in position 0: "
                   "invalid start byte\n")


def test_unknown_example_exits_1(capsys):
    code, _, err = run(capsys, ["example", "nonexistent"])
    assert code == 1
    assert "error:" in err


def test_example_prints_variety_file(capsys):
    code, out, _ = run(capsys, ["example", "togliatti"])
    assert code == 0
    assert parse_variety(out) == parse_variety(example_text("togliatti"))


def test_ruling_check_at_a_point_eliminates_only_over_the_rationals(
        capsys, examples, monkeypatch):
    original = exactla._echelon

    def rationals_only(ring, ncols, reduce_from):
        if not isinstance(ring, exactla._IntegerRows):
            pytest.fail(f"point-mode ruling-check eliminated over {type(ring).__name__}")
        return original(ring, ncols, reduce_from)

    monkeypatch.setattr(exactla, "_echelon", rationals_only)
    code, out, err = run(capsys, ["ruling-check", "--order", "2", "--at", "1,2",
                                  str(examples / "scroll-3-3.var")])
    assert code == 0, err
    assert "mode: point" in out
    assert "dim: 1\nbound: 1\nwithin_bound: true" in out


def test_ruling_check_reads_the_recorded_point(capsys, tmp_path):
    path = tmp_path / "ruled.var"
    path.write_text("kind: parameterization\nparams: t s\n"
                    "coords: 1, t, t^2, s, s*t, s*t^2\npoint: 1, 2\n")
    recorded = run(capsys, ["ruling-check", "--order", "2", str(path)])
    at = run(capsys, ["ruling-check", "--order", "2", "--at=1,2", str(path)])
    assert recorded == at
    assert recorded[0] == 0
    assert "mode: point\n" in recorded[1] and "at: (1, 2)\n" in recorded[1]


FOLD = "kind: parameterization\nparams: x y\ncoords: 1, x^2, x^3, y, y^2, x^2*y\n"


@pytest.mark.parametrize("argv", [
    ["osc", "--order", "2", "--max"],
    ["osc", "--order", "2"],
    ["fundform", "--order", "2"],
    ["jacobian-check", "--order", "3"],
    ["base-locus", "--order", "2"],
    ["tangent-cone", "--hyperplane=0,1,0,0,0,0"],
], ids=["osc --max", "osc", "fundform", "jacobian-check", "base-locus", "tangent-cone"])
def test_non_immersive_point_warns_once_in_report_notation(capsys, monkeypatch, argv):
    # d/dx vanishes along x = 0: x enters only through x^2, x^3 and x^2*y.
    # Each question reads the order-1 rank off an elimination it runs
    # (osc --order m and tangent-cone rank the order-1 jets once more).
    code, out, err = run_stdin(capsys, monkeypatch, argv + ["--at=0,1"], FOLD)
    assert code == 0, err
    warnings = [line for line in out.splitlines() if line.startswith("warning:")]
    assert warnings == ["warning: parameterization is not an immersion at (0, 1)"]


@pytest.mark.parametrize("argv", [
    ["fundform", "--order", "2"],
    ["tangent-cone", "--hyperplane", "0,0,0,0,0,1"],
], ids=lambda argv: argv[0])
def test_pole_error_prints_the_point_in_report_notation(capsys, tmp_path, argv):
    path = tmp_path / "pole.var"
    path.write_text("kind: parameterization\nparams: x y\n"
                    "coords: 1, x, y, x*y^2, x^2*y, y^2/(x - 1)\n")
    code, out, err = run(capsys, argv + ["--at", "1,1", str(path)])
    assert code == 1 and out == ""
    assert err == "error: denominator x - 1 vanishes at (1, 1)\n"


def run_stdin(capsys, monkeypatch, argv, text):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    return run(capsys, argv + ["-"])


@pytest.mark.parametrize("order", ["0", "-1", "3"])
def test_scroll_order_outside_the_range_exits_1(capsys, monkeypatch, order):
    code, out, err = run_stdin(capsys, monkeypatch, ["scroll", "--order", order],
                               example_text("scroll-2-2"))
    assert (code, out) == (1, "")
    assert err == f"error: order {order} outside the valid range 1..2 for ScrollSpec(2, 2)\n"


@pytest.mark.parametrize("degrees, blocks", [("3,4", 2), ("2,2,3", 3)])
def test_scroll_report_builds_one_jet_matrix_per_check(capsys, monkeypatch, degrees, blocks):
    eliminations = []
    original = exactla._eliminate

    def counting(matrix, reduce):
        eliminations.append(matrix.nrows)
        return original(matrix, reduce)

    builds = []
    original_build = ruled.jet_matrix

    def counting_build(*args):
        builds.append(args)
        return original_build(*args)

    monkeypatch.setattr(exactla, "_eliminate", counting)
    monkeypatch.setattr(ruled, "jet_matrix", counting_build)
    code, out, err = run_stdin(capsys, monkeypatch, ["scroll"],
                               f"kind: scroll\ndegrees: {degrees}\n")
    assert code == 0, err
    assert "all_match: true" in out
    # The rank check and the pushdown check share one jet matrix; the
    # ranks of every order are one elimination, the pushdown one per block.
    assert len(builds) == 1
    assert len(eliminations) == 1 + blocks


def test_report_lists_each_warning_once(capsys, monkeypatch):
    # The degenerate scroll warns in both checks; the report says it once.
    code, out, err = run_stdin(capsys, monkeypatch, ["scroll"],
                               "kind: scroll\ndegrees: 3\n")
    assert code == 0, err
    assert "all_match: true" in out
    warnings = [line for line in out.splitlines() if line.startswith("warning:")]
    assert warnings == [
        "warning: scroll(3,) has no fiber parameters; this is the rational "
        "normal curve, a degenerate scroll"]
    code, out, err = run_stdin(capsys, monkeypatch, ["scroll", "--format", "json"],
                               "kind: scroll\ndegrees: 3\n")
    assert code == 0, err
    assert len(json.loads(out)["warnings"]) == 1


TWISTED_CUBIC = "kind: parameterization\nparams: t\ncoords: 1, t, t^2, t^3\n"


@pytest.mark.parametrize("argv, text, message", [
    (["--samples", "0"], example_text("scroll-2-2"),
     "the ruledness test needs at least one sample point"),
    (["--samples", "-2"], example_text("scroll-2-2"),
     "the ruledness test needs at least one sample point"),
    (["--order", "2"], example_text("scroll-2-2"),
     "Monge order must be at least 3, got 2"),
    ([], example_text("togliatti-implicit"),
     "Monge charts need a hypersurface in P^3; got 3 equations in P^5"),
    (["--at", "1"], TWISTED_CUBIC,
     "Monge charts need a surface in P^3; got source 1, ambient 3"),
], ids=["no-samples", "negative-samples", "order-2", "implicit-p5", "curve"])
def test_ruled_test_rejects_input_no_sample_point_can_serve(capsys, monkeypatch,
                                                            argv, text, message):
    code, out, err = run_stdin(capsys, monkeypatch, ["ruled-test"] + argv, text)
    assert (code, out, err) == (1, "", f"error: {message}\n")
    if "--samples" not in argv:
        # monge rejects the same input with the same message.  A scroll
        # file records no point, which monge needs and reports missing
        # first, so monge is given one.
        point = ["--at=1,2"] if "kind: scroll" in text else []
        code, out, err = run_stdin(capsys, monkeypatch, ["monge"] + argv + point, text)
        assert (code, out, err) == (1, "", f"error: {message}\n")


QUADRIC = "kind: implicit\nvars: X0 X1 X2 X3\nequations: X0*X3 - X1*X2\npoint: 1, 0, 0, 0\n"


@pytest.mark.parametrize("at, text, message", [
    ("1,2,3", example_text("scroll-2-2"), "--at has 3 entries for 2 parameters"),
    ("1,2", QUADRIC, "--at has 2 entries for 4 coordinates"),
], ids=["parameterization", "implicit"])
def test_ruled_test_rejects_an_at_point_of_the_wrong_length(capsys, monkeypatch,
                                                            at, text, message):
    code, out, err = run_stdin(capsys, monkeypatch, ["ruled-test", "--at", at], text)
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("samples", ["0", "3"])
def test_ruled_test_refuses_samples_on_implicit_input(capsys, monkeypatch, samples):
    code, out, err = run_stdin(capsys, monkeypatch, ["ruled-test", "--samples", samples],
                               QUADRIC)
    assert (code, out) == (1, "")
    assert err == (f"error: --samples {samples}: implicit input is examined at its "
                   "recorded point (or at the --at points), not at random samples\n")


def test_ruled_test_examines_implicit_input_at_its_recorded_point(capsys, monkeypatch):
    reports = [run_stdin(capsys, monkeypatch, ["ruled-test"] + argv, QUADRIC)
               for argv in ([], ["--samples", "1"])]
    assert reports[0] == reports[1]
    code, out, err = reports[0]
    assert code == 0, err
    assert "sampled_points: [(1, 0, 0, 0)]" in out
    assert "verdict: ruled-evidence" in out


# 20-digit coefficients: the divisor search of the rational-root theorem
# would trial-divide up to about 10^10 on each, which runs for minutes.
HOSTILE_QUADRIC = ("kind: implicit\nvars: X0 X1 X2 X3\n"
                   "equations: X0*X3 - X1^2 + 100000000000000000039*X2^2\n"
                   "point: 1,0,0,0\n")
HOSTILE_GRAPH = ("kind: parameterization\nparams: x y\ncoords: 1, x, y, "
                 "(x - 100000000000000000039*y)*(100000000000000000129*x + y)\n")


def cli_within(budget_s, argv, text):
    """The CLI on `text` from stdin in a child process, stopped past
    `budget_s` seconds and held to 1 GB of address space, so input that
    hangs or grows fails instead of hanging."""
    src = Path(cli.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-c", "import resource, sys; "
         "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
         "from oscform.cli import main; sys.exit(main(sys.argv[1:]))", *argv, "-"],
        input=text, capture_output=True, text=True, timeout=budget_s,
        env={**os.environ, "PYTHONPATH": str(src)})


def ruled_test_within(budget_s, argv, text):
    """ruled-test on `text` in a child process (`cli_within`)."""
    proc = cli_within(budget_s, ["ruled-test", *argv], text)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_ruled_test_on_large_coefficients_finishes_fast():
    lines = ruled_test_within(2, [], HOSTILE_QUADRIC)
    assert ("point (1, 0, 0, 0): intersects true (resultant 0); (1:s) mod s^2 + (0)*s + "
            "(-1/100000000000000000039) contact >= 4") in lines
    assert "verdict: ruled-evidence" in lines
    # f2 splits over Q into factors with 20-digit coefficients.
    lines = ruled_test_within(2, ["--at", "0,0", "--at", "1,2", "--samples", "2"],
                              HOSTILE_GRAPH)
    directions = ("intersects true (resultant 0); (1:-100000000000000000129) contact >= 4; "
                  "(1:1/100000000000000000039) contact >= 4")
    assert f"point (0, 0): {directions}" in lines
    assert f"point (1, 2): {directions}" in lines
    assert "verdict: ruled-evidence" in lines


@pytest.mark.parametrize("entry, char, column", [("x^\u00b2", "\u00b2", 3),
                                                  ("\u0663", "\u0663", 1)])
def test_non_ascii_digit_is_a_parse_error(capsys, monkeypatch, entry, char, column):
    text = f"kind: parameterization\nparams: x y\ncoords: 1, x, y, {entry}\n"
    code, out, err = run_stdin(capsys, monkeypatch,
                               ["osc", "--order", "2", "--max", "--at=1,2"], text)
    assert (code, out) == (2, "")
    assert err == (f"error: line 3: coords entry 4: line 1, column {column}: "
                   f"unexpected character {char!r}\n")


@pytest.mark.parametrize("entry, column", [("x^70000", 2), ("x^40000*y^40000", 8),
                                           ("(x^300)^300", 8), ("2*x^40000*x^30000", 10)])
def test_degree_past_the_packed_key_bound_is_a_parse_error(capsys, monkeypatch, entry,
                                                           column):
    text = f"kind: parameterization\nparams: x y\ncoords: 1, x, y, {entry}\n"
    code, out, err = run_stdin(capsys, monkeypatch,
                               ["osc", "--order", "2", "--max", "--at=1,2"], text)
    assert (code, out) == (2, "")
    assert err == (f"error: line 3: coords entry 4: line 1, column {column}: "
                   "polynomial degree exceeds 65535\n")


def test_degree_at_the_packed_key_bound_runs(capsys, monkeypatch):
    text = "kind: parameterization\nparams: x y\ncoords: 1, x, y, x^65535\n"
    code, out, err = run_stdin(capsys, monkeypatch, ["osc", "--order", "2", "--at=1,2"], text)
    assert code == 0, err
    assert "dim: 3" in out


def test_high_exponents_at_a_rational_point_expand_fast():
    # The Taylor shift caps each variable's binomial terms at the jet
    # order, so x^60000*y^5000 at (2, 1/3) costs a few products of large
    # integers.  Composing (u + 2)^60000 one factor at a time took about
    # 2 s on a 2-core VM; this takes under 0.01 s.  The child times main()
    # itself, so interpreter start-up is not counted.
    src = Path(cli.__file__).resolve().parents[1]
    script = ("import sys, time\n"
              "from oscform.cli import main\n"
              "start = time.perf_counter()\n"
              "code = main(['osc', '--order', '3', '--max', '--at=2,1/3', '-'])\n"
              "print(code, time.perf_counter() - start, file=sys.stderr)\n")
    text = "kind: parameterization\nparams: x y\ncoords: 1, x, y, x^60000*y^5000 + x^2*y\n"
    proc = subprocess.run([sys.executable, "-c", script], input=text,
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(src)})
    code, elapsed = proc.stderr.split()
    assert code == "0"
    assert "dims: [0, 2, 3, 3]" in proc.stdout.splitlines()
    assert float(elapsed) < 0.5


def test_high_exponents_in_a_newton_solve_take_few_products():
    # The Newton sweeps build X1^65000 by squaring from cached powers,
    # about 2 log2(e) products each; one product per power made 390,007
    # of them and took about 1.9 s on a 2-core VM.  The child times main()
    # itself, so interpreter start-up is not counted.
    src = Path(cli.__file__).resolve().parents[1]
    script = ("import sys, time\n"
              "from oscform.cli import main\n"
              "start = time.perf_counter()\n"
              "code = main(['implicit-jet', '--order', '3', '-'])\n"
              "print(code, time.perf_counter() - start, file=sys.stderr)\n")
    text = ("kind: implicit\nvars: X0 X1 X2 X3\n"
            "equations: X0^64999*X3 - X1^65000 + X2*X0^64999\npoint: 1,1,0,1\n")
    proc = subprocess.run([sys.executable, "-c", script], input=text,
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(src)})
    code, elapsed = proc.stderr.split()
    assert code == "0"
    assert ("coords: [1, X1 + 1, X2, 45768720855000*X1^3 + 2112467500*X1^2 + 65000*X1 "
            "- X2 + 1]") in proc.stdout.splitlines()
    assert float(elapsed) < 0.5


TWISTED_CUBIC = "kind: parameterization\nparams: x\ncoords: 1, x, x^2, x^3\n"
SEGRE_QUADRIC = ("kind: implicit\nvars: X0 X1 X2 X3\nequations: X0*X3 - X1*X2\n"
                 "point: 1,0,0,0\n")


@pytest.mark.parametrize("argv, text", [
    (["osc", "--max", "--order", "70000", "--at", "1"], TWISTED_CUBIC),
    (["fundform", "--order", "70000", "--at", "1"], TWISTED_CUBIC),
    (["tangent-cone", "--hyperplane", "1,-1,0,0", "--at", "1", "--max-order", "70000"],
     TWISTED_CUBIC),
    (["implicit-jet", "--order", "70000"], SEGRE_QUADRIC),
    (["monge", "--order", "70000"], SEGRE_QUADRIC),
    (["ruled-test", "--order", "70000"], SEGRE_QUADRIC),
])
def test_order_past_the_packed_key_bound_is_a_domain_error(capsys, monkeypatch, argv, text):
    code, out, err = run_stdin(capsys, monkeypatch, argv, text)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "70000 exceeds 65535" in err
    assert len(err.splitlines()) == 1


def test_surface_order_past_the_packed_key_bound_fails_before_enumerating():
    # The order-70000 jet rows of a surface are C(70002, 2) multi-indices:
    # enumerating them first would not finish within the budget.
    text = "kind: parameterization\nparams: x y\ncoords: 1, x, y, x^2 + y^2\n"
    proc = cli_within(2, ["fundform", "--order", "70000", "--at", "1,1"], text)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == ("error: jet order 70000 exceeds 65535, the largest degree "
                           "a packed monomial key holds\n")


def test_ruled_test_at_a_high_order_holds_one_vector_per_nonzero_piece():
    # The graph of the quadric at (1, 0, 0, 0) is x3 = x1*x2: every piece
    # but f2 is zero.  A zero vector per degree would be about 2e8 list
    # slots (1.6 GB) at order 20000; this takes about 0.1 s and 0.4 MB on a
    # 2-core VM.  The child is held to 1 GB of address space.
    src = Path(cli.__file__).resolve().parents[1]
    script = ("import resource, sys, time, tracemalloc\n"
              "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
              "from oscform.cli import main\n"
              "tracemalloc.start()\n"
              "start = time.perf_counter()\n"
              "code = main(['ruled-test', '--order', '20000', '-'])\n"
              "elapsed = time.perf_counter() - start\n"
              "print(code, elapsed, tracemalloc.get_traced_memory()[1], file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-c", script], input=SEGRE_QUADRIC,
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(src)})
    code, elapsed, peak = proc.stderr.split()
    assert code == "0"
    assert float(elapsed) < 3
    assert int(peak) < 16 << 20
    assert ("point (1, 0, 0, 0): intersects true (resultant 0); (1:0) contact >= 20000; "
            "(0:1) contact >= 20000") in proc.stdout.splitlines()


def test_reports_are_deterministic(capsys, examples):
    argv = ["ruled-test", "--samples", "3", "--seed", "5",
            str(examples / "scroll-2-2.var")]
    code, first, err = run(capsys, argv)
    assert code == 0, err
    code, second, err = run(capsys, argv)
    assert code == 0, err
    assert first == second
    assert "verdict: ruled-evidence" in first


def test_seed_changes_sampled_points(capsys, examples):
    argv = ["ruled-test", "--samples", "3",
            str(examples / "scroll-2-2.var")]
    code, a, err = run(capsys, argv + ["--seed", "5"])
    assert code == 0, err
    code, b, err = run(capsys, argv + ["--seed", "6"])
    assert code == 0, err
    assert a != b


def test_one_parser_serves_every_call(capsys, examples, monkeypatch):
    # main builds its parser once per process; no call may see an
    # earlier call's arguments, and an argparse error must not break the
    # calls after it.
    surface = examples / "graph.var"
    surface.write_text("kind: parameterization\nparams: x y\n"
                       "coords: 1, x, y, x*y + x^3 - 1/2*y^2\n")
    builds = []
    original_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(kwargs.get("prog"))
        original_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._build_parser.cache_clear()

    def report(argv):
        code, out, err = run(capsys, argv)
        assert code == 0, f"{argv}: {err}"
        return out

    ruled = ["ruled-test", "--samples", "3", "--seed", "5",
             str(examples / "scroll-2-2.var")]
    without_at = report(ruled)
    parsers_per_build = len(builds)
    assert builds[0] == "oscform"
    with_at = report(ruled[:1] + ["--at", "1,2"] + ruled[1:])
    assert "sampled_points: [(1, 2), " in with_at
    assert report(ruled) == without_at

    with pytest.raises(SystemExit) as exc:
        main(["osc", "--order", "two", str(surface)])
    assert exc.value.code == 2
    assert "invalid int value" in capsys.readouterr().err

    commands = {
        "osc": ["osc", "--order", "3", "--max", "--at", "1,2", str(surface)],
        "fundform": ["fundform", "--order", "2", "--at", "1,2", str(surface)],
        "monge": ["monge", "--at", "1,2", str(surface)],
    }
    first = {name: report(argv) for name, argv in commands.items()}
    for name in ("monge", "osc", "monge", "fundform", "osc", "fundform"):
        assert report(commands[name]) == first[name], name

    assert len(builds) == parsers_per_build
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 12)


def test_generic_osc_is_certified_symbolic(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(example_text("scroll-2-2")))
    code, out, err = run(capsys, ["osc", "--order", "2", "--max", "-"])
    assert code == 0, err
    lines = out.splitlines()
    assert "mode: generic-symbolic" in lines
    assert "dims: [0, 2, 4]" in lines
    assert not [line for line in lines
                if line.startswith(("seed:", "sampled_points:"))]


@pytest.mark.parametrize("flag", [["--symbolic"], ["--seed", "5"]])
def test_osc_has_no_sampling_flags(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["osc", "--order", "2", "--max", *flag, "-"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def readme_commands():
    """(command line, output lines shown under it) for every `$ oscform`

    line of README's shell block."""
    block = next(b for b in README.read_text().split("```sh\n")[1:]
                 if b.startswith("$ oscform")).split("```")[0]
    commands = []
    for line in block.splitlines():
        if line.startswith("$ "):
            commands.append((line[2:], []))
        elif line.strip():
            commands[-1][1].append(line)
    return commands


def test_readme_command_block(capsys, monkeypatch, tmp_path):
    # The lines run in order in one directory, so a file written by
    # `> name.var` is there for the lines below it; `a | b -` feeds the
    # report of a to b on stdin.
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert len(commands) >= 8
    assert sum(len(shown) for _, shown in commands) >= 8
    for line, shown in commands:
        out = ""
        for stage in line.split(" | "):
            argv = shlex.split(stage, comments=True)
            target = None
            if ">" in argv:
                argv, target = argv[:argv.index(">")], argv[-1]
            assert argv[0] == "oscform", line
            monkeypatch.setattr("sys.stdin", io.StringIO(out))
            code, out, err = run(capsys, argv[1:])
            assert code == 0, f"{line}: {err}"
            if target is not None:
                Path(target).write_text(out)
        for expected in shown:
            assert expected in out.splitlines(), f"{line}: {expected!r} not in\n{out}"


def test_heat_check_subcommand(capsys, tmp_path):
    surface = tmp_path / "heat.var"
    surface.write_text(example_text("shifrin"))
    code, out, _ = run(capsys, ["heat-check", "--phi", "1", str(surface)])
    assert code == 0
    assert "satisfied: true" in out


@pytest.mark.parametrize("name", example_names())
def test_gallery_round_trip(name):
    text = example_text(name)
    v = parse_variety(text)
    assert parse_variety(print_variety(v)) == v


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_golden_reports(capsys, examples, name):
    example, command = GOLDEN_COMMANDS[name]
    path = examples / f"{example}.var"
    if not path.exists():
        path.write_text(example_text(example))
    # Goldens record the relative path in their input line.
    argv = command + [str(path)]
    code, out, err = run(capsys, argv)
    assert code == 0, err
    assert out == (GOLDEN / f"{name}.txt").read_text()


def test_monge_prints_a_piece_above_the_order_as_not_computed(capsys, monkeypatch):
    text = ("kind: parameterization\nparams: x y\n"
            "coords: 1 + x*y, x + y^2, y - x^2, x^3 + 2*y^3 - x*y\n")
    reports = {}
    for order in ("3", "4"):
        code, out, err = run_stdin(capsys, monkeypatch,
                                   ["monge", "--order", order, "--at=1/3,2"], text)
        assert code == 0, err
        reports[order] = {line.split(": ")[0]: line for line in out.splitlines()}
    assert reports["3"]["f4"] == "f4: not computed"
    assert reports["4"]["f4"].startswith("f4: -31894754142/127187639389*x1^4 + ")
    for key in ("f2", "f3", "resultant", "intersects"):
        assert reports["3"][key] == reports["4"][key]


MONGE_SURFACE = ("kind: parameterization\nparams: x y\n"
                 "coords: 1 + x*y, x + y^2, y - x^2, x^3 + 2*y^3 - x*y\n")
MONGE_QUARTIC = ("kind: implicit\nvars: X0 X1 X2 X3\n"
                 "equations: X0^3*X3 - X0^2*(X1^2 - 2*X2^2) - X0*X1*(X1^2 - 2*X2^2) - X1^4\n"
                 "point: 1,0,0,0\n")


@pytest.mark.parametrize("text, argv", [(MONGE_SURFACE, ["--at=1/3,2"]), (MONGE_QUARTIC, [])],
                         ids=["parameterization", "implicit"])
def test_monge_at_a_high_order_solves_only_the_printed_pieces(capsys, monkeypatch, text, argv):
    # monge prints f2, f3, f4 and the resultant, so --order 40 gives the
    # report of --order 4 but for its order line, and solves the graph
    # through degree 4 only: solving all 40 degrees took about 9 s on the
    # parameterization on a 2-core VM.
    orders = []
    monge_form = cli.monge_form

    def recording(surface, point=None, order=4):
        orders.append(order)
        return monge_form(surface, point, order)

    monkeypatch.setattr(cli, "monge_form", recording)
    reports = {}
    for order in ("4", "40"):
        start = time.perf_counter()
        code, out, err = run_stdin(capsys, monkeypatch, ["monge", "--order", order] + argv, text)
        elapsed = time.perf_counter() - start
        assert code == 0, err
        assert elapsed < 2, (order, elapsed)
        reports[order] = out
    assert orders == [4, 4]
    assert reports["40"] == reports["4"].replace("\norder: 4\n", "\norder: 40\n", 1)
    assert "order: 40" in reports["40"].splitlines()
    assert not any(line.endswith("not computed") for line in reports["40"].splitlines())
    code, out, err = run_stdin(capsys, monkeypatch, ["monge", "--order", "3"] + argv, text)
    assert code == 0, err
    assert "f4: not computed" in out.splitlines()
    assert orders[-1] == 3


@pytest.mark.parametrize("text, argv", [(MONGE_SURFACE, ["--at=1/3,2"]), (MONGE_QUARTIC, [])],
                         ids=["parameterization", "implicit"])
@pytest.mark.parametrize("order, message", [
    ("2", "Monge order must be at least 3, got 2"),
    ("65536", "Monge order 65536 exceeds 65535, the largest degree a packed monomial key holds"),
], ids=["below-3", "past-the-key-bound"])
def test_monge_checks_the_requested_order_not_the_solved_one(capsys, monkeypatch, text, argv,
                                                             order, message):
    code, out, err = run_stdin(capsys, monkeypatch, ["monge", "--order", order] + argv, text)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_monge_parses_the_file_before_checking_the_order(capsys, monkeypatch):
    code, out, err = run_stdin(capsys, monkeypatch, ["monge", "--order", "2", "--at=1,2"],
                               "kind: parameterization\nparams: x y\ncoords: 1, x, y, 2x\n")
    assert (code, out) == (2, "")


@pytest.mark.parametrize("text", [
    example_text("scroll-1-1"),
    "kind: parameterization\nparams: t s\ncoords: 1, t, s, s*t\n",
], ids=["scroll", "parameterization"])
@pytest.mark.parametrize("argv", [[], ["--order", "2"]], ids=["default-order", "order-2"])
def test_monge_without_a_point_says_so_for_every_parameterized_kind(capsys, monkeypatch,
                                                                    text, argv):
    # A scroll is its underlying parameterization: the missing point is
    # reported first, before the order is checked.
    code, out, err = run_stdin(capsys, monkeypatch, ["monge"] + argv, text)
    assert (code, out, err) == (
        1, "", "error: monge needs --at or a point recorded in the file\n")


# Every coordinate vanishes at the origin, so (0, 0) is no projective point.
VANISHING = "kind: parameterization\nparams: x y\ncoords: x, y, x*y, x^2 + y^2\n"
NOT_PROJECTIVE = "all coordinates vanish at (0, 0); not a projective point"


@pytest.mark.parametrize("argv", [
    ["osc", "--order", "2", "--max"],
    ["fundform", "--order", "2"],
    ["jacobian-check", "--order", "3"],
    ["base-locus", "--order", "2"],
    ["tangent-cone", "--hyperplane=1,0,0,0"],
    ["monge", "--order", "4"],
    ["phibar-check", "--order", "2"],
], ids=lambda argv: argv[0])
def test_point_commands_reject_a_point_where_every_coordinate_vanishes(capsys, monkeypatch,
                                                                       argv):
    code, out, err = run_stdin(capsys, monkeypatch, argv + ["--at=0,0"], VANISHING)
    assert (code, out, err) == (1, "", f"error: {NOT_PROJECTIVE}\n")


def test_ruled_test_reports_a_point_where_every_coordinate_vanishes(capsys, monkeypatch):
    code, out, err = run_stdin(capsys, monkeypatch, ["ruled-test", "--samples", "0",
                                                     "--at=0,0"], VANISHING)
    assert code == 0, err
    assert f"point (0, 0): error: DomainError: {NOT_PROJECTIVE}" in out.splitlines()


# Rational surfaces in Q(x, y): the first has one denominator, the second
# two coprime ones, so the product of the denominators is their lcm.
RATIONAL_SURFACES = [
    ["1", "x", "y", "x*y^2", "x^2*y", "y^2/(x - 1)"],
    ["1", "x", "y", "x*y^2/(y + 1)", "x^2*y", "y^2/(x - 1) + x"],
]


@pytest.mark.parametrize("coords", RATIONAL_SURFACES, ids=["one-denominator", "two"])
@pytest.mark.parametrize("argv", [
    ["fundform", "--order", "2"],
    ["fundform", "--order", "3"],
    ["jacobian-check", "--order", "3"],
    ["phibar-check", "--order", "2"],
    ["phibar-check", "--order", "3"],
    ["osc", "--order", "3", "--max"],
], ids=" ".join)
def test_generic_reports_of_a_rational_surface_equal_its_cleared_twins(
        capsys, monkeypatch, coords, argv):
    # Multiplying every coordinate by the common denominator Q changes
    # the parameterization, not the surface: the generic reports agree
    # byte for byte.
    xy = ("x", "y")
    values = [parse_rational(c, xy) for c in coords]
    q = RationalFunction.from_scalar(xy, 1)
    for v in values:
        q = q * v.denominator
    assert all((v * q).is_polynomial() for v in values)
    twin = [str(v * q) for v in values]

    def report(cs):
        text = f"kind: parameterization\nparams: x y\ncoords: {', '.join(cs)}\n"
        code, out, err = run_stdin(capsys, monkeypatch, argv, text)
        assert code == 0, err
        return out

    assert report(coords) == report(twin)
