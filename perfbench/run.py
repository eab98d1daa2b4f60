"""oscform benchmark: seeded CLI workloads, end to end and layer by layer.

    python3 perfbench/run.py --workload point --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run from the root of a source checkout; the program is imported from
`src/`.  One client in one process runs tasks one after another (a closed
loop, no threads, no pool).  A task is one `oscform.cli.main(argv)` call
with stdout captured; every report is checked (see checks.py).

With `--trace 0` the last line holds the end-to-end metrics, measured
untraced: `setup_s` (the median of three cold set-ups, each in a fresh
process timed from its start to where the first timed task would begin:
interpreter start, import, generating and writing the inputs, and one
warm-up task per command), `tasks_per_s`, `task_ms_p50`,
`task_ms_tail` (the highest percentile with ten tasks beyond it; the
percentile and task count are printed above the last line) and
`peak_rss_mb`.  `fail_ratio` is printed with them and is
`failed / attempted` in the last line.

The timed loop cycles through the task list for `--seconds`, and at
least once.  A task's time is the median over its runs, so every task of
the list counts once, however far the loop got into its last cycle:
`tasks_per_s` is the number of tasks over the sum of their times (one
pass of the list), and the p50 and tail are taken over the tasks.
Every time is at reference speed: scaled by a fixed kernel timed around
it (speed.py), because the host's own speed drifts by more than the
bounds.

With `--trace 1` every task runs twice in a row, untraced and traced
(tracing.py); the last line holds the per-layer metrics, per traced task,
with `trace.overhead` and `pairs.generic_over_point`, and the spans go to
`.perfbench_out/trace-<workload>-<seed>.jsonl`.

`--workload all` runs each workload in its own process, one after
another, and prints one table.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs as I  # noqa: E402
import workloads as W  # noqa: E402
from speed import ScaledClock, scaled_call  # noqa: E402
from tracing import Tracer  # noqa: E402

SETUP_REPEATS = 3
PAIR_REPEATS = 5
END_TO_END = {"setup_s": "s", "tasks_per_s": "1/s", "task_ms_p50": "ms",
              "task_ms_tail": "ms", "peak_rss_mb": "MB"}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s/task"
    if name.split(".")[-1].startswith("max_"):
        return name.split("_")[-1]           # degree, terms, bits
    if name in ("pairs.generic_over_point", "trace.overhead"):
        return "ratio"
    return "count/task"


def import_program():
    """Import the CLI from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import oscform.cli
        from oscform.gallery import example_text
    except ImportError as exc:
        raise SystemExit(f"error: cannot import oscform from {src}: {exc}")
    if src.resolve() not in Path(oscform.cli.__file__).resolve().parents:
        raise SystemExit(f"error: oscform was imported from {oscform.cli.__file__}")
    return oscform.cli.main, example_text


def run_task(main, argv) -> tuple[object, str]:
    """One CLI call with stdout and stderr captured: (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed task, not a dead run
            code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue()


class Outcomes:
    """Exit codes and reports of every task run, checked after timing.

    The first report of each distinct task is checked; every repeat must
    equal it byte for byte (reports are deterministic)."""

    def __init__(self, tasks):
        self.tasks = list(tasks)
        self.first: dict[int, str] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, index: int, code, out: str) -> None:
        self.attempted += 1
        task = self.tasks[index]
        if code != 0:
            self.failures.append(f"{task.name}: exit {code}")
        elif index not in self.first:
            self.first[index] = out
        elif out != self.first[index]:
            self.failures.append(f"{task.name}: report differs from its first run")

    def check(self) -> None:
        for index, out in self.first.items():
            reason = self.tasks[index].verify(out)
            if reason:
                self.failures.append(f"{self.tasks[index].name}: {reason}")


def timed_loop(main, tasks, outcomes, seconds):
    """Run tasks in order, cycling, for `seconds` of wall time and at
    least one pass.  Returns each task's median time at reference speed
    (speed.py), and the number of task runs."""
    clock = ScaledClock()
    start = time.perf_counter()
    i = 0
    while True:
        index = i % len(tasks)
        t0 = time.perf_counter()
        code, out = run_task(main, tasks[index].argv)
        clock.task_done(time.perf_counter() - t0)
        outcomes.record(index, code, out)
        i += 1
        if i >= len(tasks) and time.perf_counter() - start >= seconds:
            break
    times = clock.scaled()
    return [statistics.median(times[k::len(tasks)]) for k in range(len(tasks))], i


def set_up(workload, seed, main, example_text, directory: Path):
    """Generate the inputs, write them, and warm up once per command.
    Returns the workload's tasks and the pair tasks timed by the traced
    run of `point` and `ruled` (see traced())."""
    golden_dir = ROOT / "tests" / "golden"
    if not golden_dir.is_dir():
        raise SystemExit(f"error: {golden_dir} is missing")
    gallery = I.gallery(example_text)
    varieties, tasks, warmups = W.BUILDERS[workload](seed, gallery, golden_dir)
    pair_varieties, pairs = ([], []) if workload == "generic" else \
        W.gallery_pairs(seed, gallery, golden_dir)
    I.write_examples(directory, list(gallery.values()) + varieties + pair_varieties)
    os.chdir(directory)
    for task in warmups:
        run_task(main, task.argv)
    return tasks, pairs


def cold_setups(args, workdir: Path) -> float:
    """Median, over SETUP_REPEATS fresh processes, of the time from
    starting the process to the end of its set-up (interpreter start,
    import, inputs, files, warm-ups), where the first timed task would
    begin.  Each process sets up cold, so first-use costs show.  Each
    time is scaled to reference speed by kernel runs around it."""
    times = []
    for k in range(SETUP_REPEATS):
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", "0",
                "--setup-only", str(workdir / f"setup-{k}")]

        def spawn():
            proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=150)
            if proc.returncode != 0:
                raise SystemExit(f"error: set-up failed:\n{proc.stderr}")

        times.append(scaled_call(spawn))
    return statistics.median(times)


def tail(times_ms: list[float]) -> tuple[float, float]:
    """Time at the highest percentile with at least ten tasks beyond it,
    and that percentile."""
    n = len(times_ms)
    if n < 11:
        raise SystemExit(f"error: only {n} tasks; the tail needs at least 11")
    return sorted(times_ms)[n - 11], 100.0 * (n - 10) / n


def measure(args) -> dict:
    workdir = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    try:
        setup_s = cold_setups(args, workdir)
        main, example_text = import_program()
        tasks, pairs = set_up(args.workload, args.seed, main, example_text, workdir / "run")
        outcomes = Outcomes(tasks)
        if not args.trace:
            times, runs = timed_loop(main, tasks, outcomes, seconds=args.seconds)
            times_ms = [t * 1000 for t in times]
            tail_ms, percentile = tail(times_ms)
            metrics = {
                "setup_s": setup_s,
                "tasks_per_s": len(times) / sum(times),
                "task_ms_p50": statistics.median(times_ms),
                "task_ms_tail": tail_ms,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            notes = {"runs": runs, "tasks": len(times), "tail_percentile": round(percentile, 2)}
        else:
            metrics, notes = traced(args, main, tasks, pairs, outcomes)
        outcomes.check()
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    return {"metrics": metrics, "notes": notes, "attempted": outcomes.attempted,
            "failures": outcomes.failures}


def traced(args, main, tasks, pairs, outcomes):
    """Each task runs twice in a row, untraced and traced, in alternating
    order, so both sides see the same tasks in the same state; the
    per-layer numbers come from the traced runs.

    pairs.generic_over_point is the median, over paired computations, of
    generic time over point time; the point side is the median of
    PAIR_REPEATS runs of the same command at the task's general point
    (`--at`).  On `generic` the pairs are the workload's own fundform and
    jacobian-check tasks, each paired when the loop reaches it, with its
    untraced run as the generic side.  `point` and `ruled` run no generic
    task; they time the generic workload's gallery pairs before the loop,
    the generic side also as a median of PAIR_REPEATS runs."""
    def add(task) -> int:
        outcomes.tasks.append(task)
        return len(outcomes.tasks) - 1

    def median_s(index: int) -> float:
        times = []
        for _ in range(PAIR_REPEATS):
            t0 = time.perf_counter()
            code, out = run_task(main, outcomes.tasks[index].argv)
            times.append(time.perf_counter() - t0)
            outcomes.record(index, code, out)
        return statistics.median(times)

    ratios = [median_s(add(task)) / median_s(add(task.point_twin())) for task in pairs]
    twins = {i: add(task.point_twin()) for i, task in enumerate(tasks) if task.at}
    tracer = Tracer()
    plain_s = traced_s = 0.0
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < args.seconds:
        index = i % len(tasks)
        argv = tasks[index].argv
        for traced_turn in ((False, True) if i % 2 == 0 else (True, False)):
            if traced_turn:
                tracer.install()
            t0 = time.perf_counter()
            try:
                code, out = (tracer.task(i, lambda: run_task(main, argv)) if traced_turn
                             else run_task(main, argv))
            finally:
                elapsed = time.perf_counter() - t0
                tracer.uninstall()
            if traced_turn:
                traced_s += elapsed
            else:
                plain_s += elapsed
                generic_s = elapsed
            outcomes.record(index, code, out)
        if index in twins:
            ratios.append(generic_s / median_s(twins[index]))
        i += 1
    if not ratios:
        raise SystemExit("error: no generic/point pair ran; give the run more --seconds")
    metrics = tracer.metrics()
    metrics["pairs.generic_over_point"] = statistics.median(ratios)
    metrics["trace.overhead"] = traced_s / plain_s
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"trace-{args.workload}-{args.seed}.jsonl"
    tracer.write_spans(spans)
    notes = {"samples": i, "pairs": [round(r, 1) for r in ratios],
             "spans": str(spans.relative_to(ROOT))}
    return metrics, notes


def result_line(result: dict, trace: bool) -> dict:
    units = ({name: per_layer_unit(name) for name in result["metrics"]}
             if trace else END_TO_END)
    return {
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": len(result["failures"]),
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }


def print_table(rows: dict[str, dict]) -> None:
    """Metric table: one row per metric, one column per workload."""
    names = list(next(iter(rows.values()))["metrics"])
    print(f"{'metric':40s} {'unit':11s}" + "".join(f"{w:>14s}" for w in rows))
    for name in names:
        unit = next(iter(rows.values()))["metrics"][name]["unit"]
        cells = "".join(f"{r['metrics'][name]['value']:14.6g}" for r in rows.values())
        print(f"{name:40s} {unit:11s}{cells}")
    print(f"{'fail_ratio':40s} {'1':11s}" + "".join(
        f"{r['failed'] / r['attempted']:14.6g}" for r in rows.values()))


def run_all(args) -> int:
    rows = {}
    for workload in W.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(int(args.trace))]
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr, end="")
            return 1
        print("\n".join(lines[:-1]))
        rows[workload] = json.loads(lines[-1])
    print_table(rows)
    print(json.dumps(rows))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR",
                        help="set up once into DIR and exit, running no timed task "
                             "(how setup_s times a cold set-up)")
    args = parser.parse_args()
    if args.setup_only:
        main_fn, example_text = import_program()
        set_up(args.workload, args.seed, main_fn, example_text, Path(args.setup_only))
        return 0
    if args.workload == "all":
        return run_all(args)
    result = measure(args)
    line = result_line(result, bool(args.trace))
    print(f"workload {args.workload}, seed {args.seed}: {line['attempted']} tasks, "
          f"{line['failed']} failed, fail_ratio {line['failed'] / line['attempted']:.6g}; "
          + ", ".join(f"{k} {v}" for k, v in result["notes"].items()))
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    print_table({args.workload: line})
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
