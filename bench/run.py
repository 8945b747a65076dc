"""Benchmark of isoprod, driven in process through `isoprod.cli.main`.

    python3 bench/run.py --workload catalog|ladder|corpus --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload corpus --quick      # one short pass, every check kept

Each invocation is one process running one workload, single-threaded.  It
imports isoprod from src/ of the checkout it sits in, builds the workload's
inputs, then runs whole passes over the workload's cases until --seconds of
timed work have gone by.  Every answer is parsed and checked (checks.py).
Times are scaled to a reference host speed (hostspeed.py).

With --trace 0 the last stdout line reports the end-to-end metrics; with
--trace 1 it reports the per-layer metrics of spans.py, from passes that
alternate untraced and traced so the tracing overhead can be reported too.
A fuller record of each run goes to .bench_out/results/.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import checks
import inputs
from hostspeed import REFERENCE_KERNEL_S, HostSpeed
from spans import METRICS as LAYER_METRICS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("catalog", "ladder", "corpus")
METHODS = {"catalog": ("oracle", "paper"), "ladder": ("oracle", "paper"), "corpus": ("paper",)}
SETUP_REPEATS = 15


def import_isoprod():
    """A fresh import of isoprod.cli, as a new process would do it."""
    for name in [m for m in sys.modules if m == "isoprod" or m.startswith("isoprod.")]:
        del sys.modules[name]
    return importlib.import_module("isoprod.cli")


def build_cases(workload: str, seed: int, quick: bool, directory: Path) -> list:
    if workload == "catalog":
        cases = inputs.catalog_cases(quick)
    elif workload == "ladder":
        cases = inputs.ladder_cases(directory, quick)
    else:
        return inputs.corpus_cases(directory, seed, quick)
    random.Random(seed).shuffle(cases)  # the seed orders the fixed cases
    return cases


def run_one(cli_main, case) -> tuple[int, str]:
    """(exit code, stdout) of one `isoprod` command."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli_main(case.argv)
        except Exception:  # a crash is a failed case, not the end of the run
            traceback.print_exc()
            code = -1
    if code:
        print(f"{case.name}: exit {code}: {err.getvalue().strip()}", file=sys.stderr)
    return code, out.getvalue()


class Tally:
    """Cases attempted, failed and wrong, and the timed work of each pass.

    `timed_s` and `raw_walls` are unscaled, and `timed_s` sets the run's
    length; `scaled_s` and the value run_pass returns are reference seconds.
    """

    def __init__(self, workload: str, cases: list, host: HostSpeed):
        self.methods = METHODS[workload]
        self.orders = [checks.expected_order(c.k, c.r, c.phi, c.psi) for c in cases]
        self.host = host
        self.attempted = self.failed = self.wrong = 0
        self.timed_s = self.scaled_s = 0.0
        self.raw_walls: list[float] = []

    def run_pass(self, cli_main, cases) -> float:
        gc.collect()
        first = len(self.host.samples)
        self.host.sample()
        raw = 0.0
        for case, order in zip(cases, self.orders):
            seconds, (code, stdout) = self.host.time(run_one, cli_main, case)
            raw += seconds
            self.attempted += 1
            if code:
                self.failed += 1
            elif self._check(case, stdout, order):
                self.failed += 1
                self.wrong += 1
        self.host.sample()
        wall = self.host.scale(raw, first)
        self.timed_s += raw
        self.scaled_s += wall
        self.raw_walls.append(raw)
        return wall

    def _check(self, case, stdout: str, order: int) -> list[str]:
        try:
            doc = json.loads(stdout.splitlines()[-1])
            problems = checks.check_answer(case, doc, self.methods, order)
        except (IndexError, KeyError, TypeError, ValueError) as exc:
            problems = [f"{case.name}: unreadable answer {stdout!r}: {exc!r}"]
        for problem in problems:
            print(f"wrong: {problem}", file=sys.stderr)
        return problems


def timed_passes(cli_main, cases, tally: Tally, seconds: float, quick: bool) -> list[float]:
    walls = []
    while not walls or (not quick and tally.timed_s < seconds):
        walls.append(tally.run_pass(cli_main, cases))
    return walls


def traced_passes(cli_main, cases, tally: Tally, seconds: float, quick: bool):
    """Alternate untraced and traced passes; (untraced walls, traced walls, tracers)."""
    plain, traced, tracers = [], [], []
    while not traced or (not quick and tally.timed_s < seconds):
        if len(plain) == len(traced):
            plain.append(tally.run_pass(cli_main, cases))
            continue
        tracer = Tracer(tally.host.clock)
        with tracer.installed():
            traced.append(tally.run_pass(cli_main, cases))
        tracers.append(tracer)
    return plain, traced, tracers


def git_describe() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unknown ({exc})"
    return done.stdout.strip() or f"unknown ({done.stderr.strip()})"


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one catalog case, the smallest rung or a few corpus cases; one pass")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "isoprod" / "cli.py").is_file():
        print(f"error: no isoprod sources at {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    # Case files are kept between set-ups and runs and rewritten in place:
    # creating and deleting a thousand files per set-up made set-up time drift
    # upwards run after run.
    workdir = OUT / "work" / (args.workload + ("-quick" if args.quick else ""))
    workdir.mkdir(parents=True, exist_ok=True)

    def set_up():
        return import_isoprod(), build_cases(args.workload, args.seed, args.quick, workdir)

    host = HostSpeed()
    with host.armed():
        # Set-up is repeated and its median reported: import isoprod afresh
        # and build the inputs, up to the first timed case.
        setups, raw_setups = [], []
        for _ in range(1 if args.quick else SETUP_REPEATS):
            first = len(host.samples)
            host.sample()
            seconds, (cli, cases) = host.time(set_up)
            host.sample()
            raw_setups.append(seconds)
            setups.append(host.scale(seconds, first))
        tally = Tally(args.workload, cases, host)
        if args.trace:
            walls, traced, tracers = traced_passes(cli.main, cases, tally, args.seconds, args.quick)
        else:
            walls = timed_passes(cli.main, cases, tally, args.seconds, args.quick)

    wall_s = statistics.median(walls)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "quick": args.quick, "cases_per_pass": len(cases),
        "python": platform.python_version(), "cores": os.cpu_count(),
        "git_describe": git_describe(), "reference_kernel_s": REFERENCE_KERNEL_S,
        "median_kernel_s": statistics.median(host.samples),
        "setup_s_each": setups, "unscaled_setup_s_each": raw_setups,
        "pass_wall_s": walls, "unscaled_wall_s_of_every_pass": tally.raw_walls,
    }
    if args.trace:
        traced_wall_s = statistics.median(traced)
        per_pass = [t.metrics() for t in tracers]
        metrics = {name: metric(statistics.median(p[name] for p in per_pass), unit)
                   for name, unit in LAYER_METRICS.items()}
        missing = sorted(set(tracers[0].missing))
        record.update(traced_pass_wall_s=traced, missing_spans=missing,
                      trace_overhead=traced_wall_s / wall_s)
        summary = (f"trace overhead: traced pass {traced_wall_s:.4f} s vs untraced "
                   f"{wall_s:.4f} s (x{traced_wall_s / wall_s:.3f})")
        if missing:
            summary += f"; missing spans: {', '.join(missing)}"
    else:
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "cases_per_s": metric((tally.attempted - tally.failed) / tally.scaled_s, "1/s"),
            "wall_s": metric(wall_s, "s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        summary = ", ".join(f"{k} {v['value']:.4f}" for k, v in metrics.items())
        summary += f" (unscaled wall_s {statistics.median(tally.raw_walls):.4f})"
    result = {"correct": tally.wrong == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    record["result"] = result
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"{args.workload}: {tally.attempted} cases in {len(tally.raw_walls)} passes; "
          f"{summary}; record in {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
