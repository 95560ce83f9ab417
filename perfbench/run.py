"""End-to-end and per-layer benchmark of the primetop CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the CLI is imported from ./src.  One
round runs the workload's commands one after another, each in a fresh
interpreter with --threads 1.  Rounds repeat until the next one would end after
--seconds; the first round's outputs are checked apart from the package (see
checks.py) and every later round must reproduce them byte for byte.  The last
line of stdout is one JSON object with `correct`, `attempted`, `failed` (counted
in commands) and `metrics`: medians over rounds of the end-to-end metrics, or
with --trace 1 the per-layer metrics of traced rounds (see spans.py), which
alternate with untraced rounds so that the tracing overhead is measured too.
The metrics and their units are those that BENCHMARK.json declares; a run that
would report any other set exits non-zero.

The workloads' inputs are fixed.  The seed only picks the n at which the series
outputs are recomputed from their definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import spans

ROOT = Path.cwd()
SRC = ROOT / "src"
LAUNCH = Path(__file__).resolve().parent / "launch.py"

TABLE_N = 350
VERIFY_PRIME_N = 2310
VERIFY_PRIME_CHECKS = ["mertens", "hopf", "morse-strong", "formulas", "diameter"]
VERIFY_INTEGER_N = 520
VERIFY_INTEGER_CHECKS = ["mertens", "hopf", "morse-strong", "formulas"]
DIMENSION_N = 700
WU_N = 220
SAMPLES = 3  # seeded n per series, besides its n_max, recomputed by definition


@dataclass
class Command:
    argv: list[str]
    out: Path | None  # the --out file, if the command writes one
    check: Callable[["Result", "Result | None"], list[str]]  # (this, previous command of the round)
    layers: dict[str, int] | None = None  # exact per-layer counts a traced run must report


@dataclass
class Result:
    setup_s: float
    wall_s: float
    rss_mb: float
    cpu_s: float
    returncode: int
    stdout: str
    output: str  # the --out file, or stdout
    output_bytes: int  # stdout and the --out file together
    layers: dict | None


def workload_commands(name: str, work: Path, ctx: "CheckContext") -> list[Command]:
    """The commands of one round; `work` is a fresh directory for its files."""
    if name == "per-n":
        cache, cold, warm = work / "cache.jsonl", work / "cold.csv", work / "warm.csv"
        dim, wu = work / "dimension.csv", work / "wu.csv"
        table = ["table", "--kind", "prime", "--n-max", str(TABLE_N), "--threads", "1", "--cache", str(cache)]
        series = ["series", "--kind", "prime", "--threads", "1"]
        return [
            Command(table + ["--out", str(cold)], cold, lambda r, _: ctx.table(r.output), {"cli.cache_hits": 0}),
            Command(table + ["--out", str(warm)], warm, _same_as_previous, {"cli.cache_hits": TABLE_N - 1}),
            Command(series + ["--what", "dimension", "--n-max", str(DIMENSION_N), "--out", str(dim)], dim,
                    lambda r, _: ctx.dimension(r.output)),
            Command(series + ["--what", "wu", "--n-max", str(WU_N), "--out", str(wu)], wu,
                    lambda r, _: ctx.wu(r.output)),
        ]
    if name == "filtration":
        return [
            Command(["verify", "--kind", kind, "--n-max", str(n), "--threads", "1", "--checks", ",".join(names)],
                    None, lambda r, _, names=names, n=n: ctx.verify(r, names, n))
            for kind, n, names in (
                ("prime", VERIFY_PRIME_N, VERIFY_PRIME_CHECKS),
                ("integer", VERIFY_INTEGER_N, VERIFY_INTEGER_CHECKS),
            )
        ]
    raise KeyError(name)


WORKLOADS = ("per-n", "filtration")


def _same_as_previous(result: Result, previous: Result) -> list[str]:
    return checks.check_same(result.output, previous.output, "cold-cache run's")


class CheckContext:
    """Independent checks, with their reference data built once per run."""

    def __init__(self, seed: int):
        self.counting = checks.Counting(max(TABLE_N, DIMENSION_N, WU_N))
        rng = random.Random(seed)
        self.dimension_sample = sorted(rng.sample(range(6, DIMENSION_N), SAMPLES)) + [DIMENSION_N]
        self.wu_sample = sorted(rng.sample(range(2, WU_N), SAMPLES)) + [WU_N]

    def table(self, text: str) -> list[str]:
        return checks.check_table(text, TABLE_N, self.counting)

    def verify(self, result: Result, names: list[str], n_max: int) -> list[str]:
        return checks.check_verify(result.stdout, result.returncode, names, n_max)

    def dimension(self, text: str) -> list[str]:
        return checks.check_dimension_series(text, DIMENSION_N, self.counting, self.dimension_sample)

    def wu(self, text: str) -> list[str]:
        return checks.check_wu_series(text, WU_N, self.counting, self.wu_sample)


def run_command(argv: list[str], out: Path | None, work: Path, trace: bool) -> Result:
    """Launch one CLI process and time it from launch to set-up end and to exit."""
    stdout_path, trace_path = work / "stdout.txt", work / "trace.json"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    read_fd, write_fd = os.pipe()
    with open(stdout_path, "wb") as stdout, open(work / "stderr.txt", "wb") as stderr:
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(LAUNCH), str(write_fd), str(trace_path) if trace else "-", *argv],
            stdout=stdout,
            stderr=stderr,
            env=env,
            pass_fds=(write_fd,),
        )
        os.close(write_fd)
        status = None
        try:
            with os.fdopen(read_fd, "r") as report:
                stamp = report.read().split()
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.monotonic()
        finally:
            if status is None:
                proc.kill()
                proc.wait()
        # wait4 reaped the child; tell Popen so it does not wait for it again
        proc.returncode = os.waitstatus_to_exitcode(status)
    if len(stamp) < 2 or not Path(stamp[1]).resolve().is_relative_to(SRC.resolve()):
        stderr_text = (work / "stderr.txt").read_text(errors="replace")
        raise SystemExit(f"primetop.cli was not imported from {SRC}: {stamp}\n{stderr_text}")
    # a process killed by a signal never reports its peak; rusage also counts the pre-exec fork
    peak_kb = int(stamp[2]) if len(stamp) == 3 else usage.ru_maxrss
    stdout_bytes = stdout_path.read_bytes()
    out_bytes = out.read_bytes() if out and out.exists() else b""
    return Result(
        setup_s=float(stamp[0]) - start,
        wall_s=end - start,
        rss_mb=peak_kb / 1024,
        cpu_s=usage.ru_utime + usage.ru_stime,
        returncode=proc.returncode,
        stdout=stdout_bytes.decode("utf-8"),
        output=out_bytes.decode("utf-8") if out else stdout_bytes.decode("utf-8"),
        output_bytes=len(stdout_bytes) + len(out_bytes),
        layers=json.loads(trace_path.read_text()) if trace and trace_path.exists() else None,
    )


class Runner:
    def __init__(self, workload: str, seed: int, tmp: Path):
        self.workload = workload
        self.tmp = tmp
        self.ctx = CheckContext(seed)
        self.reference: dict[int, tuple[str, str, int]] = {}
        self.rounds = 0
        self.attempted = 0
        self.failed = 0

    def round(self, trace: bool) -> list[Result]:
        """Run every command of the workload once and check each one."""
        self.rounds += 1
        work = self.tmp / f"round{self.rounds}"
        work.mkdir()
        results: list[Result] = []
        for i, cmd in enumerate(workload_commands(self.workload, work, self.ctx)):
            result = run_command(cmd.argv, cmd.out, work, trace)
            seen = (result.stdout, result.output, result.returncode)
            if i in self.reference:
                problems = [] if seen == self.reference[i] else ["output or exit status differs from the first round's"]
            else:
                problems = cmd.check(result, results[-1] if results else None)
                if not problems:
                    self.reference[i] = seen
            if result.returncode != 0:
                problems.append(f"exit status {result.returncode}")
            if result.layers is not None and cmd.layers:
                problems += [
                    f"traced {k} = {result.layers.get(k, 0)}, expected {v}"
                    for k, v in cmd.layers.items()
                    if result.layers.get(k, 0) != v
                ]
            self.attempted += 1
            if problems:
                self.failed += 1
                print(f"FAILED primetop {' '.join(cmd.argv)}:", *problems[:10], sep="\n  ", file=sys.stderr)
            results.append(result)
        shutil.rmtree(work)
        print(
            f"round {self.rounds}{' traced' if trace else ''}:",
            " ".join(f"wall={r.wall_s:.4f} setup={r.setup_s:.4f} cpu={r.cpu_s:.4f} rss={r.rss_mb:.1f}" for r in results),
            file=sys.stderr,
        )
        return results


def end_to_end(rounds: list[list[Result]]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(sum(r.setup_s for r in rs) for rs in rounds),
        "wall_s": statistics.median(sum(r.wall_s for r in rs) for rs in rounds),
        "peak_rss_mb": statistics.median(max(r.rss_mb for r in rs) for rs in rounds),
    }


def per_layer(traced: list[list[Result]], untraced: list[list[Result]], names: list[str]) -> dict[str, float]:
    """Medians over traced rounds of the named metrics; a count the tracer never incremented is 0.

    The overhead pairs each traced round with the untraced one before it.
    """
    reported = {k for rs in traced for r in rs for k in r.layers or {}}
    if not reported <= set(names):
        raise SystemExit(f"traced metrics missing from BENCHMARK.json: {sorted(reported - set(names))}")
    out = {k: statistics.median(sum((r.layers or {}).get(k, 0) for r in rs) for rs in traced) for k in names}
    out["cli.output_bytes"] = statistics.median(sum(r.output_bytes for r in rs) for rs in traced)
    out["trace.overhead_s"] = statistics.median(
        sum(r.wall_s for r in t) - sum(r.wall_s for r in u) for t, u in zip(traced, untraced)
    )
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "primetop" / "cli.py").is_file():
        print(f"error: no primetop source under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = declared["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}

    deadline = time.monotonic() + args.seconds
    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".perfbench_tmp"))
    try:
        runner = Runner(args.workload, args.seed, tmp)
        # untimed: the first launch in a fresh checkout also compiles the package's bytecode, and its
        # peak is the interpreter's and the imports' share of every command's peak_rss_mb
        base = run_command(["--help"], None, tmp, trace=False)
        print(f"--help launch: rss={base.rss_mb:.2f}", file=sys.stderr)
        plain: list[list[Result]] = []
        traced: list[list[Result]] = []
        while True:
            began = time.monotonic()
            plain.append(runner.round(trace=False))
            if args.trace:
                traced.append(runner.round(trace=True))
            if time.monotonic() + (time.monotonic() - began) > deadline:
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:  # another run's files are still there
            pass

    metrics = per_layer(traced, plain, list(units)) if args.trace else end_to_end(plain)
    if set(metrics) != set(units):
        raise SystemExit(f"metrics {sorted(metrics)} differ from BENCHMARK.json's {sorted(units)}")
    print(f"{args.workload}: {runner.rounds} rounds, {runner.attempted} commands", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": runner.failed == 0,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
