"""Regenerate the reference figures of perfbench/README.md.

    python3 perfbench/report.py
    python3 perfbench/report.py --compare FIRST.json SECOND.json

Run from the root of a source checkout.  Times two fixed pure-Python
calibration loops, makes ten untraced runs of every workload in BENCHMARK.json,
each `run_seconds` long (seeds 1..10, each seed going through all workloads
before the next), times the calibration loops again, then makes one traced run
per workload.  Prints markdown tables: median and quartiles of each end-to-end
metric with the quartile spread as a share of the median, the peak resident set
of the untimed `primetop --help` launch and of each command of one round, and
the traced per-layer breakdown.  The raw results are
saved under .perfbench_results/.  With --compare, prints for two saved sets
the second median of every end-to-end metric as a share of the first, next to
the bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
RUNS = 10


def calibrate() -> dict[str, float]:
    """Median of five timings of an arithmetic loop and of a dict-and-set loop."""

    def arithmetic() -> float:
        start, acc = time.perf_counter(), 0
        for i in range(2_000_000):
            acc = (acc + i * i) % 1_000_003
        return time.perf_counter() - start

    def containers() -> float:
        start, table = time.perf_counter(), {}
        for i in range(300_000):
            table[(i, 7 * i)] = frozenset((i, i + 1))
        hits = sum(len(v & {k[0]}) for k, v in table.items())
        assert hits == 300_000
        return time.perf_counter() - start

    return {
        "arithmetic_s": statistics.median(arithmetic() for _ in range(5)),
        "containers_s": statistics.median(containers() for _ in range(5)),
    }


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["round_lines"] = [line for line in proc.stderr.splitlines() if line.startswith(("round", "--help"))]
    print(f"  {workload} seed={seed} trace={trace}: "
          + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items() if not trace),
          file=sys.stderr, flush=True)
    return result


def compare(first_path: str, second_path: str) -> None:
    first, second = (json.loads(Path(p).read_text()) for p in (first_path, second_path))
    bounds = {m["name"]: m["bound"] for m in json.loads(Path("BENCHMARK.json").read_text())["end_to_end"]}
    print(f"Second set ({second['started']}) against the first ({first['started']}):\n")
    print("| workload | metric | first median | second median | second/first - 1 | bound |")
    print("|---|---|---|---|---|---|")
    for w, runs in first["runs"].items():
        for metric in runs[0]["metrics"]:
            a, b = (statistics.median(r["metrics"][metric]["value"] for r in s["runs"][w]) for s in (first, second))
            print(f"| {w} | {metric} | {a:.4g} | {b:.4g} | {b / a - 1:+.3f} | {bounds[metric]} |")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"), help="compare two saved sets")
    args = parser.parse_args()
    if args.compare:
        compare(*args.compare)
        return 0
    declared = json.loads(Path("BENCHMARK.json").read_text())
    workloads = [w["name"] for w in declared["workloads"]]
    seconds = declared["run_seconds"]

    started = time.strftime("%Y-%m-%d %H:%M UTC", time.gmtime())
    cal_before = calibrate()
    runs = {w: [] for w in workloads}
    for seed in range(1, RUNS + 1):
        for w in workloads:
            runs[w].append(bench(w, seed, seconds, 0))
    cal_after = calibrate()
    traced = {w: bench(w, 1, seconds, 1) for w in workloads}

    out_dir = Path.cwd() / ".perfbench_results"
    out_dir.mkdir(exist_ok=True)
    raw = {"started": started, "calibration": [cal_before, cal_after], "runs": runs, "traced": traced}
    (out_dir / f"set-{time.strftime('%Y%m%dT%H%M%S', time.gmtime())}.json").write_text(json.dumps(raw, indent=1))

    print(f"Set started {started}; {RUNS} runs of {seconds} s per workload.\n")
    print("Calibration (median of 5, s): "
          + ", ".join(f"{k} {cal_before[k]:.3f} before / {cal_after[k]:.3f} after" for k in cal_before) + "\n")
    print("| workload | metric | Q1 | median | Q3 | (Q3-Q1)/median | failed/attempted |")
    print("|---|---|---|---|---|---|---|")
    for w in workloads:
        attempted = sum(r["attempted"] for r in runs[w])
        failed = sum(r["failed"] for r in runs[w])
        correct = all(r["correct"] for r in runs[w])
        for metric in runs[w][0]["metrics"]:
            q1, med, q3 = statistics.quantiles([r["metrics"][metric]["value"] for r in runs[w]], n=4)
            print(f"| {w} | {metric} | {q1:.4g} | {med:.4g} | {q3:.4g} | {(q3 - q1) / med:.3f} "
                  f"| {failed}/{attempted}{'' if correct else ' INCORRECT'} |")
    print("\nPeak resident set (MB) of the `primetop --help` launch and of each command of round 1, seed 1:\n")
    print("| workload | `--help` | commands in order |")
    print("|---|---|---|")
    for w in workloads:
        base, first_round = (re.findall(r"rss=([\d.]+)", line) for line in runs[w][0]["round_lines"][:2])
        print(f"| {w} | {base[0]} | {', '.join(first_round)} |")
    print("\nTraced run (seed 1), per layer; times are self seconds:\n")
    print("| metric | " + " | ".join(workloads) + " |")
    print("|---|" + "---|" * len(workloads))
    for metric in traced[workloads[0]]["metrics"]:
        cells = []
        for w in workloads:
            v = traced[w]["metrics"][metric]["value"]
            cells.append(f"{v:.3f}" if traced[w]["metrics"][metric]["unit"] == "s" else f"{v:.0f}")
        print(f"| {metric} | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
