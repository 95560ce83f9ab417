"""Show that every independent check accepts real output and rejects a corrupted value.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  The CLI runs once per command at small
sizes; each check must pass on the real output and fail on every corruption
below.  Exits 1 if any check accepts a corrupted value or rejects a real one.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import checks
from run import ROOT, SRC, run_command

TABLE_N, VERIFY_N, DIMENSION_N, WU_N = 60, 200, 60, 40
VERIFY_CHECKS = ["mertens", "hopf", "morse-strong", "formulas", "diameter"]


def set_cell(text: str, n: int, column: str, value) -> str:
    """The CSV text with the cell of row n in the named column replaced."""
    lines = text.split("\n")
    header = lines[0].split(",")
    for i, line in enumerate(lines[1:], 1):
        cells = line.split(",")
        if cells[0] == str(n):
            cells[header.index(column)] = str(value)
            lines[i] = ",".join(cells)
            return "\n".join(lines)
    raise KeyError(n)


def cell(text: str, n: int, column: str) -> str:
    lines = text.split("\n")
    header = lines[0].split(",")
    row = next(line.split(",") for line in lines[1:] if line.split(",")[0] == str(n))
    return row[header.index(column)]


def bump(text: str, n: int, column: str) -> str:
    return set_cell(text, n, column, int(cell(text, n, column)) + 1)


def main() -> int:
    if not (SRC / "primetop" / "cli.py").is_file():
        print(f"error: no primetop source under {SRC}", file=sys.stderr)
        return 2
    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=ROOT / ".perfbench_tmp"))
    try:
        def cli(*argv: str, out: bool = True):
            path = work / "out.csv" if out else None
            return run_command(list(argv) + (["--out", str(path)] if out else []), path, work, trace=False)

        table = cli("table", "--kind", "prime", "--n-max", str(TABLE_N), "--threads", "1").output
        verify = cli("verify", "--kind", "prime", "--n-max", str(VERIFY_N), "--threads", "1",
                     "--checks", ",".join(VERIFY_CHECKS), out=False)
        dimension = cli("series", "--what", "dimension", "--n-max", str(DIMENSION_N), "--threads", "1").output
        wu = cli("series", "--what", "wu", "--n-max", str(WU_N), "--threads", "1").output
    finally:
        shutil.rmtree(work, ignore_errors=True)

    counting = checks.Counting(max(TABLE_N, DIMENSION_N, WU_N))
    dim_sample, wu_sample = [17, DIMENSION_N], [23, WU_N]

    def table_check(text):
        return checks.check_table(text, TABLE_N, counting)

    def verify_check(stdout, code=0):
        return checks.check_verify(stdout, code, VERIFY_CHECKS, VERIFY_N)

    def dimension_check(text):
        return checks.check_dimension_series(text, DIMENSION_N, counting, dim_sample)

    def wu_check(text):
        return checks.check_wu_series(text, WU_N, counting, wu_sample)

    wrong_dim = Fraction(cell(dimension, DIMENSION_N, "dim_exact")) + Fraction(1, 1000)
    wrong_dim_text = set_cell(dimension, DIMENSION_N, "dim_exact", f"{wrong_dim.numerator}/{wrong_dim.denominator}")
    first_row, second_row = table.split("\n")[1:3]
    cases = [
        ("table: real output", table_check, table, True),
        ("table: mertens", table_check, bump(table, 30, "mertens"), False),
        ("table: chi", table_check, bump(table, 30, "chi"), False),
        ("table: b0", table_check, bump(table, 30, "b0"), False),
        ("table: b1", table_check, bump(table, 30, "b1"), False),
        ("table: b2", table_check, bump(table, 60, "b2"), False),
        ("table: b3", table_check, bump(table, 60, "b3"), False),
        ("table: c1", table_check, bump(table, 30, "c1"), False),
        ("table: b4 (alternating sum)", table_check, bump(table, 30, "b4"), False),
        ("table: check column", table_check, set_cell(table, 30, "h3", "false"), False),
        ("table: missing row", table_check, table.replace(second_row + "\n", "", 1), False),
        ("table: rows out of order", table_check,
         table.replace(first_row + "\n" + second_row, second_row + "\n" + first_row, 1), False),
        ("table: warm run like the cold run", lambda t: checks.check_same(t, table, "cold run's"), table, True),
        ("table: warm run unlike the cold run", lambda t: checks.check_same(t, table, "cold run's"),
         bump(table, 30, "c0"), False),
        ("verify: real output", verify_check, verify.stdout, True),
        ("verify: exit status", lambda s: verify_check(s, 1), verify.stdout, False),
        ("verify: FAIL line", verify_check, verify.stdout.replace("hopf: pass", "hopf: FAIL", 1), False),
        ("verify: missing line", verify_check, verify.stdout.split("\n", 1)[1], False),
        ("verify: other n_max", verify_check, verify.stdout.replace(str(VERIFY_N), str(VERIFY_N - 1)), False),
        ("series dimension: real output", dimension_check, dimension, True),
        ("series dimension: dim_float", dimension_check, set_cell(dimension, 30, "dim_float", "1.5"), False),
        ("series dimension: dim_exact", dimension_check,
         set_cell(wrong_dim_text, DIMENSION_N, "dim_float", repr(float(wrong_dim))), False),
        ("series wu: real output", wu_check, wu, True),
        ("series wu: wu", wu_check, bump(wu, WU_N, "wu"), False),
        ("series wu: chi_scaled", wu_check, bump(wu, 30, "chi_scaled"), False),
    ]
    bad = 0
    for name, check, text, should_pass in cases:
        problems = check(text)
        ok = not problems if should_pass else bool(problems)
        bad += not ok
        verdict = ("accepted" if not problems else "rejected") + ("" if ok else "  <-- WRONG")
        print(f"{name:42} {verdict}" + (f": {problems[0]}" if problems else ""))
    print(f"{len(cases) - bad} of {len(cases)} cases behave as they should")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
