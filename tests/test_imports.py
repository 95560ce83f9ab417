"""The CLI's launch path and its exact checks run without numpy, and a launch loads no module only some commands use."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import primetop

SRC = Path(primetop.__file__).resolve().parents[1]

CHILD = r"""
import json, os, sys, tempfile, threading
import primetop, primetop.cli
report = {"import": ["numpy" in sys.modules, threading.active_count()]}
tmp = tempfile.TemporaryDirectory()
out = os.path.join(tmp.name, "out")
runs = {
    "exact": [
        ["table", "--n-max", "60", "--out", out],
        ["verify", "--n-max", "60", "--checks", "mertens,hopf,morse-strong,formulas,diameter"],
        ["series", "--what", "wu", "--n-max", "40", "--out", out],
        ["series", "--what", "dimension", "--n-max", "7", "--out", out],
        ["series", "--what", "dimension", "--n-max", "30", "--out", out],
    ],
    "float": [
        ["verify", "--n-max", "20", "--checks", "witten,kummer", "--d", "3"],
    ],
}
for name, argvs in runs.items():
    report[name] = [[primetop.cli.main(argv) for argv in argvs], "numpy" in sys.modules]
tmp.cleanup()
print(json.dumps(report))
"""


def test_cli_runs_its_exact_commands_without_numpy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    child = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    report = json.loads(child.stdout.splitlines()[-1])
    assert report["import"] == [False, 1]
    assert report["exact"] == [[0, 0, 0, 0, 0], False]
    # the spectral cross-checks still load numpy, and pass
    assert report["float"] == [[0], True]


# modules no command needs at launch: dataclasses pulls in inspect (and ast, dis, tokenize),
# fractions pulls in decimal, and tempfile pulls in random
LAUNCH_FREE = ("dataclasses", "inspect", "typing", "fractions", "decimal", "json", "tempfile", "random", "numpy")

LAUNCH_CHILD = r"""
import sys
import primetop.cli

watched, out, cache = sys.argv[1].split(","), sys.argv[2], sys.argv[3]
report = [sorted(m for m in watched if m in sys.modules)]
for argv in (
    ["verify", "--n-max", "60", "--checks", "mertens,hopf,morse-strong,formulas,diameter", "--out", out],
    ["series", "--what", "dimension", "--n-max", "30", "--out", out],
    ["table", "--n-max", "20", "--cache", cache, "--out", out],
):
    code = primetop.cli.main(argv)
    report.append([code, sorted(m for m in watched if m in sys.modules)])
print(report)
"""


def test_cli_launch_loads_only_what_every_command_needs(tmp_path):
    # -S: no site module, so nothing but the CLI's own imports can load a watched module
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-S", "-c", LAUNCH_CHILD, ",".join(LAUNCH_FREE), str(tmp_path / "out"), str(tmp_path / "c")]
    child = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    launch, verify, series, table = ast.literal_eval(child.stdout.splitlines()[-1])
    assert launch == []
    # the four identity checks and the diameter sweep need neither exact fractions nor the cache format
    assert verify == [0, []]
    # the dimension series is exact, in fractions; the cache is JSON lines
    assert series == [0, ["decimal", "fractions"]]
    assert table[0] == 0 and "json" in table[1]
