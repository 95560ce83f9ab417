"""The CLI's launch path and its exact checks run without numpy."""

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
