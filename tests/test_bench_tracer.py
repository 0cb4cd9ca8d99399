"""The benchmark tracer still fits the package.

`perfbench/tracer.py` wraps package functions by attribute name, so a
rename would crash a traced benchmark run or leave a layer reading zero.
This runs one traced suite in a fresh interpreter, the way
`perfbench/run.py --trace 1` does, and checks that the hot layers were
seen and that blocks and their rows were counted."""

import json
import os
import subprocess
import sys
from pathlib import Path

import quiverhecke

ROOT = Path(__file__).resolve().parents[1]

PROGRAM = """
import json, sys
sys.path.insert(0, %r)
from tracer import Tracer
tracer = Tracer()
tracer.install()
from quiverhecke import checks
statuses = [r.status for r in checks.run_check("taug")]
snap = tracer.snapshot()
print(json.dumps({"statuses": statuses, "totals": snap["totals"],
                  "counts": snap["counts"]}))
""" % str(ROOT / "perfbench")

LAYERS = ("klr.multiply", "cyclotomic.IdealSpace.block",
          "linalg.SubspaceBasis.add")
# blocks built and the ideal rows they built through KLR.multiply: a row
# kernel that bypassed multiply would leave the row layer reading 0
COUNTS = ("block.built", "block.rows_built")


def test_a_traced_suite_passes_and_sees_the_hot_layers():
    src = os.path.dirname(os.path.dirname(quiverhecke.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", PROGRAM], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["statuses"] and set(out["statuses"]) == {"pass"}
    for name in LAYERS:
        calls, busy_s, _ = out["totals"][name]
        assert calls > 0 and busy_s > 0, name
    for name in COUNTS:
        assert out["counts"].get(name, 0) > 0, name
