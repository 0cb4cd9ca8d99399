"""Checks of the benchmark itself.

    python -m pytest perfbench/tests

The sl2 test runs a traced pass of the sl2 suite alone, twice, under two
hash seeds, and takes about half a minute.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

sys.path.insert(0, BENCH)

import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402

SL2_PROGRAM = """
import json, sys
sys.path.insert(0, %r)
import quiverhecke
from tracer import Tracer
tr = Tracer()
tr.install()
from quiverhecke import checks
assert all(r.status == "pass" for r in checks.run_check("sl2"))
snap = tr.snapshot()
calls = {name: t[0] for name, t in snap["totals"].items()}
print(json.dumps({"counts": snap["counts"], "calls": calls}))
""" % BENCH


def _traced_sl2(hash_seed):
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=hash_seed)
    out = subprocess.run([sys.executable, "-c", SL2_PROGRAM], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=600).stdout
    return json.loads(out)


@pytest.fixture(scope="module")
def sl2():
    return {seed: _traced_sl2(seed) for seed in ("0", "5")}


def test_sl2_counts_match_roadmap_baseline(sl2):
    counts = sl2["0"]["counts"]
    assert counts["block.built"] == 640
    assert counts["block.cols"] == 22495
    assert counts["block.rank"] == 22376
    assert counts["block.full"] == 563
    assert counts["block.rows_after_full"] == 16689
    # The ROADMAP's "62,511 rows built" is every SubspaceBasis.add call in
    # the suite; the ideal blocks build 60,868 products, of which 57,341
    # are nonzero and offered to the echelon basis.
    assert counts["block.rows_built"] == 60868
    assert counts["block.rows_offered"] == 57341
    assert sl2["0"]["calls"]["linalg.SubspaceBasis.add"] == 62511


def test_sl2_counts_do_not_depend_on_hash_seed(sl2):
    assert sl2["0"] == sl2["5"]


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == tracer.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == \
        list(run.workloads.WORKLOADS)


def test_tail_rank_keeps_ten_samples_beyond():
    assert run.tail_rank(227) == 217
    assert run.tail_rank(24) == 14
    assert run.tail_rank(20) == 20
    assert run.tail_rank(2) == 2


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "check-all",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_speed_factor_scales_to_the_reference_probe_time():
    sp = speed.Speed()
    sp.samples = [speed.REFERENCE_PROBE_S * 2] * 3
    assert sp.factor() == pytest.approx(0.5 ** speed.SENSITIVITY)
    sp.point()
    assert len(sp.samples) >= 3 + speed.MIN_PROBES
