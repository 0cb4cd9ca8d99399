#!/usr/bin/env python3
"""Write the reference outputs the benchmark checks its answers against.

    python3 perfbench/make_reference.py

Run it from the root of a checkout whose outputs are known to be right,
and only when an output change is intended.  It takes every reference
from the public entry points, not from the benchmark's own op loops:

* check-all: `quiverhecke check all --json` with `elapsed_ms` removed;
* dense-simples: the fields of `count_simples` for each named quotient;
* cli-cache: `quiverhecke compare --no-cache --json` for each config,
  and the number of root spaces (one cache entry each) it covers.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REF = os.path.join(HERE, "reference")

sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def _cli(args):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-m", "quiverhecke.cli"] + args,
                          env=env, cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout


def _write(name, text):
    with open(os.path.join(REF, name + ".json"), "w", encoding="utf-8") as fh:
        fh.write(text)


def main():
    from quiverhecke import config, cyclotomic, simples

    os.makedirs(REF, exist_ok=True)

    payload = json.loads(_cli(["check", "all", "--json"]))
    for row in payload["results"]:
        del row["elapsed_ms"]
    _write("check-all", json.dumps(payload, sort_keys=True, indent=2) + "\n")

    counts = {}
    for name, spec in workloads.SIMPLES.items():
        sc = simples.count_simples(
            cyclotomic.CycAlgebra(*workloads.algebra(spec)))
        counts[name] = {"count": sc.count, "split": sc.split,
                        "total_dim": sc.total_dim,
                        "radical_dim": sc.radical_dim,
                        "center_dim": sc.center_dim}
    _write("dense-simples",
           json.dumps(counts, sort_keys=True, indent=1) + "\n")

    cli = {}
    for name in workloads.CLI_CONFIGS:
        cfg = os.path.join(HERE, "inputs", name + ".json")
        cli[name] = {
            "stdout": _cli(["compare", "--config", cfg, "--no-cache",
                            "--json"]),
            "entries": len(config.load_config(cfg).require_betas()),
        }
    _write("cli-cache", json.dumps(cli, sort_keys=True, indent=1) + "\n")


if __name__ == "__main__":
    main()
