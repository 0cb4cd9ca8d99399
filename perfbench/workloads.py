"""The benchmark's named workloads: inputs, op order and op bodies.

Inputs are fixed and named, because quiverhecke is exact and
deterministic; `--seed` only permutes the order of the cli-cache
configs (see `op_order`).  This module imports quiverhecke lazily, inside the functions
that run in a pass process, so run.py can read the names and
orders without importing the package.
"""

from __future__ import annotations

import json
import random
import time

__all__ = ["WORKLOADS", "DATA", "SIMPLES", "CLI_CONFIGS",
           "op_order", "algebra", "build", "run"]

WORKLOADS = ("check-all", "dense-simples", "cli-cache")

# Cartan data by name: (labels, generalized Cartan matrix).
DATA = {
    "A1": (["0"], [[2]]),
    "A2": (["1", "2"], [[2, -1], [-1, 2]]),
    "affA1": (["0", "1"], [[2, -2], [-2, 2]]),
    "B2": (["1", "2"], [[2, -2], [-1, 2]]),
}

# name -> (datum, weight levels, beta)
SIMPLES = {
    "A1-L6-b2": ("A1", (6,), (2,)),
    "affA1-2L0-b21": ("affA1", (2, 0), (2, 1)),
    "A1-L3-b3": ("A1", (3,), (3,)),
    "B2-rho-b21": ("B2", (1, 1), (2, 1)),
}

# Config files under perfbench/inputs/, one compare run each.
CLI_CONFIGS = ("A2-rho-n3", "affA1-L0-n3")


def op_order(workload, seed):
    """Names of the ops of a dense-simples or cli-cache pass, in order.

    The seed shuffles the cli-cache configs, which run in separate
    processes.  The algebras of dense-simples share one process, and the
    time of each depends on which ran before it (A1-L3-b3 took 0.75 s
    first and 1.1 s last), so their order is fixed, as check-all keeps
    the order `quiverhecke check all` uses; for these two workloads the
    seed changes nothing."""
    if workload == "dense-simples":
        return list(SIMPLES)
    names = list(CLI_CONFIGS)
    random.Random(seed).shuffle(names)
    return names


def algebra(spec):
    """(datum, weight, beta) of a named SIMPLES entry."""
    from quiverhecke import Weight, build_cartan

    datum, levels, beta = spec
    labels, matrix = DATA[datum]
    return build_cartan(labels, matrix), Weight(levels), beta


def build(workload, seed):
    """Everything a pass needs before its first op."""
    if workload == "check-all":
        from quiverhecke import checks

        return [(suite, thunk) for suite in sorted(checks.CHECKS)
                for thunk in checks.CHECKS[suite]()]
    if workload == "cli-cache":
        import os

        from quiverhecke import config

        here = os.path.dirname(os.path.abspath(__file__))
        return [config.load_config(os.path.join(here, "inputs", n + ".json"))
                for n in op_order(workload, seed)]
    return [(name, algebra(SIMPLES[name]))
            for name in op_order(workload, seed)]


def _check_all(inputs, wrap):
    """One op per check instance; returns the `check all --json` text
    with `elapsed_ms` removed."""
    ops = []
    results = []

    def run_suite(items):
        for thunk in items:
            t0 = time.perf_counter()
            rep = thunk()
            ms = (time.perf_counter() - t0) * 1000.0
            row = rep.to_json()
            del row["elapsed_ms"]
            results.append(row)
            ops.append({"name": rep.name, "ms": ms,
                        "ok": rep.status == "pass"})

    suites = {}
    for suite, thunk in inputs:
        suites.setdefault(suite, []).append(thunk)
    for suite, items in suites.items():
        wrap(run_suite, "checks." + suite)(items)
    failed = sum(1 for r in results if r["status"] == "fail")
    text = json.dumps({"command": "check", "results": results,
                       "total": len(results), "failed": failed},
                      sort_keys=True, indent=2) + "\n"
    return ops, {"json": text}


def _dense_simples(inputs):
    """Build each quotient and count its simples; the count must equal
    the weight space dimension and the center must split."""
    from quiverhecke import cyclotomic, simples, uqmod

    ops = []
    outputs = {}
    for name, (datum, weight, beta) in inputs:
        t0 = time.perf_counter()
        sc = simples.count_simples(cyclotomic.CycAlgebra(datum, weight, beta))
        ms = (time.perf_counter() - t0) * 1000.0
        expect = uqmod.UqModule(datum, weight).weight_dim(beta)
        ops.append({"name": name, "ms": ms,
                    "ok": sc.count == expect and sc.split})
        outputs[name] = {"count": sc.count, "split": sc.split,
                         "total_dim": sc.total_dim,
                         "radical_dim": sc.radical_dim,
                         "center_dim": sc.center_dim}
    return ops, outputs


def run(workload, inputs, wrap=None):
    """Run one pass in this process: (ops, outputs).  `wrap(fn, name)`
    puts a span around each suite of check-all when tracing."""
    if workload == "check-all":
        return _check_all(inputs, wrap or (lambda fn, name: fn))
    if workload == "dense-simples":
        return _dense_simples(inputs)
    raise ValueError(f"{workload} runs as CLI processes, not in one pass")
