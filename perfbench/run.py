#!/usr/bin/env python3
"""Benchmark of quiverhecke, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the program is taken from ./src.
Workloads: check-all, dense-simples, cli-cache (see perfbench/design.json
for what each one stresses and why).

With --trace 0 the run measures set-up probes and then whole passes, each
in a fresh interpreter, until the next pass would end after S seconds
(at least MIN_PASSES), and reports the end-to-end metrics: medians over
the run's samples, scaled toward a reference machine speed by a fixed
probe timed between the child processes (speed.py).  With --trace 1 it
runs one plain pass and one traced pass and reports the per-layer
metrics of the traced pass; the spans go to perfbench/out/.

Every answer is checked against an independent source and against the
reference outputs in perfbench/reference/.  The last line of stdout is
one JSON object {"correct", "attempted", "failed", "metrics"}; a readable
report goes to stderr.  Exit status is 0 when every op passed, 1 when an
op failed, crashed or gave a wrong answer, and 2 when the program or an
argument is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

sys.path.insert(0, HERE)

import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# Passes per run, at least: three, so that each op's median pass leaves
# out one slow pass; a check-all pass takes about half a run, so two.
MIN_PASSES = {"check-all": 2, "dense-simples": 3, "cli-cache": 3}
SETUP_PROBES = 2      # set-up probes per run, besides each pass's set-up
STARTUP_PROBES = 6    # `cache stat` calls per run outside cli-cache
CLI_WARM = 3          # warm compares per config per cli-cache pass
CLI_STATS = 2         # `cache stat` calls per config per cli-cache pass
CHILD_TIMEOUT = 120   # seconds before a child is killed
TAIL_BEYOND = 10      # samples required beyond the tail percentile

END_TO_END = [
    ("setup_s", "s"), ("wall_s", "s"), ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"), ("op_tail_ms", "ms"), ("peak_rss_mb", "MB"),
    ("cli_startup_s", "s"),
]


class Child:
    """A finished child process: exit code, wall time, peak RSS."""

    def __init__(self, rc, start, wall, rss_mb, out_path, err_path):
        self.rc = rc
        self.start = start
        self.wall = wall
        self.rss_mb = rss_mb
        self.out_path = out_path
        self.err_path = err_path

    def stdout(self):
        with open(self.out_path, "r", encoding="utf-8",
                  errors="replace") as fh:
            return fh.read()

    def stderr(self):
        with open(self.err_path, "r", encoding="utf-8",
                  errors="replace") as fh:
            return fh.read()


class Pass:
    def __init__(self, wall, ops, rss_mb, setup=None):
        self.wall = wall
        self.ops = ops        # [{"name", "kind", "ms", "ok"}]
        self.rss_mb = rss_mb
        self.setup = setup    # set-up time of an in-process pass


def _load_reference(workload):
    path = os.path.join(HERE, "reference", workload + ".json")
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return text if workload == "check-all" else json.loads(text)


def _canon(obj):
    return json.dumps(obj, sort_keys=True)


class Bench:
    def __init__(self, workload, seed, tmp):
        self.workload = workload
        self.seed = seed
        self.tmp = tmp
        self.reference = _load_reference(workload)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = SRC
        # Nothing may touch the user's default cache directory.
        self.env["QUIVERHECKE_CACHE_DIR"] = os.path.join(tmp, "no-cache")
        self._n = 0
        self.speed = speed.Speed()
        self.speed.point()

    # -- children ----------------------------------------------------------

    def spawn(self, cmd):
        """Run one child to completion; only one child runs at a time."""
        self._n += 1
        out_path = os.path.join(self.tmp, "c%d.out" % self._n)
        err_path = os.path.join(self.tmp, "c%d.err" % self._n)
        with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
            start = time.monotonic()
            proc = subprocess.Popen(cmd, stdout=fo, stderr=fe, env=self.env,
                                    cwd=ROOT)
            timer = threading.Timer(CHILD_TIMEOUT, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.monotonic() - start
        self.speed.point(wall)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(proc.returncode, start, wall, usage.ru_maxrss / 1024.0,
                     out_path, err_path)

    def child(self, mode, trace=None):
        """A setup probe or an in-process pass: (Child, result or None)."""
        result = os.path.join(self.tmp, "r%d.json" % (self._n + 1))
        cmd = [sys.executable]
        if trace:
            cmd += ["-X", "importtime"]
        cmd += [os.path.join(HERE, "child.py"), mode, self.workload,
                "--seed", str(self.seed), "--result", result]
        if trace:
            cmd += ["--trace", trace]
        ch = self.spawn(cmd)
        if ch.rc != 0 or not os.path.exists(result):
            sys.stderr.write(ch.stderr()[-2000:])
            return ch, None
        with open(result, "r", encoding="utf-8") as fh:
            return ch, json.load(fh)

    def cli(self, args, trace=None):
        if trace:
            cmd = [sys.executable, "-X", "importtime",
                   os.path.join(HERE, "child.py"), "cli", "--trace", trace,
                   "--"] + args
        else:
            cmd = [sys.executable, "-m", "quiverhecke.cli"] + args
        return self.spawn(cmd)

    # -- probes ------------------------------------------------------------

    def setup_probe(self):
        """Interpreter start until quiverhecke is imported and the inputs
        are built, or None when the probe failed."""
        ch, res = self.child("setup")
        return None if res is None else res["ready"] - ch.start

    def startup_probe(self):
        """Wall time of one `cache stat` CLI call, or None on failure."""
        ch = self.cli(["cache", "stat", "--json", "--cache-dir",
                       os.path.join(self.tmp, "startup-cache")])
        return ch.wall if ch.rc == 0 else None

    # -- passes ------------------------------------------------------------

    def run_pass(self, traced=False):
        """One whole pass; returns (Pass, [trace snapshots], [imports])."""
        if self.workload == "cli-cache":
            return self._cli_pass(traced)
        trace = os.path.join(self.tmp, "trace.json") if traced else None
        ch, res = self.child("pass", trace)
        ops = self._verify(res)
        snaps, imports = [], []
        if traced and res is not None:
            with open(trace, "r", encoding="utf-8") as fh:
                snaps.append(json.load(fh))
            imports.append(_import_times(ch.stderr()))
        setup = None if res is None else res["ready"] - ch.start
        return Pass(ch.wall, ops, ch.rss_mb, setup), snaps, imports

    def _verify(self, res):
        """Mark each op of an in-process pass right or wrong."""
        ref = self.reference
        if self.workload == "check-all":
            expected = json.loads(ref)["results"]
            if res is None:
                return [_failed(r["name"]) for r in expected]
            got = json.loads(res["outputs"]["json"])["results"]
            whole = res["outputs"]["json"] == ref
            ops = []
            for i, op in enumerate(res["ops"]):
                same = i < len(expected) and _canon(got[i]) == _canon(
                    expected[i])
                ops.append(dict(op, kind="instance",
                                ok=op["ok"] and same and whole))
            ops += [_failed(r["name"]) for r in expected[len(ops):]]
            return ops
        if res is None:
            return [_failed(name) for name in ref]
        ops = []
        for op in res["ops"]:
            same = _canon(res["outputs"].get(op["name"])) == _canon(
                ref.get(op["name"]))
            ops.append(dict(op, kind=op["name"], ok=op["ok"] and same))
        return ops

    def _cli_pass(self, traced):
        """The CLI calls of one pass; its wall time is the sum of theirs,
        which leaves out the speed probes run between them."""
        ops, snaps, imports = [], [], []
        rss = 0.0
        busy = 0.0

        def call(args, kind, name):
            nonlocal rss, busy
            trace = None
            if traced:
                trace = os.path.join(self.tmp, "trace%d.json" % (self._n + 1))
            ch = self.cli(args, trace)
            rss = max(rss, ch.rss_mb)
            busy += ch.wall
            if traced and ch.rc == 0:
                with open(trace, "r", encoding="utf-8") as fh:
                    snaps.append(json.load(fh))
                imports.append(_import_times(ch.stderr()))
            op = {"name": name, "kind": kind, "ms": ch.wall * 1000.0,
                  "ok": ch.rc == 0}
            ops.append(op)
            return ch, op

        for name in workloads.op_order("cli-cache", self.seed):
            ref = self.reference[name]
            cfg = os.path.join(HERE, "inputs", name + ".json")
            cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.tmp)
            compare = ["compare", "--config", cfg, "--cache-dir", cache_dir,
                       "--json"]
            for kind in ["compare_cold"] + ["compare_warm"] * CLI_WARM:
                ch, op = call(compare, kind, name)
                out = ch.stdout()
                op["ok"] = op["ok"] and out == ref["stdout"] and \
                    _field(out, "mismatches") == 0
            for _ in range(CLI_STATS):
                ch, op = call(["cache", "stat", "--json", "--cache-dir",
                               cache_dir], "cache_stat", name)
                op["ok"] = op["ok"] and \
                    _field(ch.stdout(), "entries") == ref["entries"]
            shutil.rmtree(cache_dir)
        return Pass(busy, ops, rss), snaps, imports


def _failed(name):
    return {"name": name, "kind": "crashed", "ms": 0.0, "ok": False}


def _field(text, key):
    try:
        return json.loads(text).get(key)
    except (ValueError, AttributeError):
        return None


def _import_times(stderr):
    """(quiverhecke, sympy) cumulative import seconds from -X importtime;
    a package that was never imported reads 0."""
    found = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        name = parts[-1].strip()
        if name in ("quiverhecke", "sympy") and name not in found:
            try:
                found[name] = int(parts[1]) / 1e6
            except ValueError:
                continue
    return found.get("quiverhecke", 0.0), found.get("sympy", 0.0)


def tail_rank(n):
    """1-based nearest rank of the tail: the highest rank with at least
    TAIL_BEYOND samples beyond it, or the maximum when that rank would
    not lie above the median."""
    k = n - TAIL_BEYOND
    return k if k > math.ceil(n / 2) else n


def end_to_end(bench, setups, startups, passes):
    """The end-to-end metrics of a run, and the figures of the report.

    Every time is a median over the run's samples: each op (the same
    position in every pass runs the same work) is charged its median
    pass, and wall_s is the median pass.  The times are then scaled toward
    the reference speed of the machine (see speed.py), which takes out
    part of the drift that other tenants cause; `raw.<metric>` in the
    report and the side file keeps each value as measured."""
    typical = []
    for ops in zip(*(p.ops for p in passes)):
        times = [op["ms"] for op in ops if op["kind"] != "crashed"]
        if times:
            typical.append((ops[0]["kind"], statistics.median(times)))
    if not typical:
        return None, {}
    ms = sorted(t for _, t in typical)
    n = len(ms)
    if bench.workload == "cli-cache":
        startups = [op["ms"] / 1000.0 for p in passes for op in p.ops
                    if op["kind"] == "cache_stat"]
    wall = statistics.median(p.wall for p in passes)
    raw = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "ops_per_s": len(passes[0].ops) / wall,
        "op_p50_ms": ms[math.ceil(n / 2) - 1],
        "op_tail_ms": ms[tail_rank(n) - 1],
        "peak_rss_mb": max(p.rss_mb for p in passes),
        "cli_startup_s": statistics.median(startups),
    }
    factor = bench.speed.factor()
    values = {name: raw[name] * factor if unit in ("s", "ms") else raw[name]
              for name, unit in END_TO_END}
    values["ops_per_s"] = raw["ops_per_s"] / factor
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END}
    # Figures named for one workload; they go to the report and the side
    # file, since every workload reports the same end-to-end metrics.
    side = {"tail_percentile": round(100.0 * tail_rank(n) / n, 1),
            "ops_per_pass": n, "passes": len(passes), "speed_factor": factor}
    side.update(("raw." + name, value) for name, value in raw.items())
    kinds = {}
    for kind, t in typical:
        kinds.setdefault(kind, []).append(t / 1000.0)
    for kind, secs in sorted(kinds.items()):
        if kind != "instance":
            label = "%s_s" if bench.workload == "cli-cache" else "alg.%s_s"
            side[label % kind] = statistics.median(secs) * factor
    return metrics, side


def measured_run(bench, seconds):
    """Probes and passes: at least MIN_PASSES passes, and more while the
    next one would end within `seconds` of the start.

    Half the probes run before the passes and half after, so their
    samples come from both ends of the run."""
    start = time.monotonic()
    setups, startups = [], []

    def probes(n_setup, n_startup):
        setups.extend(bench.setup_probe() for _ in range(n_setup))
        if bench.workload != "cli-cache":
            startups.extend(bench.startup_probe() for _ in range(n_startup))

    probes(SETUP_PROBES // 2, STARTUP_PROBES // 2)
    # Reserve the time the second half of the probes will take.
    reserve = time.monotonic() - start
    passes = []
    while True:
        p, _, _ = bench.run_pass()
        passes.append(p)
        if p.setup is not None:
            setups.append(p.setup)
        if len(passes) >= MIN_PASSES[bench.workload] and \
                time.monotonic() + p.wall * (1 + speed.PROBE_SHARE) + \
                reserve > start + seconds:
            break
    probes(SETUP_PROBES - SETUP_PROBES // 2,
           STARTUP_PROBES - STARTUP_PROBES // 2)
    samples = {"setup_s": setups, "cli_startup_s": startups,
               "passes": _pass_samples(passes),
               "speed_probe_s": bench.speed.samples}
    probe_failures = sum(1 for v in setups + startups if v is None)
    if probe_failures:
        return None, {}, passes, probe_failures, samples
    metrics, side = end_to_end(bench, setups, startups, passes)
    return metrics, side, passes, 0, samples


def _pass_samples(passes):
    return [{"wall_s": p.wall, "rss_mb": p.rss_mb, "ops": p.ops}
            for p in passes]


def traced_run(bench):
    """One plain pass, then one traced pass: the per-layer metrics."""
    plain, _, _ = bench.run_pass()
    traced, snaps, imports = bench.run_pass(traced=True)
    merged = tracer.merge(snaps)
    external = {
        "import.quiverhecke_s": statistics.median(
            [q for q, _ in imports]) if imports else 0.0,
        "import.sympy_s": statistics.median(
            [s for _, s in imports]) if imports else 0.0,
        "trace.overhead_ratio": traced.wall / plain.wall,
    }
    metrics = tracer.layer_metrics(merged, external)
    side = {"processes": len(snaps),
            "spans": [s["spans"] for s in snaps],
            "totals": merged["totals"], "counts": merged["counts"]}
    return metrics, side, [plain, traced]


def report(workload, metrics, side, attempted, failed):
    lines = [f"workload {workload}: {attempted} ops, {failed} failed, "
             f"fail_ratio {failed / attempted if attempted else 0:.4f}"]
    for name, m in (metrics or {}).items():
        lines.append(f"  {name:44s} {m['value']:14.6g} {m['unit']}")
    for name, value in side.items():
        if isinstance(value, (int, float)):
            lines.append(f"  {name:44s} {value:14.6g}")
    sys.stderr.write("\n".join(lines) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "quiverhecke", "__init__.py")):
        sys.stderr.write(f"no quiverhecke sources under {SRC}\n")
        return 2
    if args.seconds <= 0:
        sys.stderr.write("--seconds must be positive\n")
        return 2

    # A terminated run unwinds like an interrupted one: spawn() kills and
    # reaps the running child, and the temporary directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.makedirs(OUT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
    try:
        bench = Bench(args.workload, args.seed, tmp)
        if args.trace:
            metrics, side, passes = traced_run(bench)
            extra_failed = 0
            samples = {"passes": _pass_samples(passes)}
        else:
            metrics, side, passes, extra_failed, samples = measured_run(
                bench, args.seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = sum(len(p.ops) for p in passes) + extra_failed
    failed = sum(1 for p in passes for op in p.ops if not op["ok"]) \
        + extra_failed
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "metrics": metrics, "side": side, "samples": samples,
                   "attempted": attempted, "failed": failed}, fh)
    report(args.workload, metrics, side, attempted, failed)
    if metrics is None:
        sys.stderr.write("no measurement: every op or a probe failed\n")
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
