"""One benchmark process: a set-up probe, a pass, or a traced CLI call.

    child.py setup WORKLOAD --seed N --result FILE
    child.py pass WORKLOAD --seed N --result FILE [--trace FILE]
    child.py cli --trace FILE -- CLI ARGS...

run.py starts each of these in a fresh interpreter, so every pass
begins with empty memos, as a user's CLI call does.  `setup` and `pass`
write the time.monotonic() reading at which quiverhecke was imported
and the inputs were built; run.py subtracts its own reading from
just before the spawn to get the set-up time.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _import_package():
    import quiverhecke

    where = os.path.dirname(os.path.abspath(quiverhecke.__file__))
    if os.path.dirname(where) != SRC:
        sys.stderr.write(f"quiverhecke was imported from {where}, "
                         f"not from {SRC}\n")
        sys.exit(2)


def _cli(argv):
    trace_path = argv[argv.index("--trace") + 1]
    args = argv[argv.index("--") + 1:]
    _import_package()
    from quiverhecke import cli

    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    rc = cli.main(args)
    sys.stdout.flush()
    tracer.dump(trace_path)
    return rc


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "cli":
        return _cli(argv[1:])
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "pass"))
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace")
    args = parser.parse_args(argv)

    _import_package()
    import workloads

    inputs = workloads.build(args.workload, args.seed)
    ready = time.monotonic()
    out = {"ready": ready}
    if args.mode == "pass":
        wrap = None
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            wrap = lambda fn, name: tracer.wrap(fn, name, record=True)
        ops, outputs = workloads.run(args.workload, inputs, wrap)
        out.update(ops=ops, outputs=outputs)
        if tracer is not None:
            tracer.dump(args.trace)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
