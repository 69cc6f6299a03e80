#!/usr/bin/env python3
"""Where the benchmark's automatic full garbage collections land.

Run from the root of a checkout:

    python3 tools/gc_placement.py --workload single-1k --seed 3 --seconds 10 [--tiny]

It runs `perfbench/run.py`'s `main` in this process at `--trace 0`, with a
`gc.callbacks` hook and wrappers around `run._calibrate`, `gc.collect` and
`silicon.cli.run`.  For each pass (pass 0 is the warm-up) it prints where every
automatic gen-2 collection landed: inside a command, in the calibration before
or after a command, or between them.  `gc.collect()` calls are explicit and not
listed.  A full collection in a calibration loop stretches that loop, which
deflates the scaled time of the command next to it; one inside a command is
paid by that command.  The benchmark's own result lines are not printed, and
nothing is written under `perfbench/`.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import sys
import time
from collections import Counter

sys.dont_write_bytecode = True  # import perfbench/run.py without a __pycache__ there


class Placement:
    """The place the run is in, and the automatic gen-2 collections per place."""

    def __init__(self, out):
        self.out = out
        self.place = "setup"
        self.in_pass = False
        self.last = None          # the last command of this pass, None before the first
        self.explicit = 0         # gc.collect() calls in progress
        self.started = None
        self.events: list[list] = []   # [place, ms] of this pass (or of the setups)
        self.passes = 0
        self.summary: Counter = Counter()

    def on_gc(self, phase, info):
        if info["generation"] != 2 or self.explicit:
            return
        if phase == "start":
            self.started = time.perf_counter()
        elif self.started is not None:
            self.events.append([self.place, 1000 * (time.perf_counter() - self.started)])
            self.started = None

    def collect(self, collect):
        def wrapper(*args, **kwargs):
            self.explicit += 1
            try:
                return collect(*args, **kwargs)
            finally:
                self.explicit -= 1
        return wrapper

    def calibrate(self, calibrate):
        def wrapper():
            if not self.in_pass:
                return calibrate()
            self.place = ("calibration before the first command" if self.last is None
                          else f"calibration after {self.last}")
            try:
                return calibrate()
            finally:
                self.place = f"between commands, after {self.last}"
        return wrapper

    def command(self, run):
        def wrapper(argv):
            name = argv[0] + (" --replay" if "--replay" in argv else "")
            for event in self.events:   # the first calibration now knows its command
                if event[0] == "calibration before the first command":
                    event[0] = f"calibration before {name}"
            self.place = f"inside {name}"
            try:
                return run(argv)
            finally:
                self.last = name
                self.place = f"between commands, after {name}"
        return wrapper

    def run_pass(self, run_pass):
        def wrapper(*args, **kwargs):
            if self.events:
                self.report("setup" if self.passes == 0 else f"before pass {self.passes}")
            self.place, self.last, self.in_pass = "pass start", None, True
            try:
                return run_pass(*args, **kwargs)
            finally:
                label = "pass 0 (warm-up)" if self.passes == 0 else f"pass {self.passes}"
                if self.passes:
                    self.summary.update(place for place, _ in self.events)
                self.report(label)
                self.passes += 1
                self.place, self.in_pass = "between passes", False
        return wrapper

    def report(self, label):
        text = "; ".join(f"{place} ({ms:.1f} ms)" for place, ms in self.events) or "none"
        print(f"{label}: {text}", file=self.out, flush=True)
        self.events = []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--tiny", action="store_true", help="a few dozen items")
    args = parser.parse_args(argv)

    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "perfbench"))
    sys.path.insert(0, os.path.join(root, "src"))
    import run
    from silicon import cli

    probe = Placement(sys.stdout)
    run._calibrate = probe.calibrate(run._calibrate)
    run.Bench.run_pass = probe.run_pass(run.Bench.run_pass)
    cli.run = probe.command(cli.run)
    collect, gc.collect = gc.collect, probe.collect(gc.collect)
    gc.callbacks.append(probe.on_gc)
    bench_argv = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", "0"] + ["--tiny"] * args.tiny
    try:
        with contextlib.redirect_stdout(io.StringIO()) as result:
            rc = run.main(bench_argv)
    finally:
        gc.callbacks.remove(probe.on_gc)
        gc.collect = collect
    lines = result.getvalue().strip().splitlines()
    if rc != 0 or not lines or json.loads(lines[-1]).get("correct") is not True:
        print(f"gc_placement: the benchmark run failed (exit {rc})", file=sys.stderr)
        return 1
    timed = probe.passes - 1
    counts = ", ".join(f"{place}: {n}" for place, n in sorted(probe.summary.items())) or "none"
    print(f"automatic gen-2 collections over {timed} timed passes: {counts}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
