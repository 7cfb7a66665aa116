#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark's checks, plus a smoke run.

    python3 perfbench/selftest.py

Run from the repository root. It builds the benchmark through run.py,
then:

1. injects each fault the checks must catch into a short
   mnist-saturate run (a corrupted served logit, a corrupted served
   PerfReport, a dropped response, a perturbed engine energy total) and
   requires the run to report correct=false, exit nonzero, and name the
   check that caught it;
2. runs every workload briefly (har-eval too), untraced and traced, and
   requires correct=true, no failed operations, and exactly the metric
   names BENCHMARK.json lists for that mode;
3. requires a bad argument to exit nonzero without printing a result.

Exits 0 when every case passes.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = [sys.executable, os.path.join(HERE, "run.py")]
SPEC = os.path.join(HERE, "..", "BENCHMARK.json")

# Fault -> the checks (by name, as printed on stderr) that must fire.
FAULTS = {
    "logit": ["served-logits"],
    "perf": ["served-perf"],
    "drop": ["responses", "engine-count", "engine-energy"],
    "energy": ["engine-energy"],
}


def run(args):
    proc = subprocess.run(RUN + args, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, result, proc.stderr


def main():
    with open(SPEC) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"] for m in spec["end_to_end"]},
        1: {m["name"] for m in spec["per_layer"]},
    }
    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    for fault, checks in FAULTS.items():
        code, result, err = run(["--workload", "mnist-saturate", "--seed", "1",
                                 "--seconds", "1", "--trace", "0",
                                 "--inject", fault])
        expect(code != 0 and result is not None and result["correct"] is False,
               f"inject {fault}: run reports correct=false")
        for check in checks:
            expect(f"[{check}]" in err, f"inject {fault}: check {check} fires")

    # mnist-single and har-eval are left out of BENCHMARK.json (README.md,
    # "Workloads") but still run by hand, so they are smoke-tested too.
    for workload in ([w["name"] for w in spec["workloads"]]
                     + ["mnist-single", "har-eval"]):
        for trace in (0, 1):
            code, result, err = run(["--workload", workload, "--seed", "3",
                                     "--seconds", "1", "--trace", str(trace)])
            what = f"smoke {workload} trace={trace}"
            expect(code == 0 and result is not None and result["correct"]
                   and result["failed"] == 0 and result["attempted"] > 0,
                   what + ": correct, nothing failed")
            names = set(result["metrics"]) if result else set()
            expect(names == expected[trace],
                   what + ": metric names match BENCHMARK.json"
                   + ("" if names == expected[trace] else
                      f" (missing {sorted(expected[trace] - names)},"
                      f" extra {sorted(names - expected[trace])})"))

    code, result, _ = run(["--workload", "no-such-workload", "--seed", "1",
                           "--seconds", "1", "--trace", "0"])
    expect(code != 0 and result is None, "unknown workload is refused")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
