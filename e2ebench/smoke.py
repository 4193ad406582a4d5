#!/usr/bin/env python3
"""e2e_smoke: every workload at 1/20 scale for 1 s, untraced and traced.

    python3 smoke.py path/to/bdbms_bench

Fails unless each run exits 0 with a correct result that names every
end_to_end metric of BENCHMARK.json (untraced) or every per_layer metric
(traced). Database directories go to ./smoke-data.
"""

import json
import os
import subprocess
import sys


def main():
    binary = os.path.abspath(sys.argv[1])
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            done = subprocess.run(
                [binary, "--workload", workload, "--seed", "1",
                 "--seconds", "1", "--scale", "20", "--trace", str(trace),
                 "--dir", "smoke-data"],
                stdout=subprocess.PIPE, text=True, timeout=60)
            lines = done.stdout.strip().splitlines()
            label = "%s trace=%d" % (workload, trace)
            if done.returncode != 0 or not lines:
                failures.append("%s: exit %d" % (label, done.returncode))
                continue
            result = json.loads(lines[-1])
            missing = [m["name"] for m in listed
                       if m["name"] not in result["metrics"]]
            if not result["correct"] or missing:
                failures.append("%s: correct=%s missing=%s" %
                                (label, result["correct"], missing))
            print("%s: %d metrics, %d ops" % (label, len(result["metrics"]),
                                              result["attempted"]))
    for failure in failures:
        print("FAIL " + failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
