#!/usr/bin/env python3
"""Self-test of the system benchmark.

Run from the root of a checkout:

    python3 perfbench/selftest.py [WORKLOAD...]

For each workload (default: all in BENCHMARK.json) it makes one-second
runs and checks that:

  * every end-to-end metric (--trace 0) and every per-layer metric
    (--trace 1) named in BENCHMARK.json is printed, with its unit;
  * the traced run's span tree is well formed: every timed job span has
    layer children, and every span's self time is >= 0;
  * a planted wrong output (--plant-wrong-output) is counted as a
    failure and makes the command exit 1.

It also checks that liftbench refuses to run with LIFT_THREADS set.
Exits 0 when every check passed.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

problems = []


def check(ok, what):
    if not ok:
        problems.append(what)
        print("  FAIL: " + what)
    return ok


def run(workload, trace, extra=(), env=None):
    cmd = RUN + ["--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace)] + list(extra)
    p = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return p.returncode, result


def check_metrics(tag, result, wanted):
    if not check(result is not None, tag + ": no JSON result line"):
        return
    check(set(result) == RESULT_KEYS,
          tag + ": result keys " + str(sorted(result)))
    check(result.get("correct") is True, tag + ": correct is not true")
    check(result.get("attempted", 0) >= 1 and result.get("failed") == 0,
          tag + ": attempted/failed " + str((result.get("attempted"),
                                             result.get("failed"))))
    got = result.get("metrics", {})
    for m in wanted:
        v = got.get(m["name"])
        if check(v is not None, tag + ": metric %s missing" % m["name"]):
            check(v.get("unit") == m["unit"],
                  tag + ": metric %s unit %r, want %r" % (m["name"],
                                                          v.get("unit"),
                                                          m["unit"]))
            check(isinstance(v.get("value"), (int, float)) and
                  math.isfinite(v["value"]),
                  tag + ": metric %s value %r" % (m["name"], v.get("value")))
    extra = set(got) - {m["name"] for m in wanted}
    check(not extra, tag + ": unexpected metrics " + str(sorted(extra)))


def check_span_tree(tag, path):
    try:
        with open(path) as f:
            events = json.load(f)["traceEvents"]
    except (OSError, ValueError, KeyError) as e:
        check(False, tag + ": cannot read trace %s: %s" % (path, e))
        return
    kids = {}
    for e in events:
        kids.setdefault(e["args"]["parent"], []).append(e)
    jobs = [e for e in events if e["name"] == "job" and e["args"]["job"]]
    check(jobs, tag + ": no timed job spans in the trace")
    for j in jobs:
        if not check(kids.get(j["args"]["id"]),
                     tag + ": job %d has no layer children" % j["args"]["id"]):
            break
    worst = 0.0
    for e in events:
        covered, cursor = 0.0, e["ts"]
        end = e["ts"] + e["dur"]
        for k in sorted(kids.get(e["args"]["id"], []), key=lambda k: k["ts"]):
            b, t = max(k["ts"], cursor), min(k["ts"] + k["dur"], end)
            if t > b:
                covered += t - b
                cursor = t
        worst = min(worst, e["dur"] - covered)
    # Timestamps are printed to 1 ns; allow for that rounding.
    check(worst >= -0.01, tag + ": negative self time %.3f us" % worst)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = sys.argv[1:] or [w["name"] for w in bench["workloads"]]
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)

    for w in workloads:
        print("workload " + w)
        code, result = run(w, 0)
        check(code == 0, w + " --trace 0: exit code %d" % code)
        check_metrics(w + " --trace 0", result, bench["end_to_end"])

        trace_file = os.path.join(".bench_out", "selftest-%s.json" % w)
        code, result = run(w, 1, ["--trace-out", trace_file])
        check(code == 0, w + " --trace 1: exit code %d" % code)
        check_metrics(w + " --trace 1", result, bench["per_layer"])
        check_span_tree(w, os.path.join(ROOT, trace_file))

        code, result = run(w, 0, ["--plant-wrong-output"])
        check(code == 1, w + " planted: exit code %d, want 1" % code)
        check(result is not None and result.get("correct") is False and
              result.get("failed", 0) >= 1,
              w + " planted: the wrong output was not counted")

    env = dict(os.environ, LIFT_THREADS="2")
    code, result = run(workloads[0], 0, env=env)
    check(code == 2 and result is None,
          "LIFT_THREADS set: exit code %d, want 2 and no result" % code)

    print("selftest: %s" % ("%d problem(s)" % len(problems) if problems
                            else "all checks passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
