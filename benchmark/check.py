#!/usr/bin/env python3
"""fba_bench_check: fba_bench's own test.

    python3 check.py FBA_BENCH BENCHMARK.json FIXTURES_DIR

Checks that bad command lines are refused with one line and exit 2, that
--compare passes a set within bounds and flags a seeded 30% throughput
drop, and that the metrics a real run prints are exactly the ones
BENCHMARK.json declares, with the same units.
"""

import json
import os
import subprocess
import sys

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def run(bench, args):
    return subprocess.run([bench] + args, capture_output=True, text=True,
                          timeout=300)


def check_rejections(bench, fixtures):
    cases = [
        [],
        ["--workload=nope"],
        ["--workload=service-n64", "--seed=0"],
        ["--workload=service-n64", "--seed=abc"],
        ["--workload=service-n64", "--seed=-5"],
        ["--workload=service-n64", "--seed="],
        ["--workload=service-n64", "--seed=18446744073709551616"],
        ["--workload=service-n64", "--seconds=0"],
        ["--workload=service-n64", "--trace=2"],
        ["--workload=service-n64", "--bogus"],
        ["--compare", os.path.join(fixtures, "a1.json")],
        ["--compare", "--", os.path.join(fixtures, "a1.json")],
        ["--compare", "missing.json", "--", "missing.json"],
        ["--compare", os.path.join(fixtures, "malformed.json"), "--",
         os.path.join(fixtures, "a1.json")],
    ]
    for args in cases:
        p = run(bench, args)
        lines = p.stderr.strip().splitlines()
        check(p.returncode == 2 and p.stdout == "" and len(lines) == 1,
              f"rejects {args or '(no arguments)'} with one line and exit 2")


def check_compare(bench, spec, fixtures):
    def paths(*names):
        return [os.path.join(fixtures, name) for name in names]
    a = paths("a1.json", "a2.json")
    within = paths("within1.json", "within2.json")
    drop = paths("drop1.json", "drop2.json")
    p = run(bench, ["--compare", f"--spec={spec}"] + a + ["--"] + within)
    check(p.returncode == 0 and "PASS" in p.stdout,
          "--compare passes a set within the bounds")
    p = run(bench, ["--compare", f"--spec={spec}"] + a + ["--"] + drop)
    flagged = [l for l in p.stdout.splitlines() if "REGRESSED" in l]
    check(p.returncode == 1 and len(flagged) == 1 and
          flagged[0].split()[0] == "trials_per_s",
          "--compare flags exactly the 30% trials_per_s drop")


def check_declared(bench, spec):
    doc = json.load(open(spec))
    check(sorted(doc) == ["command", "end_to_end", "paths", "per_layer",
                          "run_seconds", "workloads"],
          "BENCHMARK.json has exactly the contract's keys")
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        p = run(bench, ["--workload=service-n64", "--seconds=1",
                        f"--trace={trace}"])
        lines = p.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        check(p.returncode == 0 and sorted(result) ==
              ["attempted", "correct", "failed", "metrics"] and
              result["correct"] is True and result["attempted"] >= 1,
              f"--trace={trace}: the last line is a correct JSON result")
        declared = [(m["name"], m["unit"]) for m in doc[section]]
        emitted = [(name, m["unit"]) for name, m in
                   result.get("metrics", {}).items()]
        check(emitted == declared,
              f"--trace={trace}: emits exactly the {section} metrics, "
              "in order, with their units")
        printed = [l.split()[0] for l in lines[:-1]]
        check(printed == [name for name, _ in declared] + ["result_fp"],
              f"--trace={trace}: prints one '<name> <value> <unit>' line "
              "per metric")


def main():
    bench, spec, fixtures = sys.argv[1:4]
    check_rejections(bench, fixtures)
    check_compare(bench, spec, fixtures)
    check_declared(bench, spec)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
