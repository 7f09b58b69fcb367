#!/usr/bin/env python3
"""Replays one PR's recorded benchmark campaign through fba_bench --compare.

    python3 perf/replay.py --pr N --bench PATH/TO/fba_bench

perf/trajectory.jsonl holds one line per fba_bench run: the run's --json
record, unchanged, plus "pr" (the PR whose campaign ran it) and "side"
("parent" or "change"). This script takes the lines of PR N, writes each
record back to a file of its own without the two added keys, and runs
`fba_bench --compare --spec=BENCHMARK.json <parent records> -- <change
records>`. Its exit code is the verdict: 0 when no end-to-end median moved
past its BENCHMARK.json bound, every exact metric and result_fp matched and
every run was correct. Run from anywhere; paths resolve against the
repository root. Standard library only.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def load_campaign(path, pr):
    """Returns {side: [record, ...]} for PR `pr`, records in file order."""
    sides = {side: [] for side in SIDES}
    with open(path, encoding="utf-8") as lines:
        for number, line in enumerate(lines, 1):
            if not line.strip():
                continue
            record = json.loads(line)
            if record.get("pr") != pr:
                continue
            side = record.pop("side", None)
            if side not in sides:
                raise ValueError(f"{path}:{number}: side must be one of "
                                 f"{', '.join(SIDES)}, got {side!r}")
            del record["pr"]
            sides[side].append(record)
    return sides


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", required=True, type=int)
    parser.add_argument("--bench", required=True,
                        help="path to a built fba_bench")
    parser.add_argument("--trajectory",
                        default=os.path.join(ROOT, "perf", "trajectory.jsonl"))
    parser.add_argument("--spec", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = parser.parse_args()

    try:
        sides = load_campaign(args.trajectory, args.pr)
    except (OSError, ValueError, KeyError) as err:
        print(f"replay.py: {err}", file=sys.stderr)
        return 2
    for side in SIDES:
        if not sides[side]:
            print(f"replay.py: no {side} records for PR {args.pr} in "
                  f"{args.trajectory}", file=sys.stderr)
            return 2

    with tempfile.TemporaryDirectory(prefix="fba-replay-") as tmp_dir:
        paths = {}
        for side in SIDES:
            paths[side] = []
            for i, record in enumerate(sides[side]):
                path = os.path.join(tmp_dir, f"{side}-{i:03d}.json")
                with open(path, "w", encoding="utf-8") as out:
                    json.dump(record, out)
                    out.write("\n")
                paths[side].append(path)
        command = [args.bench, "--compare", f"--spec={args.spec}",
                   *paths["parent"], "--", *paths["change"]]
        return subprocess.run(command, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
