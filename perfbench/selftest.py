#!/usr/bin/env python3
"""Self-test of the benchmark, at smoke size.

    python3 perfbench/selftest.py

From the root of a checkout, for every workload in BENCHMARK.json:

* `--trace 0` prints exactly the end-to-end metrics BENCHMARK.json names,
  each with its unit, and `--trace 1` exactly the per-layer ones;
* the result line has exactly `correct`, `attempted`, `failed` and
  `metrics`, with every check passed;
* a second traced run on the same seed reproduces every count exactly
  (units `count`, `count/unit`, `B/unit`).

The ungated `population` workload (see README.md) is tested the same way.

Finally it copies only BENCHMARK.json and the benchmark's directories
into the build directory and checks the benchmark fails there, without a
result line, since the program it measures is absent.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COUNT_UNITS = ("count", "count/unit", "B/unit")
SEED = "7"
# Workloads the binary runs that BENCHMARK.json does not gate.
UNGATED = ["population"]


def run(args, cwd=ROOT, env=None):
    cmd = [sys.executable, "perfbench/run.py"] + args
    out = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, env=env, timeout=600)
    return out


def result(args):
    out = run(args)
    if out.returncode != 0:
        sys.exit("FAIL %s: exit %d\n%s" % (" ".join(args), out.returncode, out.stderr[-2000:]))
    record = json.loads(out.stdout.strip().splitlines()[-1])
    if set(record) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("FAIL %s: result keys %s" % (" ".join(args), sorted(record)))
    if not record["correct"] or record["failed"] != 0 or record["attempted"] < 1:
        sys.exit("FAIL %s: checks failed: %s" % (" ".join(args), record))
    return record


def check_metrics(label, record, table):
    want = {m["name"]: m["unit"] for m in table}
    got = {name: m["unit"] for name, m in record["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        sys.exit("FAIL %s: missing %s, unexpected %s, wrong units %s" % (label, missing, extra, wrong))
    for name, m in record["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            sys.exit("FAIL %s: %s is not a number" % (label, name))


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for name in [w["name"] for w in bench["workloads"]] + UNGATED:
        base = ["--workload", name, "--seed", SEED, "--seconds", "1", "--smoke"]
        check_metrics(name + " trace 0", result(base + ["--trace", "0"]), bench["end_to_end"])
        first = result(base + ["--trace", "1"])
        check_metrics(name + " trace 1", first, bench["per_layer"])
        second = result(base + ["--trace", "1"])
        for metric, m in first["metrics"].items():
            if m["unit"] in COUNT_UNITS and second["metrics"][metric]["value"] != m["value"]:
                sys.exit(
                    "FAIL %s: count %s differs between same-seed runs: %s vs %s"
                    % (name, metric, m["value"], second["metrics"][metric]["value"])
                )
        print("ok %s" % name)

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    bare = target / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for path in bench["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("target"))
    env = dict(os.environ, CARGO_TARGET_DIR=str(bare / ".bench_build"))
    out = run(["--workload", bench["workloads"][0]["name"], "--seed", SEED, "--seconds", "1", "--trace", "0"], cwd=bare, env=env)
    shutil.rmtree(bare, ignore_errors=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode == 0 or (lines and lines[-1].startswith("{")):
        sys.exit("FAIL bare directory: expected a failure without a result line")
    print("ok bare directory fails (exit %d)" % out.returncode)


if __name__ == "__main__":
    main()
