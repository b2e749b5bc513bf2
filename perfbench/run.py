#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload sim_battery|serve_odoh|population \
        --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout. Builds `perfbench/` (its own cargo
workspace, path-depending on `crates/`) into `$CARGO_TARGET_DIR`
(default `.bench_build`), then runs it. The last line of standard output
is the result record; the lines before it (prefixed `#`) carry the host
metadata and the workload-specific readings. With `--trace 1` the spans
are written to `<target dir>/perfbench-traces/<workload>-seed<N>.json`.
Exits non-zero, without a result line, when the build fails.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "perfbench" / "Cargo.toml"
# The binary bounds its own run; this only catches a wedged one.
RUN_TIMEOUT_S = 170


def arg_value(argv, flag, default):
    if flag in argv:
        i = argv.index(flag)
        if i + 1 < len(argv):
            return argv[i + 1]
    return default


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest():
    """SHA-256 over the sources the benchmark builds from, so a record
    names the code it measured even where no git metadata exists."""
    h = hashlib.sha256()
    for top in ("crates", "third_party", "perfbench"):
        base = ROOT / top
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in (".rs", ".toml") and path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def main():
    argv = sys.argv[1:]
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))

    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(MANIFEST)],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    # Only ask git inside this checkout; never search parent directories.
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        commit = command_output(["git", "rev-parse", "HEAD"])
    env["PERFBENCH_RUSTC"] = command_output(["rustc", "-V"])
    env["PERFBENCH_COMMIT"] = commit
    env["PERFBENCH_SOURCE"] = source_digest()

    cmd = [str(target / "release" / "dcp-perfbench")] + argv
    if arg_value(argv, "--trace", "0") == "1" and "--trace-out" not in argv:
        name = "%s-seed%s.json" % (arg_value(argv, "--workload", "none"), arg_value(argv, "--seed", "1"))
        cmd += ["--trace-out", str(target / "perfbench-traces" / name)]
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
