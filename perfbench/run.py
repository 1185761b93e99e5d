#!/usr/bin/env python3
"""Build the benchmark from source and run it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s>

Run it from the root of the repository. It builds `perfbench/` (a cargo
package of its own that depends on the repository's crates by path) in
release mode into `$CARGO_TARGET_DIR`, or `.bench_build` when that is
unset, then runs the binary with the same arguments. The binary prints a
table of metrics and, as its last line, one JSON result object.

`--workload all` runs every workload untraced and traced, one after the
other, and ends with one JSON object whose metrics are named
`<workload>/<metric>`.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["search-1t", "search-par", "spawn-heavy", "jobs-open"]


def build(env):
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
           "--manifest-path", manifest]
    return subprocess.run(cmd, env=env, stdout=sys.stderr).returncode


def run_binary(exe, args, env, seconds):
    """Run the benchmark binary; return (exit code, last stdout line)."""
    # Set-up and the last pass come on top of the measured seconds.
    limit = 3 * seconds + 60
    try:
        proc = subprocess.run([exe] + args, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=limit)
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {limit} s", file=sys.stderr)
        return 1, ""
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[-1] if lines else ""


def arg_value(args, flag):
    if flag in args and args.index(flag) + 1 < len(args):
        return args[args.index(flag) + 1]
    return None


def main():
    args = sys.argv[1:]
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    code = build(env)
    if code != 0:
        print("perfbench: build failed", file=sys.stderr)
        return code
    exe = os.path.join(os.path.abspath(env["CARGO_TARGET_DIR"]), "release",
                       "adaptivetc-perfbench")
    try:
        seconds = float(arg_value(args, "--seconds") or 0)
    except ValueError:
        seconds = 0
    if arg_value(args, "--workload") != "all":
        return run_binary(exe, args, env, seconds)[0]

    seed = arg_value(args, "--seed") or "1"
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            code, line = run_binary(
                exe, ["--workload", workload, "--seed", seed,
                      "--seconds", str(seconds), "--trace", trace],
                env, seconds)
            worst = worst or code
            try:
                result = json.loads(line)
            except ValueError:
                print(f"perfbench: {workload} gave no result", file=sys.stderr)
                return code or 1
            total["correct"] = total["correct"] and result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                total["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(total))
    return worst


if __name__ == "__main__":
    sys.exit(main())
