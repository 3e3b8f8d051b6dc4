#!/usr/bin/env python3
r"""Build and run the end-to-end host-speed benchmark.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload zoo_infer --seed 1 \
        --seconds 30 --trace 0

Builds the simulator library and the `perfbench` program from source into
.bench_build/ (the first run compiles; later runs only re-check), then
runs one workload. The program's last line of output is the result JSON
object; its exit code is passed on. Build output goes to stderr.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("zoo_infer", "layer_points", "service_mix")
BUILD_TIMEOUT_S = 840


def source_digest(root):
    """Digest of every file the exact counts depend on: the sources the
    benchmark binary is built from and the model files it loads."""
    h = hashlib.sha1()
    for top, suffixes in (("src", (".cpp", ".hpp", ".txt")),
                          ("perfbench", (".cpp", ".hpp", ".txt")),
                          ("models", (".model",))):
        for path in sorted((root / top).rglob("*")):
            if path.is_file() and path.suffix in suffixes:
                h.update(str(path.relative_to(root)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_metrics(root, result_line, trace):
    """Why the result line's metrics differ from the names and units
    BENCHMARK.json lists for this mode, or None when they match."""
    listed = json.loads((root / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"]
            for m in listed["per_layer" if trace else "end_to_end"]}
    try:
        got = {name: m["unit"]
               for name, m in json.loads(result_line)["metrics"].items()}
    except (ValueError, KeyError, TypeError, AttributeError) as e:
        return f"unreadable result line ({e})"
    if got != want:
        return (f"metrics differ from BENCHMARK.json: missing "
                f"{sorted(want.keys() - got.keys())}, unlisted "
                f"{sorted(got.keys() - want.keys())}, units "
                f"{sorted(k for k in want.keys() & got.keys() if want[k] != got[k])}")
    return None


def build(root, build_dir):
    """Configure (once) and build the benchmark; False on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B",
                      str(build_dir), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "perfbench", "--parallel", jobs])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            print(f"perfbench: build step failed: {e}", file=sys.stderr)
            return False
        if r.returncode != 0:
            print(f"perfbench: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    root = Path(__file__).resolve().parent.parent
    build_dir = root / ".bench_build" / "cmake"
    out_dir = root / ".bench_build" / "out"
    if not (root / "src" / "CMakeLists.txt").is_file():
        print("perfbench: no simulator sources under src/; run from the "
              "root of a full source checkout", file=sys.stderr)
        return 2
    if not build(root, build_dir):
        return 1

    cmd = [str(build_dir / "perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", args.trace,
           "--out-dir", str(out_dir),
           "--build-id", source_digest(root)]
    # A run overshoots --seconds by at most its last pass and set-up.
    timeout_s = 2 * args.seconds + 60
    try:
        # The model files the service workload submits are resolved
        # against the checkout root.
        r = subprocess.run(cmd, cwd=root, timeout=timeout_s, check=False,
                           stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {timeout_s} s", file=sys.stderr)
        return 1
    lines = r.stdout.splitlines()
    sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
    if r.returncode != 0:
        return r.returncode
    why = check_metrics(root, lines[-1] if lines else "", args.trace == "1")
    if why:
        print(f"perfbench: {why}", file=sys.stderr)
        return 1
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
