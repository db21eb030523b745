#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root.  It compiles perfbench/ and the library
sources in src/ into $CARGO_TARGET_DIR (default .bench_build), runs one
workload in one process, checks that the metrics it printed are exactly the
ones BENCHMARK.json lists, and passes the output through: the last line of
stdout is the result object.  Build output goes to stderr.  The exit code is
non-zero when the build fails, a correctness check fails, or the output does
not match BENCHMARK.json; a result line is printed only for a run that got
as far as checking its outputs.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(root, build_dir):
    cmds = []
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        cmds.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                     build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    cmds.append(["cmake", "--build", build_dir, "--target", "perfbench",
                 "-j", "4"])
    for cmd in cmds:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=850)
        except (OSError, subprocess.TimeoutExpired) as exc:
            fail(f"build failed: {exc}")
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)} exited {done.returncode}")
    return os.path.join(build_dir, "perfbench")


def source_id(root):
    """The git commit when there is one, else a digest of the sources."""
    try:
        done = subprocess.run(
            ["git", "-C", root, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
        top, _, sha = done.stdout.strip().partition("\n")
        if done.returncode == 0 and os.path.samefile(top, root):
            return "git:" + sha
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    expected = [m["name"] for m in
                spec["per_layer" if args.trace else "end_to_end"]]

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, build_dir)
    binary = build(root, build_dir)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--source-id", source_id(root)]
    if args.trace:
        cmd += ["--spans-out",
                os.path.join(build_dir, f"spans-{args.workload}.tsv")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        names = list(result["metrics"])
    except (ValueError, KeyError, TypeError):
        sys.stdout.write(done.stdout)
        fail(f"no result line (exit {done.returncode})")
    if names != expected:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(f"metrics {names} do not match BENCHMARK.json {expected}")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
