#!/usr/bin/env python3
"""End-to-end benchmark of the gcnt library.

    python3 perfbench/run.py --workload <name|all> --seed <n> \
        --seconds <s> --trace <0|1>

Builds perfbench/ (which compiles the library from src/) into
.bench_build/perfbench, runs one workload in a fresh process, and passes
its output through. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. Run from the
root of a source checkout; the exit code is non-zero when the build fails
or any output check fails. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ["infer_300k", "opi_100k", "serve_mixed", "forward_int8_30k"]
RUN_TIMEOUT_S = 170
# Files a run leaves in its work directory that are only inputs; the
# record (result.json, trace.json, access.log) is kept.
BULKY = ["design.bench", "predictions.txt", "model.txt"]


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configures (once) and builds the perfbench binary; returns its path."""
    source = os.path.join(root, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        command = ["cmake", "-S", source, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            command += ["-G", "Ninja"]
        if subprocess.run(command, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    binary = os.path.join(build_dir, "perfbench")
    before = os.path.getmtime(binary) if os.path.exists(binary) else None
    result = subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr)
    if result.returncode != 0 or not os.path.exists(binary):
        return None
    if os.path.getmtime(binary) != before:
        # A fresh build leaves dirty pages and busy cores behind; let them
        # settle so the first measured run does not pay for them.
        os.sync()
        time.sleep(3)
    return binary


def source_id(root):
    """The commit when the checkout is a git work tree, else a digest of
    the sources the benchmark compiles."""
    try:
        if not os.path.exists(os.path.join(root, ".git")):
            raise OSError("not a git work tree")
        head = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0 and head.stdout.strip():
            return head.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "bench", "perfbench"):
        for base, dirs, files in sorted(os.walk(os.path.join(root, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def run_one(binary, root, args, workload, commit):
    workdir = os.path.join(root, ".bench_build", "perfbench", "runs",
                           "%s-seed%d-trace%d" % (workload, args.seed,
                                                  args.trace))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    command = [binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir, "--commit", commit]
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                               cwd=root)
    try:
        out, _ = process.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        log("perfbench: %s exceeded %d s" % (workload, RUN_TIMEOUT_S))
        return None, 1
    for name in BULKY:
        path = os.path.join(workdir, name)
        if os.path.exists(path):
            os.remove(path)
    lines = out.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return (lines, result), process.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    binary = build(root, os.path.join(root, ".bench_build", "perfbench"))
    if binary is None:
        log("perfbench: build failed")
        return 3
    commit = source_id(root)

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for workload in workloads:
        output, returncode = run_one(binary, root, args, workload, commit)
        if output is None or output[1] is None:
            log("perfbench: %s produced no result" % workload)
            return returncode or 1
        lines, result = output
        code = code or returncode
        if len(workloads) == 1:
            print("\n".join(lines), flush=True)
            return returncode
        print("== %s" % workload)
        print("\n".join(lines[:-1]))
        for name, metric in result["metrics"].items():
            print("%s %s = %.6g %s" % (workload, name, metric["value"],
                                       metric["unit"]))
            combined["metrics"]["%s.%s" % (workload, name)] = metric
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
