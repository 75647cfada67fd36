#!/usr/bin/env python3
"""Builds and runs the repository benchmark; prints one JSON result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The first run configures and builds the
engine libraries and the benchmark program into .bench_build/perfbench
(later runs rebuild only what changed). The program's result becomes the
last line of standard output:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

with every end-to-end metric of BENCHMARK.json when --trace is 0 and every
per-layer metric when it is 1. The full result, with the run's context
(num_cpus, commit, source digest, seed, workload parameters, build type,
telemetry) goes to .bench_out/results/, and a traced run's spans to
.bench_out/traces/. Compare two such result directories with
perfbench/compare.py.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "perfbench")
BUILD_TYPE = "Release"
# Seconds a run may take once built, and with its first build included.
RUN_LIMIT_S = 175
FIRST_RUN_LIMIT_S = 890


def fail(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def run_logged(cmd, log, deadline):
    with open(log, "a") as f:
        f.write("$ " + " ".join(cmd) + "\n")
        f.flush()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=f, stderr=subprocess.STDOUT)
        try:
            return proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return -1


def build(deadline):
    """Configures (once) and builds; returns True if anything was rebuilt."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("engine sources not found under %s/src" % ROOT)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(BUILD, exist_ok=True)
    log = os.path.join(BUILD, "build.log")
    stamp = os.path.getmtime(BINARY) if os.path.exists(BINARY) else None
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run_logged(cmd, log, deadline) != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("configure failed; see " + log)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if run_logged(["cmake", "--build", BUILD, "-j", jobs], log, deadline) != 0:
        with open(log) as f:
            sys.stderr.write("".join(f.readlines()[-30:]))
        fail("build failed; see " + log)
    return stamp is None or os.path.getmtime(BINARY) != stamp


def source_digest():
    """sha256 over the engine and benchmark sources (path + content)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def main():
    start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json not found at the repository root")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    built = build(start + FIRST_RUN_LIMIT_S)
    deadline = start + (FIRST_RUN_LIMIT_S if built else RUN_LIMIT_S)

    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    os.makedirs(os.path.join(OUT, "traces"), exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(OUT, "traces", args.workload + "-seed%d.json" % args.seed)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("benchmark timed out")
    sys.stderr.write(err)
    lines = out.strip().splitlines()
    if not lines:
        fail("benchmark exited %d without a result" % proc.returncode)
    result = json.loads(lines[-1])

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            fail("benchmark did not report " + m["name"])
        if got["unit"] != m["unit"]:
            fail("%s reported in %s, BENCHMARK.json says %s" % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}

    context = result["context"]
    context.update({"commit": commit(), "source_sha256": source_digest(),
                    "exit_code": proc.returncode})
    record = {"correct": result["correct"], "attempted": int(result["attempted"]),
              "failed": int(result["failed"]), "metrics": result["metrics"],
              "context": context}
    with open(os.path.join(OUT, "results", tag + ".json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    print(json.dumps({"correct": bool(result["correct"]), "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": metrics}))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
