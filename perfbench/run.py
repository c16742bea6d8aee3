#!/usr/bin/env python3
"""DeepER pipeline benchmark.

    python3 perfbench/run.py --workload block-ag --seed 404 --seconds 10 --trace 0
    python3 perfbench/run.py --all        # every workload at seeds 404 and 405, with a summary table
    python3 perfbench/run.py --selfcheck  # scale-1 check against EXPERIMENTS.md

Builds the program and the benchmark from source on first use (see
build.py), then runs one workload in a fresh JVM with a fixed driver heap.
The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}: end-to-end metrics with
--trace 0, per-layer metrics with --trace 1. The line before it is
{"meta": ...}: environment, sizes, the workload's named outputs, and the
map from each layer metric to the end-to-end metric it should move
(workloads.json). Traced runs also write .bench_build/traces/<workload>-seed<n>.json.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # keep the benchmark directory free of generated files
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

DRIVER_HEAP = "3g"
RUN_LIMIT_S = 175   # a run must end within 180 s ...
BUILD_LIMIT_S = 880  # ... or 900 s when it builds
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
SPARK_JAVA_OPTS = [
    "-XX:+IgnoreUnrecognizedVMOptions",
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/jdk.internal.ref=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
]


def commit():
    try:
        return subprocess.run(["git", "-C", build.ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_jvm(cp, args, deadline):
    """Run the benchmark JVM; return (stdout lines, exit code)."""
    tmp = os.path.join(build.OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # -XX:-UsePerfData: no hsperfdata file outside the checkout.
    cmd = (["java", "-XX:-UsePerfData", f"-Xms{DRIVER_HEAP}", f"-Xmx{DRIVER_HEAP}", f"-Djava.io.tmpdir={tmp}",
            "-Dlog4j2.configurationFile=" + os.path.join(build.BENCH, "log4j2.properties")]
           + SPARK_JAVA_OPTS + ["-cp", cp, "perfbench.Main", "--out", build.OUT] + args)
    try:
        done = subprocess.run(cmd, cwd=build.ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        print("[perfbench] run timed out", file=sys.stderr)
        return [], 124
    return done.stdout.splitlines(), done.returncode


def parse_result(lines):
    """(meta, result) from the JVM's last two lines, or None if malformed."""
    try:
        meta, result = json.loads(lines[-2])["meta"], json.loads(lines[-1])
    except (IndexError, KeyError, ValueError, TypeError):
        return None
    if set(result) != RESULT_KEYS or not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return None
    return meta, result


def one(cp, sha, args, deadline):
    lines, code = run_jvm(cp, args, deadline)
    parsed = parse_result(lines)
    for line in lines[:-2] if parsed else lines:
        print(line)
    if code != 0 or parsed is None:
        print(f"[perfbench] benchmark JVM exited with {code}" +
              ("" if parsed else " without a result"), file=sys.stderr)
        return None
    meta, result = parsed
    with open(os.path.join(build.BENCH, "workloads.json")) as fh:
        info = json.load(fh)
    meta["commit"] = commit()
    meta["source_sha256"] = sha
    if "workload" in meta:
        meta["workload_info"] = info["workloads"][meta["workload"]]
        meta["layer_map"] = info["layers"]
    return meta, result


def summary(meta, result):
    rows = list(meta.get("results", {}).items()) + list(result["metrics"].items())
    for name, m in rows:
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")


def main():
    # On SIGTERM, unwind so that subprocess.run kills and reaps the JVM.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=404)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="every workload at seeds 404 and 405")
    ap.add_argument("--selfcheck", action="store_true", help="scale-1 check against EXPERIMENTS.md")
    a = ap.parse_args()
    if not (a.all or a.selfcheck or a.workload):
        ap.error("one of --workload, --all, --selfcheck is required")

    start = time.time()
    try:
        cp, sha, built = build.build()
    except build.BuildError as e:
        print(f"[perfbench] build failed: {e}", file=sys.stderr)
        return 2
    deadline = start + (BUILD_LIMIT_S if built else RUN_LIMIT_S)

    if a.selfcheck:
        got = one(cp, sha, ["--selfcheck"], deadline)
        if got is None:
            return 1
        print(json.dumps({"meta": got[0]}))
        print(json.dumps(got[1]))
        return 0

    runs = ([(w, s) for w in ("block-ag", "probe-ag4", "train-ag") for s in (404, 405)]
            if a.all else [(a.workload, a.seed)])
    results = []
    for workload, seed in runs:
        args = ["--workload", workload, "--seed", str(seed), "--seconds", str(a.seconds),
                "--trace", str(0 if a.all else a.trace)]
        got = one(cp, sha, args, deadline if len(runs) == 1 else time.time() + RUN_LIMIT_S)
        if got is None:
            return 1
        print(f"{workload} seed {seed}:")
        summary(*got)
        results.append((workload, seed) + got)

    if len(results) == 1:
        meta, result = results[0][2:]
        print(json.dumps({"meta": meta}))
        print(json.dumps(result))
    else:
        metrics = {}
        for workload, seed, meta, result in results:
            for name, m in {**meta["results"], **result["metrics"]}.items():
                metrics[f"{workload}.seed{seed}.{name}"] = m
        print(json.dumps({"meta": {f"{w}-seed{s}": m for w, s, m, _ in results}}))
        print(json.dumps({
            "correct": all(r["correct"] for *_, r in results),
            "attempted": sum(r["attempted"] for *_, r in results),
            "failed": sum(r["failed"] for *_, r in results),
            "metrics": metrics,
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
