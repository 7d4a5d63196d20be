#!/usr/bin/env python3
"""Build and run the pipeline benchmark (perfbench/pipeline.ml).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run from anywhere inside a source checkout: the script builds
perfbench/pipeline.exe from source with dune into .bench_build/, runs one
workload and prints, as its last line, one JSON object with the keys
correct, attempted, failed and metrics. The line before it records the
run's facts: the machine (nproc, recommended domains, OCaml version,
oversubscription), the reference kernel's time and the deterministic
counts.

Deterministic counts (rounds, messages, live-node rounds, completion round,
congestion, and minor words per plain pass) must repeat across passes of
one labeling, which pipeline.exe checks, and across runs of the same source
tree with the same seed, which this script checks against
.bench_build/perfbench/counts.json. Any drift makes the result incorrect.

--self-check builds, runs every workload of pipeline.exe once on tiny hosts
with --trace 0 and --trace 1, and fails unless every pass verifies and
every metric named in BENCHMARK.json is reported, with its unit. A workload
that BENCHMARK.json lists may report no other metric; grid-sharded, which
it leaves out, adds its par.* metrics.
"""

import argparse
import hashlib
import json
import math
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
WORK_DIR = os.path.join(BUILD_DIR, "perfbench")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "pipeline.exe")
RUN_LIMIT_S = 170
BUILD_LIMIT_S = 700


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_child(cmd, timeout, stdout):
    """Run cmd from ROOT in its own process group. On timeout, kill the
    whole group (dune's compilers too) and wait for it; return None."""
    # The compilers' temporary files stay inside the checkout too.
    tmp = os.path.join(ROOT, BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=stdout, text=True,
                          start_new_session=True) as p:
        try:
            out, _ = p.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(p.pid, signal.SIGKILL)
            p.communicate()
            return None
    return p.returncode, out


def build():
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"{need} not found under {ROOT}: run from a full source checkout")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "--display", "quiet", "./perfbench/pipeline.exe"]
    try:
        done = run_child(cmd, BUILD_LIMIT_S, sys.stderr)
    except FileNotFoundError:
        fail("dune not found on PATH")
    if done is None:
        fail("build timed out")
    if done[0] != 0:
        fail(f"build failed with code {done[0]}")
    os.makedirs(os.path.join(ROOT, WORK_DIR), exist_ok=True)


def run_exe(args, timeout):
    cmd = [os.path.join(ROOT, EXE)] + args + ["--dir", WORK_DIR]
    done = run_child(cmd, timeout, subprocess.PIPE)
    if done is None:
        fail("pipeline.exe timed out")
    code, out = done
    lines = out.strip().splitlines()
    if code != 0 or len(lines) < 2:
        fail(f"pipeline.exe exited with code {code}")
    return json.loads(lines[-2])["perfbench"], json.loads(lines[-1])


def source_hash():
    """Hash of everything the benchmark's figures depend on."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "dune-project")]
    for top in ("lib", "perfbench"):
        for d, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(x for x in dirs if not x.startswith((".", "_")))
            paths += [os.path.join(d, f) for f in sorted(files)
                      if f.endswith((".ml", ".mli", "dune", "dune-project"))]
    for p in paths:
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def cross_run_drift(facts, key):
    """Compare this run's counts with an earlier run of the same source
    and seed; record them for the next one. Returns the drifted names."""
    path = os.path.join(ROOT, WORK_DIR, "counts.json")
    try:
        with open(path) as f:
            store = json.load(f)
    except (OSError, ValueError):
        store = {}
    seen = store.get(key, {})
    counts = facts["counts"]
    drift = sorted(k for k in counts if k in seen and seen[k] != counts[k])
    seen.update(counts)
    store[key] = seen
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(store, f, sort_keys=True)
    os.replace(tmp, path)
    return drift


def machine():
    return {"nproc": len(os.sched_getaffinity(0))}


def bench(args):
    build()
    exe_args = ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
    facts, result = run_exe(exe_args, RUN_LIMIT_S)
    facts.update(machine())
    key = f"{source_hash()}:{args.workload}:{args.seed}"
    facts["cross_run_drift"] = cross_run_drift(facts, key)
    for k in facts["cross_run_drift"]:
        print(f"perfbench: count {k} differs from an earlier run of this "
              f"source and seed", file=sys.stderr)
    if facts["cross_run_drift"]:
        result["correct"] = False
    report = os.path.join(ROOT, WORK_DIR,
                          f"{args.workload}-{args.seed}-trace{args.trace}.json")
    with open(report, "w") as f:
        json.dump({"facts": facts, "result": result}, f, indent=1)
    print(json.dumps({"perfbench": facts}))
    print(json.dumps(result))


def self_check():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build()
    listed = {w["name"] for w in spec["workloads"]}
    workloads = subprocess.run([os.path.join(ROOT, EXE), "--list"], check=True,
                               stdout=subprocess.PIPE, text=True).stdout.split()
    problems = [f"workload {w} not in pipeline.exe" for w in sorted(listed - set(workloads))]
    for w in workloads:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            name = f"{w} --trace {trace}"
            facts, result = run_exe(["--workload", w, "--seed", "1",
                                     "--seconds", "1", "--trace", str(trace),
                                     "--quick"], RUN_LIMIT_S)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{name}: result keys {sorted(result)}")
            if not result.get("correct") or result.get("failed") != 0 \
                    or result.get("attempted", 0) < 1:
                problems.append(f"{name}: a pass failed verification")
            metrics = result.get("metrics", {})
            wanted = {m["name"]: m["unit"] for m in spec[group]}
            for m, unit in wanted.items():
                got = metrics.get(m)
                if got is None:
                    problems.append(f"{name}: metric {m} missing")
                elif got.get("unit") != unit or not isinstance(got.get("value"), (int, float)) \
                        or not math.isfinite(got["value"]):
                    problems.append(f"{name}: metric {m} malformed: {got}")
            if w in listed:
                for m in sorted(set(metrics) - set(wanted)):
                    problems.append(f"{name}: metric {m} not in BENCHMARK.json")
            if facts.get("count_drift"):
                problems.append(f"{name}: counts drifted {facts['count_drift']}")
    for p in problems:
        print(f"self-check: {p}", file=sys.stderr)
    print("self-check " + ("failed" if problems else "ok"))
    sys.exit(1 if problems else 0)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-check", action="store_true")
    args = p.parse_args()
    if args.self_check:
        self_check()
    elif args.workload is None:
        p.error("--workload is required")
    else:
        bench(args)


if __name__ == "__main__":
    main()
