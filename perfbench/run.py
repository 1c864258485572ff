#!/usr/bin/env python3
"""Benchmark of the 2D training and serving stack.

Builds the driver (perfbench/driver.cpp and the repository's libraries) from
source, runs one workload, checks its outputs and prints the result as the
last line of standard output:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. Everything the benchmark writes goes under the build
directory ($CARGO_TARGET_DIR, default .bench_build): the CMake tree, the
driver's full report and trace for each run, and the digests of earlier runs.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
DRIVER_TIMEOUT_S = 170
BUILD_JOBS = min(4, os.cpu_count() or 1)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        with open(os.path.join(REPO, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def parse_args(spec):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = p.parse_args()
    if not 0 <= args.seed < 2**64:
        p.error("--seed must be in [0, 2^64)")
    if not 1 <= args.seconds <= 3600:
        p.error("--seconds must be in [1, 3600]")
    return args


def build(build_dir):
    """Configures and builds the driver; returns its path."""
    cmake_dir = os.path.join(build_dir, "cmake")
    os.makedirs(cmake_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "w") as log:
        steps = [["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                 ["cmake", "--build", cmake_dir, "--target", "perfbench_driver",
                  "-j", str(BUILD_JOBS)]]
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode
            except OSError as e:
                fail(f"cannot run {cmd[0]}: {e}")
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(cmake_dir, "perfbench_driver")


def cmake_cache(cmake_dir):
    values = {}
    with open(os.path.join(cmake_dir, "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.rstrip("\n").split("=", 1)
                values[key.split(":", 1)[0]] = value
    return values


def compile_flags(cmake_dir, target_dir):
    path = os.path.join(cmake_dir, target_dir, "flags.make")
    try:
        with open(path) as f:
            for line in f:
                if line.startswith("CXX_FLAGS"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def source_digest():
    """sha256 over the sources the driver is built from."""
    h = hashlib.sha256()
    tops = [os.path.join(REPO, "CMakeLists.txt"), os.path.join(REPO, "src"), HERE]
    files = []
    for top in tops:
        if os.path.isfile(top):
            files.append(top)
        for root, dirs, names in os.walk(top):
            dirs.sort()
            files += [os.path.join(root, n) for n in sorted(names)
                      if n.endswith((".cpp", ".hpp", ".txt", ".py"))]
    for path in files:
        h.update(os.path.relpath(path, REPO).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def fingerprint(cmake_dir, runtime):
    cache = cmake_cache(cmake_dir)
    compiler = cache.get("CMAKE_CXX_COMPILER", "")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True, text=True,
                                 timeout=30).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        version = None
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), None)
    except OSError:
        pass
    git_sha = None
    if os.path.exists(os.path.join(REPO, ".git")):  # never a repository above the checkout
        try:
            sha = subprocess.run(["git", "-C", REPO, "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=30)
            git_sha = sha.stdout.strip() if sha.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "compiler": version,
        "build_type": cache.get("CMAKE_BUILD_TYPE"),
        "driver_flags": compile_flags(cmake_dir, "CMakeFiles/perfbench_driver.dir"),
        "kernel_flags": compile_flags(cmake_dir,
                                      "optimus/src/kernel/CMakeFiles/optimus_kernel.dir"),
        "OPTIMUS_NATIVE_ARCH": cache.get("OPTIMUS_NATIVE_ARCH"),
        "OPTIMUS_KERNEL_THREADS": runtime.get("OPTIMUS_KERNEL_THREADS"),
        "kernel_threads": runtime.get("kernel_threads"),
        "git_sha": git_sha,
        "source_sha256": source_digest(),
    }


def check_digests(build_dir, key, digests):
    """Digests must repeat across runs of one build with one seed; returns the
    mismatching names."""
    path = os.path.join(build_dir, "digests.json")
    try:
        with open(path) as f:
            known = json.load(f)
    except (OSError, ValueError):
        known = {}
    earlier = known.get(key, {})
    bad = [name for name, d in digests.items() if name in earlier and earlier[name] != d]
    known[key] = {**earlier, **digests}
    with open(path + ".tmp", "w") as f:
        json.dump(known, f, indent=1, sort_keys=True)
    os.replace(path + ".tmp", path)
    return bad


def main():
    spec = load_spec()
    args = parse_args(spec)
    build_dir = os.path.join(REPO, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, "lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        driver = build(build_dir)

        results = os.path.join(build_dir, "results")
        os.makedirs(results, exist_ok=True)
        stem = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}")
        cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", stem + ".json"]
        started = time.monotonic()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=DRIVER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"driver did not finish within {DRIVER_TIMEOUT_S} s")
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            fail(f"driver exited with status {proc.returncode}")
        with open(stem + ".json") as f:
            report = json.load(f)

        cmake_dir = os.path.join(build_dir, "cmake")
        fp = fingerprint(cmake_dir, report["runtime"])
        failures = list(report["failures"])
        key = f"{args.workload}:{args.seed}:{fp['source_sha256']}"
        failures += [f"{name} differs from an earlier run of this build and seed"
                     for name in check_digests(build_dir, key, report["digests"])]

    declared = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    measured = report["metrics"]
    for name, m in measured.items():
        if name not in declared:
            fail(f"driver reports {name}, which BENCHMARK.json does not declare")
        if m["unit"] != declared[name]:
            fail(f"{name}: driver unit {m['unit']} != declared {declared[name]}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics, absent = {}, []
    for m in wanted:
        if m["name"] in measured:
            metrics[m["name"]] = {"value": float(measured[m["name"]]["value"]), "unit": m["unit"]}
        elif args.trace:
            # A layer this workload never calls: its count or time is zero.
            metrics[m["name"]] = {"value": 0.0, "unit": m["unit"]}
            absent.append(m["name"])
        else:
            fail(f"driver did not report end-to-end metric {m['name']}")

    report["fingerprint"] = fp
    report["correct"] = not failures
    report["failures"] = failures
    with open(stem + ".json", "w") as f:
        json.dump(report, f, indent=1)
    print("fingerprint: " + json.dumps(fp, sort_keys=True))
    for failure in failures:
        print(f"check failed: {failure}")
    if absent:
        print(f"not exercised by {args.workload} (reported as 0): {', '.join(absent)}")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']}")
    print(f"driver time {time.monotonic() - started:.1f} s; "
          f"report {os.path.relpath(stem, REPO)}.json")
    print(json.dumps({"correct": not failures, "attempted": int(report["attempted"]),
                      "failed": int(report["failed"]), "metrics": metrics}))


if __name__ == "__main__":
    main()
