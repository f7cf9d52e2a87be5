#!/usr/bin/env python3
"""The repository benchmark: build, run one workload, check it, report.

Run from the root of a checkout:

  python3 perfbench/run.py --workload hs_pq --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --workload all --seed 1     # every workload
  python3 perfbench/run.py --selftest                  # statistics self-tests

The first run configures and builds perfbench/ (which compiles the pqtls
library from src/) into .bench_build/. Each run writes its full result,
with provenance, to .bench_out/ and prints, as its last line, one JSON
object with the keys correct, attempted, failed and metrics. --trace 1
runs the traced layer sweep instead of the timed workload and also writes
the span file to .bench_out/. The exit code is 0 only when every output
check passed.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170  # one run must end within 180 s


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configure once, then (re)build; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no src/CMakeLists.txt next to perfbench/; run from a "
            "full checkout of the repository")
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build step failed: " + " ".join(cmd))
            return False
    return True


def source_digest():
    """sha256 over src/ and perfbench/ sources: identifies the code measured
    even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_info():
    model, flags = platform.processor() or "unknown", set()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                key = key.strip()
                if key == "model name":
                    model = value.strip()
                elif key == "flags" and not flags:
                    flags = set(value.split())
    except OSError:
        pass
    return model, {flag: flag in flags for flag in ("avx2", "aes", "sha_ni")}


def provenance(raw, workload, args):
    model, flags = cpu_info()
    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "cpu_model": model,
        "cpu_flags": flags,
        "nproc": os.cpu_count(),
        "backend": raw.get("backend"),
        "build_type": raw.get("build_type"),
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_workload(workload, args, spec):
    """Run one workload; returns (the result printed last, exit code)."""
    binary = os.path.join(BUILD_DIR, "perfbench")
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (workload, args.seed, args.trace)
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data", os.path.join(BENCH_DIR, "reference"),
           "--spans", os.path.join(OUT_DIR, "spans-" + stem + ".jsonl")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: %s did not finish within %d s" % (workload,
                                                           RUN_TIMEOUT_S))
        return None, 1
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        raw = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("perfbench: %s printed no result (exit %d)" % (workload,
                                                           proc.returncode))
        return None, 1

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = raw["metrics"]
    checks = list(raw["check_failures"])
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    extra = sorted(set(metrics) - {m["name"] for m in wanted})
    if missing or extra:
        checks.append("metrics out of step with BENCHMARK.json: missing %s, "
                      "extra %s" % (missing, extra))
    for m in wanted:
        got = metrics.get(m["name"])
        if got and got["unit"] != m["unit"]:
            checks.append("%s: unit %s, BENCHMARK.json says %s"
                          % (m["name"], got["unit"], m["unit"]))
    correct = raw["correct"] and not checks and proc.returncode == 0
    result = {
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {m["name"]: metrics[m["name"]] for m in wanted
                    if m["name"] in metrics},
    }
    spread = raw.get("spread", {})
    record = dict(result, provenance=provenance(raw, workload, args),
                  spread=spread, check_failures=checks)
    with open(os.path.join(OUT_DIR, stem + ".json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    print("== %s (seed %d, trace %d): %s, %d attempted, %d failed"
          % (workload, args.seed, args.trace,
             "correct" if correct else "INCORRECT", raw["attempted"],
             raw["failed"]))
    for name, value in result["metrics"].items():
        q = spread.get(name)
        within = ("   (quartiles %.6g-%.6g of %d)" % (q["q1"], q["q3"], q["n"])
                  if q else "")
        print("  %-40s %16.6g %s%s" % (name, value["value"], value["unit"],
                                        within))
    for check in checks:
        print("  check failed: " + check)
    print("provenance: " + json.dumps(record["provenance"], sort_keys=True))
    return result, 0 if correct else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    try:
        spec = load_spec()
    except (OSError, ValueError) as e:
        log("perfbench: cannot read BENCHMARK.json: %s" % e)
        return 2
    if not build():
        return 2
    if args.selftest:
        return subprocess.run([os.path.join(BUILD_DIR, "perfbench_selftest")]
                              ).returncode
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        workloads = names
    elif args.workload in names:
        workloads = [args.workload]
    else:
        parser.error("--workload must be one of %s or all" % names)

    results, code = {}, 0
    for workload in workloads:
        result, rc = run_workload(workload, args, spec)
        if result is None:
            return rc
        results[workload] = result
        code = code or rc
    if len(workloads) == 1:
        final = results[workloads[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s/%s" % (w, name): value
                        for w, r in results.items()
                        for name, value in r["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
