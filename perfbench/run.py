#!/usr/bin/env python3
"""Run one decmon benchmark workload and print its result.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The first run configures and builds the
benchmark (perfbench/CMakeLists.txt, which compiles the library from src/)
under $CARGO_TARGET_DIR, default .bench_build. Then it

  * measures set-up time in fresh processes (--trace 0 only): first property
    admission plus construction of the runtime or service, median of
    SETUP_PROBES probes;
  * runs the workload for --seconds of measured time in one fresh process;
  * prints every metric by name with its unit, a provenance line, and as the
    last line one JSON object with the keys correct, attempted, failed and
    metrics (end-to-end metrics with --trace 0, per-layer with --trace 1).

Metric names and units come from BENCHMARK.json. The exit status is 0 only
when every session passed its checks.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 9
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(target), "perfbench")


def build(targets):
    """Configure (once) and build; returns the build directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("decmon sources (src/) not found next to perfbench/")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target"] + targets,
                   check=True, stdout=sys.stderr)
    return out


def source_digest():
    """SHA-256 over the library and benchmark sources (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def last_json_line(text):
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines:
        raise RuntimeError("benchmark program printed nothing")
    return json.loads(lines[-1])


def setup_seconds(binary, workload, seed):
    values = []
    for _ in range(SETUP_PROBES):
        r = subprocess.run([binary, "--workload", workload, "--seed", str(seed),
                            "--setup-probe"],
                           capture_output=True, text=True, timeout=60, check=True)
        values.append(last_json_line(r.stdout)["setup_s"])
    return statistics.median(values)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.self_test:
        out = build(["perfbench_selftest"])
        return subprocess.run([os.path.join(out, "perfbench_selftest")]).returncode
    if not args.workload:
        p.error("--workload is required")

    out = build(["decmon_perfbench"])
    binary = os.path.join(out, "decmon_perfbench")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    setup_s = None
    if not args.trace:
        setup_s = setup_seconds(binary, args.workload, args.seed)
    run = subprocess.run([binary, "--workload", args.workload,
                          "--seed", str(args.seed),
                          "--seconds", str(args.seconds),
                          "--trace", str(args.trace)],
                         capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    sys.stderr.write(run.stderr)
    if run.returncode not in (0, 1):
        raise RuntimeError("benchmark program exited with %d" % run.returncode)
    raw = last_json_line(run.stdout)
    if setup_s is not None:
        raw["metrics"]["setup_s"] = setup_s

    metrics = {}
    for m in wanted:
        if m["name"] not in raw["metrics"]:
            raise RuntimeError("metric %s was not measured" % m["name"])
        metrics[m["name"]] = {"value": raw["metrics"][m["name"]], "unit": m["unit"]}

    provenance = dict(raw["provenance"])
    provenance.update({"git_commit": git_commit(), "source_digest": source_digest(),
                       "run_seconds": args.seconds, "traced": bool(args.trace)})
    attempted, failed = raw["attempted"], raw["failed"]
    print("workload %s, seed %d: %d sessions, %d failed (failed_frac %.6f)"
          % (args.workload, args.seed, attempted, failed,
             failed / attempted if attempted else 1.0))
    for name, m in metrics.items():
        print("  %-45s %16.6g %s" % (name, m["value"], m["unit"]))
    for reason in raw["failures"]:
        log("FAILED " + reason)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({"correct": raw["correct"] and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if run.returncode == 0 and raw["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log("perfbench: %s" % e)
        sys.exit(2)
