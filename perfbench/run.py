#!/usr/bin/env python3
"""Build and run the hlsav benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree. The first run configures and builds
the library, hlsavd and the benchmark (Release) into $CARGO_TARGET_DIR
or .bench_build; later runs only check the build. Each run gets a fresh
scratch directory under the build directory (its JIT cache, daemon work
dir, spool and socket), which is removed afterwards; a traced run's
Chrome trace is kept as trace-WORKLOAD.json in the build directory. The
benchmark's own self-test runs before every measurement.

The last line of standard output is the result JSON. --workload all runs
every workload in turn and ends with a table of the end-to-end metrics,
one row per workload.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["stream_chain", "compute_apps", "campaign", "service"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def scratch_env(tmp):
    """The environment for child processes, with the host compiler's
    temporary files kept inside the tree."""
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build(root, build_dir):
    bench_dir = os.path.join(root, "perfbench")
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(root, needed)):
            log(f"{needed} not found next to perfbench/: the benchmark builds the library from source")
            return False
    env = scratch_env(os.path.join(build_dir, "tmp"))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", bench_dir, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench", "perfbench_selftest", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr, env=env).returncode == 0


def run_one(build_dir, workload, seed, seconds, trace, capture):
    # Relative to the build directory, the benchmark's working directory,
    # so the daemon's unix socket path stays short wherever the tree is.
    rel_dir = os.path.join("runs", f"{workload}-s{seed}-t{trace}-p{os.getpid()}")
    run_dir = os.path.join(build_dir, rel_dir)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    cmd = [os.path.join(build_dir, "perfbench"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--dir", rel_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE if capture else None, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=build_dir,
                              env=scratch_env(os.path.join(run_dir, "tmp")))
        rc, out = proc.returncode, proc.stdout or ""
    except subprocess.TimeoutExpired:
        log(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
        rc, out = 1, ""
    trace_json = os.path.join(run_dir, "trace.json")
    if os.path.isfile(trace_json):
        shutil.copyfile(trace_json, os.path.join(build_dir, f"trace-{workload}.json"))
    shutil.rmtree(run_dir, ignore_errors=True)
    return rc, out


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(root, ".bench_build"))
    if not build(root, build_dir):
        log("build failed")
        return 1
    if subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                      stdout=sys.stderr).returncode != 0:
        log("self-test failed")
        return 1

    if args.workload != "all":
        rc, _ = run_one(build_dir, args.workload, args.seed, args.seconds, args.trace,
                        capture=False)
        return rc

    rows, worst = {}, 0
    for w in WORKLOADS:
        rc, out = run_one(build_dir, w, args.seed, args.seconds, args.trace, capture=True)
        sys.stdout.write(out)
        worst = max(worst, rc)
        lines = out.strip().splitlines()
        rows[w] = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    names = []
    for r in rows.values():
        for name, m in (r or {}).get("metrics", {}).items():
            if (name, m["unit"]) not in names:
                names.append((name, m["unit"]))
    print("\n" + "workload".ljust(14) + "".join(f"{n} ({u})".rjust(30) for n, u in names)
          + "  attempted  failed")
    for w, r in rows.items():
        if r is None:
            print(w.ljust(14) + "  no result")
            continue
        cells = "".join(f"{r['metrics'][n]['value']:.6g}".rjust(30) for n, _ in names)
        print(w.ljust(14) + cells + f"  {r['attempted']:9d}  {r['failed']:6d}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
