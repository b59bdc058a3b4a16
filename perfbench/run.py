#!/usr/bin/env python3
"""Build the tree and run one benchmark workload.

    python3 perfbench/run.py --workload suite-exec|fuzz-matrix|serve-mixed \
        --seed N --seconds N --trace 0|1

Run it from the root of a checkout.  It builds perfbench.exe and
mi-serve with dune into .bench_build, runs the workload in its own
process, and prints, as the last line of standard output, one JSON
object with the keys correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end ones (setup_s among them: the
median over several set-ups, each in a fresh process); with --trace 1
they are the per-layer metrics of the traced run.  The lines before it
carry the host fingerprint and per-run detail (growth per quarter,
counts).  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

WORKLOADS = ("suite-exec", "fuzz-matrix", "serve-mixed")
BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "src", "perfbench.exe")
MISERVE = os.path.join(BUILD_DIR, "default", "bin", "miserve.exe")
OUT_DIR = ".perfbench_out"
# set-up is measured in this many processes that stop after set-up, plus
# the measured run itself; the median is reported
SETUP_TRIALS = 4
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def die(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
             "./perfbench/src/perfbench.exe", "./bin/miserve.exe"],
            stdout=sys.stderr, stderr=sys.stderr, env=env,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)
    if proc.returncode != 0:
        die("build failed (dune exit %d)" % proc.returncode)


def run_exe(args, timeout):
    """Run perfbench.exe in its own process group (the daemon it starts
    joins it), so that a timeout stops every process it started."""
    t0 = time.time()
    proc = subprocess.Popen([EXE, "--t0", repr(t0)] + args,
                            stdout=subprocess.PIPE, stderr=sys.stderr,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die("workload process timed out")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        die("workload process exited with %d" % proc.returncode)
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        die("workload process printed nothing")
    return json.loads(lines[-1])


def source_digest():
    """Digest of the sources the benchmark builds, standing in for the
    commit when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("lib", "bin", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for f in sorted(filenames):
                if f.endswith((".ml", ".mli", "dune", "dune-project", ".py")):
                    p = os.path.join(dirpath, f)
                    h.update(p.encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def git_commit():
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or \
                os.path.realpath(top.stdout.strip()) != os.path.realpath("."):
            return None
        rev = subprocess.run(["git", "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return rev.stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for needed in ("dune-project", "lib", "bin"):
        if not os.path.exists(needed):
            die("run from the root of a checkout: %s is missing" % needed, 2)
    build()
    os.makedirs(OUT_DIR, exist_ok=True)

    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--miserve", MISERVE,
              "--out", OUT_DIR]
    setups = []
    if args.trace == 0:
        for _ in range(SETUP_TRIALS):
            setups.append(run_exe(common + ["--setup-only"], 60)["setup_s"])
    res = run_exe(common + ["--trace", str(args.trace)], RUN_TIMEOUT_S)
    setups.append(res["setup_s"])

    metrics = dict(res["metrics"])
    if args.trace == 0:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}

    fp = dict(res["fingerprint"])
    fp.update({
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_commit": git_commit(),
        "source_digest": source_digest(),
    })
    print(json.dumps({"fingerprint": fp}))
    print(json.dumps({"detail": res["extra"], "errors": res["errors"],
                      "setup_trials_s": setups}))
    print(json.dumps({
        "correct": bool(res["correct"]),
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
