#!/usr/bin/env python3
"""Build the EEL benchmark program from source and run one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload edit --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --selftest

--seconds defaults to run_seconds in BENCHMARK.json. eel-perfbench
(eel_perfbench.cpp) is built with CMake into the directory named
by CARGO_TARGET_DIR (default .bench_build), under the repository root. The
last line of standard output is eel-perfbench's JSON result; the build's output
goes to <build dir>/build.log (and to standard error when the build fails).
Temporary files go to <build dir>/tmp. A traced run (--trace 1) also writes its spans as Chrome
trace-event JSON to <build dir>/traces/.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# edit-stripped-tail is not in BENCHMARK.json: it reproduces a known defect
# (NOTES.md, "Known failure").
WORKLOADS = ["edit", "serve", "edit-stripped-tail"]
# Time a run may take beyond its window: setup, the reference checks and
# the result.
RUN_SLACK_S = 130


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, d, "perfbench")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def child_env():
    """The environment for the build and eel-perfbench: temporary files stay
    inside the build directory."""
    tmp = os.path.join(build_dir(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build():
    """Configures (once) and builds eel-perfbench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no EEL sources under %s/src; run from a full checkout" % ROOT)
    out = build_dir()
    env = child_env()
    log_path = os.path.join(out, "build.log")
    # One build at a time per build directory.
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", out, "--target", "eel-perfbench",
                      "-j", "4"])
        with open(log_path, "w") as log:
            for cmd in steps:
                if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                                   cwd=ROOT, env=env) != 0:
                    with open(log_path) as f:
                        sys.stderr.write(f.read()[-4000:])
                    fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "eel-perfbench")


def source_digest():
    """SHA-256 over the library and benchmark sources (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_rev():
    """The checkout's git revision; "none" outside a git checkout of its own."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        return subprocess.check_output(
            ["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
            stderr=subprocess.DEVNULL, text=True).strip() or "none"
    except (OSError, subprocess.CalledProcessError):
        return "none"


def default_seconds():
    """The window length the benchmark's bounds were set on."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)["run_seconds"]
    except (OSError, ValueError, KeyError) as e:
        fail("no run_seconds in BENCHMARK.json (%s); pass --seconds" % e)


def run(binary, args, timeout):
    """Runs eel-perfbench, passing its output through; returns its exit
    code."""
    proc = subprocess.Popen([binary] + args, cwd=ROOT, env=child_env())
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("eel-perfbench timed out after %d s" % timeout)
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float,
                   help="window length (default: run_seconds in "
                        "BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true",
                   help="check that the oracles count corrupted outputs as "
                        "failures")
    a = p.parse_args()
    if not a.selftest and not a.workload:
        p.error("--workload is required")
    seconds = a.seconds or (None if a.selftest else default_seconds())
    binary = build()
    if a.selftest:
        sys.exit(run(binary, ["--selftest"], RUN_SLACK_S))
    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", repr(seconds), "--trace", str(a.trace),
            "--git-rev", git_rev(), "--source-digest", source_digest()]
    if a.trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        args += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (a.workload, a.seed))]
    sys.stdout.flush()
    sys.exit(run(binary, args, RUN_SLACK_S + seconds))


if __name__ == "__main__":
    main()
