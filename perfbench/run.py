#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  It configures and builds the quml library,
quml_serve and the perfbench binary (Release) into .bench_build/, then runs
the binary with one OpenMP thread.  The binary prints its provenance, its
output checks and, as the last line of stdout, one JSON object with the
metrics.  Build output goes to stderr.  The exit code is the binary's: 0 only
when every request succeeded and every output check passed.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
# A run must end within 180 s of wall time once built; leave room to exit.
RUN_TIMEOUT_S = 170


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    return parser.parse_args()


def source_id():
    """The commit when this is a git checkout, else a digest of the sources."""
    if os.path.isdir(".git"):
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    digest = hashlib.sha1()
    paths = ["CMakeLists.txt"]
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            paths.extend(os.path.join(dirpath, name) for name in sorted(filenames))
    for path in paths:
        digest.update(path.encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return "sources-sha1:" + digest.hexdigest()[:16]


def build(env):
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if not os.path.isfile(cache):
        subprocess.run(["cmake", "-S", "perfbench", "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, env=env, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "perfbench", "quml_serve"],
                   stdout=sys.stderr, env=env, check=True)
    return os.path.join(BUILD_DIR, "bin", "perfbench")


def kill_group(proc):
    """SIGKILLs what is left of the binary's process group and waits for it."""
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            return
        proc.poll()  # reap the binary itself, or its zombie keeps the group alive
        time.sleep(0.05)


def main():
    args = parse_args()
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src") and os.path.isdir("tools")):
        print("perfbench: run from the repository root (CMakeLists.txt, src/ and tools/ are "
              "missing here)", file=sys.stderr)
        return 2
    # Compiler and benchmark temporaries stay inside the checkout.
    tmp = os.path.abspath(os.path.join(BUILD_DIR, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp, OMP_NUM_THREADS="1")
    try:
        binary = build(env)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace, "--commit", source_id()]
    # Its own session, so the quml_serve child it forks can be reaped with it.
    proc = subprocess.Popen(command, env=env, start_new_session=True)

    def on_signal(signum, frame):
        kill_group(proc)
        sys.exit(1)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        code = 1
    kill_group(proc)
    return code


if __name__ == "__main__":
    sys.exit(main())
