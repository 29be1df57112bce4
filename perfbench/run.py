#!/usr/bin/env python3
"""Build and run fvcache's benchmark.

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 15 --trace 0

Run from the repository root. Builds the benchmark program and
fvcached from source into .bench_build/ (Go's build cache included, so
nothing is written outside the checkout), runs one workload, and
passes the program's output through: the last line is the result
object. Exits non-zero without a result when anything fails, including
a checkout that lacks the fvcache sources.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.getcwd()
BENCH = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=["serve-hot", "serve-cold"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("run.py: no go.mod at %s; run from the fvcache repository root" % ROOT, file=sys.stderr)
        return 2
    env = dict(os.environ)
    # Everything the go command writes (build and module caches, temp
    # files, its telemetry counters under the config dir) stays in the
    # checkout; no network is needed or used.
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOMODCACHE": os.path.join(BUILD, "gomod"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOENV": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOWORK": "off",
    })
    bindir = os.path.join(BUILD, "bin")
    for d in (env["GOCACHE"], env["GOMODCACHE"], env["GOTMPDIR"], env["XDG_CONFIG_HOME"], bindir):
        os.makedirs(d, exist_ok=True)
    for out, pkg in (("perfbench", "."), ("fvcached", "fvcache/cmd/fvcached")):
        build = subprocess.run(["go", "build", "-o", os.path.join(bindir, out), pkg],
                               cwd=BENCH, env=env, stdout=sys.stderr)
        if build.returncode != 0:
            print("run.py: building %s failed" % out, file=sys.stderr)
            return 1

    workdir = os.path.join(BUILD, "run-%d" % os.getpid())
    # A session of its own lets a timeout stop the servers the
    # benchmark spawned along with it.
    proc = subprocess.Popen([
        os.path.join(bindir, "perfbench"),
        "-workload", args.workload, "-seed", str(args.seed),
        "-seconds", repr(args.seconds), "-trace", str(args.trace),
        "-fvcached", os.path.join(bindir, "fvcached"), "-workdir", workdir,
        "-spans", os.path.join(BUILD, "spans-%s-%d.json" % (args.workload, args.seed)),
    ], cwd=ROOT, env=env, start_new_session=True)
    def stop(*_):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        # The spawned servers are not our children: wait until the
        # group is empty.
        for _ in range(100):
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.1)
        shutil.rmtree(workdir, ignore_errors=True)
        sys.exit(1)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return proc.wait(timeout=160)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark exceeded its time limit", file=sys.stderr)
        stop()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
