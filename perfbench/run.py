#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload uts|spmd|spmd_socket --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --selftest     # the benchmark's own tests

Run from the root of a checkout. The benchmark binary is built from source
into .bench_build/perfbench on first use (about a minute on 4 cores); spans of
traced runs go to .bench_out/. The last line of standard output is the JSON
result; the exit code is nonzero when any unit fails verification, a metric
cannot be computed, or the build fails.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("uts", "spmd", "spmd_socket")
RUN_TIMEOUT_S = 175


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "runtime", "runtime.h")):
        fail("runtime sources not found under %s/src; run from a full checkout"
             % ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cfg = subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            fail("cmake configure failed")
    made = subprocess.run(
        ["cmake", "--build", BUILD, "-j", jobs, "--target", target],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if made.returncode != 0:
        sys.stderr.write(made.stdout[-8000:])
        fail("build of %s failed" % target)
    return os.path.join(BUILD, target)


def source_id():
    """The commit when the checkout is a git work tree, else a hash of the
    sources the benchmark builds (runtime and benchmark)."""
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12",
                              "HEAD"], capture_output=True, text=True,
                             timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha1()
    for top in (os.path.join(ROOT, "src"), HERE):
        for d, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            for f in sorted(files):
                if f.endswith((".h", ".cc", ".txt", ".py")):
                    p = os.path.join(d, f)
                    h.update(os.path.relpath(p, ROOT).encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return "src-" + h.hexdigest()[:12]


def run_group(cmd, timeout):
    """Runs cmd in its own process group (the socket workload forks place
    processes) and kills the whole group on timeout. Returns (code, stdout)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("benchmark exceeded %d s" % timeout)
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    leaked = sorted(k for k in os.environ if k.startswith("APGAS_"))
    if leaked:
        fail("refusing to run with %s set: the benchmark builds its "
             "configuration in code" % ", ".join(leaked))

    if args.selftest:
        tests = build("perfbench_tests")
        code, out = run_group([tests], RUN_TIMEOUT_S)
        sys.stdout.write(out)
        sys.exit(code)

    if args.workload is None:
        fail("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    binary = build("perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--commit", source_id()]
    if args.trace:
        os.makedirs(OUT, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            OUT, "spans.%s.seed%d.jsonl" % (args.workload, args.seed))]
    code, out = run_group(cmd, RUN_TIMEOUT_S)
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(out)
        fail("benchmark printed no result line (exit %d)" % code)
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))
    sys.exit(code)


if __name__ == "__main__":
    main()
