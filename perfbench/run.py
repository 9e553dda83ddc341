#!/usr/bin/env python3
"""End-to-end replicated block I/O benchmark: build, run once, report.

Run from the repository root:

    python3 perfbench/run.py --workload voting3-rw --seed 1 --seconds 15 --trace 0

It builds perfbench/ (and with it the library under src/) in Release mode
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
measurement of one workload, and prints the result as one JSON object on the
last line of standard output. --trace 0 reports the end-to-end metrics,
--trace 1 the per-layer split. The line before it is the context stamp. The
exit code is non-zero when the run was not correct or nothing could be
built. Each run's record goes to .bench_build/results/. See README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("voting3-rw", "ac3-read1c", "voting5-range64k")
BUILD_TYPE = "Release"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
RAM_FILESYSTEMS = ("tmpfs", "ramfs")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_bounded(cmd, timeout, **kwargs):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, None
    return proc.returncode, out


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", build_dir, "--target", "e2e_device",
                  "-j", jobs])
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "w") as log:
        for step in steps:
            code, _ = run_bounded(step, BUILD_TIMEOUT_S, stdout=log,
                                  stderr=subprocess.STDOUT)
            if code != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail(f"build step failed: {' '.join(step)}")
    return os.path.join(build_dir, "e2e_device")


def fs_type(path):
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    with open("/proc/self/mounts") as mounts:
        for line in mounts:
            fields = line.split()
            if len(fields) < 3:
                continue
            point = fields[1].replace("\\040", " ")
            inside = path == point or path.startswith(point.rstrip("/") + "/")
            if inside and len(point) >= len(best):
                best, kind = point, fields[2]
    return kind


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0 and head.stdout.strip():
            dirty = subprocess.run(
                ["git", "status", "--porcelain", "--", "src", "perfbench"],
                cwd=ROOT, capture_output=True, text=True, timeout=10)
            return "git:" + head.stdout.strip() + (
                "+dirty" if dirty.stdout.strip() else "")
    except (OSError, subprocess.TimeoutExpired):
        pass
    files = []
    for base in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames[:] = [d for d in dirnames if d != "__pycache__"]
            files += [os.path.join(dirpath, name) for name in filenames]
    digest = hashlib.sha256()
    for path in sorted(files):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return "sha256:" + digest.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-mismatch", action="store_true",
                        help="self-test: one read expects a wrong stamp, so "
                             "the run must fail")
    args = parser.parse_args()

    work = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(os.path.join(work, "perfbench"))
    results = os.path.join(work, "results")
    os.makedirs(results, exist_ok=True)
    # The stores always live in the checkout, wherever the build goes, so
    # they sit on the checkout's filesystem rather than a RAM-backed one.
    store_dir = os.path.join(ROOT, ".bench_build", f"stores-{os.getpid()}")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dir", store_dir]
    if args.trace:
        cmd += ["--spans", os.path.join(results, f"spans-{args.workload}.tsv")]
    if args.inject_mismatch:
        cmd.append("--inject-mismatch")
    try:
        os.makedirs(store_dir, exist_ok=True)
        context = {
            "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu_model(),
            "kernel": platform.release(),
            "store_fs": fs_type(store_dir),
            "source": source_id(),
        }
        if context["store_fs"] in RAM_FILESYSTEMS:
            print(f"perfbench: warning: the stores are on {context['store_fs']}"
                  ", so FileBlockStore I/O never reaches a device",
                  file=sys.stderr)
        code, out = run_bounded(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                                text=True)
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)
    if code is None:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")

    result = None
    as_measured = None
    for line in out.splitlines():
        if line.startswith("context "):
            context.update(json.loads(line[len("context "):]))
        elif line.startswith("as_measured "):
            as_measured = json.loads(line[len("as_measured "):])
            print(line)
        elif line.startswith("{"):
            result = json.loads(line)
        else:
            print(line)
    if result is None:
        fail(f"benchmark printed no result (exit code {code})")
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "context": context, "result": result,
              "as_measured": as_measured}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(results, tag + ".json"), "w") as f:
        json.dump(record, f, indent=2)
    print("context " + json.dumps(context, sort_keys=True))
    print(json.dumps(result), flush=True)
    return 0 if code == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
