#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

Usage (from the repository root):

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures and builds e2ebench/ (which compiles the repository's sources)
into $CARGO_TARGET_DIR or .bench_build/, runs one workload, and prints the
binary's run-details line (plus the host's git commit and a digest of the
sources) followed, as the last line, by the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Traced runs (--trace 1) also write their spans to
<build dir>/spans-<workload>-<seed>.jsonl. Exits non-zero without a result
line when the build or the run fails.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "e2ebench")


def build(out_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out_dir, ignore_errors=True)
            fail("cmake configure failed")
    built = subprocess.run(["cmake", "--build", out_dir, "--target",
                            "e2ebench", "-j", jobs], stdout=sys.stderr)
    if built.returncode != 0:
        fail("build failed")


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """SHA-1 over the paths and bytes of src/ and e2ebench/ sources."""
    digest = hashlib.sha1()
    for top in ("src", "e2ebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def main(argv):
    args = dict(zip(argv[0::2], argv[1::2]))
    if len(argv) % 2 or not {"--workload", "--seed", "--seconds",
                             "--trace"} <= args.keys():
        fail("usage: run.py --workload <name> --seed <n> --seconds <s> "
             "--trace <0|1>")
    out_dir = build_dir()
    build(out_dir)
    command = [os.path.join(out_dir, "e2ebench")] + argv
    if args["--trace"] != "0":
        command += ["--trace-out", os.path.join(
            os.path.dirname(out_dir),
            "spans-%s-%s.jsonl" % (args["--workload"], args["--seed"]))]
    try:
        run = subprocess.run(command, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")
    sys.stderr.write(run.stderr)
    if run.returncode != 0:
        fail("benchmark exited with code %d" % run.returncode)
    lines = run.stdout.strip().splitlines()
    if len(lines) < 2:
        fail("benchmark printed no result")
    details = json.loads(lines[-2])
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    details["git_commit"] = git_commit()
    details["source_sha1"] = source_digest()
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
