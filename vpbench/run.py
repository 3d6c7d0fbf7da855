#!/usr/bin/env python3
"""Build (on first use) and run the repository benchmark.

    python3 vpbench/run.py --workload profile|scale|ingest --seed N \
        --seconds S --trace 0|1
    python3 vpbench/run.py --selftest

Run from the root of a checkout. The build goes to
.bench_build/vpbench (Release; the repository's libraries and vpd are
compiled from ../src and ../tools by vpbench/CMakeLists.txt). The last
line of standard output is the result object; see vpbench/README.md.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build", "vpbench")


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    """Configure and build; the build is incremental after the first."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmds = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmds.append(["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"])
    cmds.append(["cmake", "--build", BUILD, "--target", "vpbench", "vpd",
                 "-j", jobs])
    for cmd in cmds:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            log("build failed: " + " ".join(cmd))
            return False
    return True


def provenance_env():
    """Git sha/dirty when the checkout is a repository, and a digest
    of the sources either way (a checkout need not be a repository)."""
    env = dict(os.environ)
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain"],
                               capture_output=True, text=True, timeout=10)
        if sha.returncode == 0:
            env["VPBENCH_GIT_SHA"] = sha.stdout.strip()
            env["VPBENCH_GIT_DIRTY"] = "1" if dirty.stdout.strip() else "0"
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for sub in ("src", "tools", "vpbench"):
        base = os.path.join(ROOT, sub)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    env["VPBENCH_SOURCE_DIGEST"] = digest.hexdigest()[:16]
    return env


def main(argv):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no repository sources next to vpbench/; run from a checkout")
        return 2
    if not build():
        return 1
    binary = os.path.join(BUILD, "vpbench")
    vpd = os.path.join(BUILD, "vpd")
    proc = subprocess.run([binary] + argv + ["--vpd", vpd],
                          env=provenance_env())
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
