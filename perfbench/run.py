#!/usr/bin/env python3
"""Build the benchmark from source and run it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The benchmark is a package of its own
(perfbench/Cargo.toml) that builds the repository's crates through path
dependencies; build output goes to $CARGO_TARGET_DIR (default
.bench_build) and run artifacts to .bench_out. Everything the build
prints goes to standard error; the benchmark's own output, whose last
line is one JSON object, goes to standard output.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCES = ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench/Cargo.toml", "perfbench/src"]


def commit():
    """The checked-out commit, or "unknown" unless ROOT is a git work tree's top."""
    def git(*args):
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else None
    try:
        top = git("rev-parse", "--show-toplevel")
        if top is None or os.path.realpath(top) != os.path.realpath(ROOT):
            return "unknown"
        return git("rev-parse", "HEAD") or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def source_digest():
    """SHA-256 over the sources the benchmark builds, path by path."""
    h = hashlib.sha256()
    for rel in SOURCES:
        top = os.path.join(ROOT, rel)
        files = [top] if os.path.isfile(top) else []
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            files += [os.path.join(dirpath, f) for f in sorted(filenames)]
        for path in files:
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def main():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(ROOT, target, "release", "hsp-perfbench")
    args = [binary, *sys.argv[1:],
            "--out-dir", os.path.join(ROOT, ".bench_out"),
            "--commit", commit(), "--source-digest", source_digest()]
    return subprocess.run(args, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
