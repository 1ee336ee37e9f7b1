#!/usr/bin/env python3
"""Build the perfbench binary from source and run one benchmark workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fleet-batch --seed 1 --seconds 20 --trace 0

Every build product, the Go build cache and Go's own config and temp
files stay under .bench_build/ in the checkout. The binary's last line of
output is the JSON result; this script passes its output and exit code
through unchanged.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
SRC = os.path.join(ROOT, "perfbench")


def go_env():
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOPATH", "gopath"),
                     ("GOMODCACHE", "gopath/pkg/mod"), ("GOTMPDIR", "tmp"),
                     ("TMPDIR", "tmp"), ("XDG_CONFIG_HOME", "config")):
        env[key] = os.path.join(BUILD, sub)
        os.makedirs(env[key], exist_ok=True)
    # The module has no dependencies outside the checkout: never look for a
    # newer toolchain or a module proxy.
    env.update(GOTOOLCHAIN="local", GOPROXY="off", GOSUMDB="off",
               GOFLAGS="", GOWORK="off", CGO_ENABLED="0")
    return env


def source_digest():
    """Digest of the Go sources the binary is built from, so a result can
    be tied to its code when the checkout is not a git repository."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    rev = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=30)
            if out.returncode == 0:
                rev = out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return f"{rev}+src.{source_digest()}"


def main():
    if not os.path.isfile(os.path.join(SRC, "go.mod")):
        print("perfbench: run from the root of a checkout", file=sys.stderr)
        return 2
    env = go_env()
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=SRC, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    run = subprocess.run([binary, "-commit", commit()] + sys.argv[1:], env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
