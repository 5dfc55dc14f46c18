#!/usr/bin/env python3
"""Build the benchmark from the checkout and run one workload.

    python3 perfbench/run.py --workload paper-suite --seed 1 --seconds 20 --trace 0

Every build artefact, Go cache and temporary file stays under
.bench_build/ at the checkout root. The benchmark binary prints a
fingerprint line, detail lines and, last, the result object; this script
forwards them and exits with the binary's status.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def go_env():
    env = dict(os.environ)
    for key, sub in (
        ("GOCACHE", "gocache"),
        ("GOMODCACHE", "gomodcache"),
        ("GOPATH", "gopath"),
        ("XDG_CONFIG_HOME", "config"),
        ("XDG_CACHE_HOME", "cache"),
        ("TMPDIR", "tmp"),
    ):
        path = os.path.join(BUILD, sub)
        os.makedirs(path, exist_ok=True)
        env[key] = path
    env["GOTOOLCHAIN"] = "local"
    env["GOPROXY"] = "off"
    env["GOFLAGS"] = "-mod=readonly"
    env["GOENV"] = "off"
    env["CGO_ENABLED"] = "0"
    return env


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    env = go_env()
    binary = os.path.join(BUILD, "perfbench")
    try:
        build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                               timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print("run.py: build failed: %s" % err, file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1
    env["BENCH_COMMIT"] = commit()
    proc = subprocess.Popen([binary, "-root", ROOT] + sys.argv[1:], cwd=ROOT, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("run.py: benchmark exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
