#!/usr/bin/env python3
"""Build and run beesim's benchmark harness.

Usage (from the repository root):

    python3 perfbench/run.py --workload upload_10s --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --full
    python3 perfbench/run.py compare before.json after.json

The harness is a Go module of its own (perfbench/go.mod) that imports the
repository's packages through a replace directive. Everything the build
and the runs write stays under .bench_build/ at the repository root: the
Go build cache, the binary, temporary archives and traced-run spans.
The exit code is the harness's; a failed build exits 2.
"""

import os
import subprocess
import sys

WORKLOADS = ["upload_10s", "fleet_mix", "fig5_sweep", "sim_campaign"]


def main(argv):
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build")
    os.makedirs(build, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "-mod=mod",
        "GOWORK": "off",
        "GOPROXY": "off",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    if "--workload" in argv:
        i = argv.index("--workload")
        if i + 1 < len(argv) and argv[i + 1] == "all":
            code = 0
            for w in WORKLOADS:
                args = argv[:i + 1] + [w] + argv[i + 2:]
                code = max(code, subprocess.run([binary] + args, cwd=root, env=env).returncode)
            return code
    return subprocess.run([binary] + argv, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
