#!/usr/bin/env python3
"""Build and run malec's benchmark (perfbench) from the root of a checkout.

    python3 perfbench/run.py --workload sim-exact --seed 1 --seconds 25 --trace 0

Every file the build and the run write stays under .bench_build in the
checkout: the Go build cache, the binary and the benchmark's scratch
directories. The arguments are passed through to the benchmark binary;
its last line of output is the JSON result. Exits non-zero without a
result when the build fails (for example when the malec sources are not
next to this directory) or when the run does not finish in time.
"""

import os
import subprocess
import sys

RUN_TIMEOUT_S = 170  # one run must end well inside three minutes


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "HOME": build,
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "TMPDIR": tmp,
        "GOTMPDIR": tmp,
    })
    binary = os.path.join(build, "perfbench")
    staged = "%s.%d" % (binary, os.getpid())
    built = subprocess.run(["go", "build", "-o", staged, "."], cwd=here, env=env,
                           stdout=sys.stderr, timeout=850)
    if built.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 1
    os.replace(staged, binary)
    try:
        return subprocess.run([binary] + sys.argv[1:], cwd=root, env=env,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %ds\n" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main())
