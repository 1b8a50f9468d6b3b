#!/usr/bin/env python3
"""Build the perfbench harness from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The harness is built with
`cargo build --release --offline` (into $CARGO_TARGET_DIR, or
perfbench/target when unset). Build output and the harness's standard error
go to files under .perfbench/ so that panic messages from the daemon's
`catch_unwind` backstop stay out of the report; the harness's standard
output, whose last line is the JSON result, passes through unchanged. The
exit code is the harness's, or the build's when the build fails.
"""

import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(os.getcwd(), ".perfbench")


def arg(name, default):
    argv = sys.argv[1:]
    return argv[argv.index(name) + 1] if name in argv[:-1] else default


def main():
    os.makedirs(OUT, exist_ok=True)
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    env["CARGO_TARGET_DIR"] = target
    manifest = os.path.join(HERE, "Cargo.toml")
    with open(os.path.join(OUT, "build.log"), "w") as log:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--manifest-path", manifest],
            stdout=log,
            stderr=subprocess.STDOUT,
            env=env,
        )
    if build.returncode != 0:
        print(f"perfbench: build failed, see {OUT}/build.log", file=sys.stderr)
        return build.returncode

    stem = "{}-seed{}-trace{}".format(
        arg("--workload", "none"), arg("--seed", "none"), arg("--trace", "0")
    )
    stem = re.sub(r"[^A-Za-z0-9_.-]", "_", stem)
    with open(os.path.join(OUT, stem + ".stderr"), "w") as err:
        bench = subprocess.run(
            [os.path.join(target, "release", "perfbench"), *sys.argv[1:], "--out", OUT],
            stderr=err,
            env=env,
        )
    return bench.returncode


if __name__ == "__main__":
    sys.exit(main())
