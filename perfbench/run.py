#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of the repository. The build output goes to
$CARGO_TARGET_DIR (default: perfbench/target). `--trace 0` runs the
end-to-end binary; `--trace 1` runs the traced binary, which also writes
<workload>.trace.jsonl and <workload>.folded under <target>/perfbench-traces.
The `--trace` flag only chooses the binary and is not passed on.
Cargo's own output goes to standard error, so the benchmark's report is
all that reaches standard output; its last line is the JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def flag(argv, name, default):
    if name in argv:
        i = argv.index(name)
        if i + 1 < len(argv):
            return argv[i + 1]
    return default


def main():
    argv = sys.argv[1:]
    trace = flag(argv, "--trace", "0")
    if trace not in ("0", "1"):
        print("perfbench: --trace takes 0 or 1, got %r" % trace, file=sys.stderr)
        return 2
    if "--trace" in argv:
        i = argv.index("--trace")
        del argv[i : i + 2]
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    if trace == "1":
        binary = "perfbench_traced"
        argv += ["--trace-dir", os.path.join(target, "perfbench-traces")]
    else:
        binary = "perfbench"
    return subprocess.run([os.path.join(target, "release", binary)] + argv).returncode


if __name__ == "__main__":
    sys.exit(main())
