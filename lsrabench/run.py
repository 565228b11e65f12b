#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 lsrabench/run.py --workload corpus-cold|code-cold|fuzz-grid|serve-mix
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. The first run configures and builds the
library, the `lsra` CLI and the `lsrabench` program with CMake under
$CARGO_TARGET_DIR (default .bench_build); later runs only rebuild what
changed. Build output goes to stderr, so the last line of stdout is the
JSON result. With --trace 1 that result holds every per-layer metric that
BENCHMARK.json lists, in its order; a layer the workload does not exercise
reads 0. The exit code is the program's: nonzero when the build fails or
any output check fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def source_id():
    """The git commit when the checkout is a repository, else a digest of
    the sources the benchmark builds."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "tools", "lsrabench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "source-sha256:" + h.hexdigest()[:16]


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("lsrabench: no src/ next to lsrabench/; run from a full checkout",
              file=sys.stderr)
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "lsrabench", "lsra-tool"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("lsrabench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def complete_layers(result):
    """Gives `result` every per-layer metric BENCHMARK.json lists, in its
    order, and returns the names the workload did not report (set to 0).
    BENCHMARK.json is the one list of layer metrics: a reported metric it
    does not list, or lists with another unit, is an error."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        listed = [(m["name"], m["unit"]) for m in json.load(f)["per_layer"]]
    units = dict(listed)
    got = result["metrics"]
    for name, m in got.items():
        if units.get(name) != m["unit"]:
            raise ValueError("per-layer metric %s (%s) is not listed in "
                             "BENCHMARK.json" % (name, m["unit"]))
    result["metrics"] = {n: got.get(n, {"value": 0, "unit": u})
                         for n, u in listed}
    return [n for n, _ in listed if n not in got]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", default="1",
                    help="workload seed (default 1; confirm claims on 20261016)")
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "lsrabench")
    if not build(build_dir):
        return 1
    work_dir = os.path.relpath(build_dir)
    cmd = [os.path.join(build_dir, "lsrabench"),
           "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace,
           "--lsra", os.path.join(build_dir, "lsra"),
           "--workdir", work_dir, "--commit", source_id()]
    sys.stdout.flush()
    if args.trace == "0":
        return subprocess.run(cmd).returncode
    run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        return run.returncode or 1
    print("\n".join(lines[:-1]))
    try:
        result = json.loads(lines[-1])
        missing = complete_layers(result)
    except (OSError, ValueError, KeyError) as e:
        print("lsrabench: %s" % e, file=sys.stderr)
        return 1
    if missing:
        print("  not exercised by this workload, reported as 0: " +
              ", ".join(missing))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
