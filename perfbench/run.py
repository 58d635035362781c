#!/usr/bin/env python3
"""Builds and runs the wall-clock serving benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload chat_short --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --compare base.log head.log

The first form configures and builds perfbench/ (and through it the
repository's libraries) under .bench_build/ at the root of the checkout, then
runs the benchmark binary; its last stdout line is the JSON result. The
second runs every workload in turn. The third compares the saved stdout of
two runs and refuses when their host meta differs.
"""
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench_serving"
# Meta fields that identify the host and build; results are only comparable
# when these match exactly and the read ceilings agree within this share.
META_KEYS = ("nproc", "pool_threads", "llc_bytes", "isa", "build_type")
CEILING_TOLERANCE = 0.25
WORKLOADS = ("chat_short", "offline_wide", "shared_prefix")


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit("perfbench: the repository sources are not next to perfbench/")
    env = dict(os.environ, TMPDIR=str(BUILD / "tmp"))
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD)],
                       check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", "4"],
                   check=True, stdout=sys.stderr, env=env)


def load(path):
    meta, result = None, None
    for line in pathlib.Path(path).read_text().splitlines():
        if line.startswith("meta "):
            meta = json.loads(line[len("meta "):])
        elif line.startswith("{"):
            result = json.loads(line)
    if meta is None or result is None:
        sys.exit(f"perfbench: {path} holds no meta line or no result")
    return meta, result


def compare(base_path, head_path):
    (m0, r0), (m1, r1) = load(base_path), load(head_path)
    for key in META_KEYS:
        if m0.get(key) != m1.get(key):
            sys.exit(f"perfbench: refusing to compare, meta '{key}' differs: "
                     f"{m0.get(key)!r} vs {m1.get(key)!r}")
    c0, c1 = m0["host.read_gbps"], m1["host.read_gbps"]
    if abs(c1 - c0) > CEILING_TOLERANCE * c0:
        sys.exit(f"perfbench: refusing to compare, read ceilings differ: "
                 f"{c0:.1f} vs {c1:.1f} GB/s")
    for name, base in r0["metrics"].items():
        head = r1["metrics"].get(name)
        if head is None:
            continue
        ratio = head["value"] / base["value"] if base["value"] else float("nan")
        print(f"{name:36s} {base['value']:14.4f} {head['value']:14.4f} "
              f"{base['unit']:8s} x{ratio:.3f}")


def main(argv):
    if argv[:1] == ["--compare"]:
        if len(argv) != 3:
            sys.exit("usage: run.py --compare BASE.log HEAD.log")
        compare(argv[1], argv[2])
        return 0
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"perfbench: build failed: {e}")
    args = list(argv)
    if "--workload" in args:
        i = args.index("--workload") + 1
        if args[i:i + 1] == ["all"]:
            codes = [run(args[:i] + [w] + args[i + 1:]) for w in WORKLOADS]
            return next((c for c in codes if c != 0), 0)
    return run(args)


def run(args):
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]:
        traces = ROOT / ".bench_build" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        tag = "-".join(args[i + 1] for i, a in enumerate(args[:-1])
                       if a in ("--workload", "--seed"))
        args = args + ["--trace-file", str(traces / f"{tag}.trace.json")]
    return subprocess.run([str(BINARY)] + args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
