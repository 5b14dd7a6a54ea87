#!/usr/bin/env python3
"""Builds and runs the dsjoin benchmark for one workload.

    python3 perfbench/run.py --workload tcp-rr --seed 42 --seconds 30 --trace 0

Builds perfbench/ (the dsjoin libraries from src/ plus the dsjoin_perfbench
program) in Release mode under $CARGO_TARGET_DIR (default .bench_build),
runs the program, checks its result against BENCHMARK.json and prints it:
a human-readable table, then as the last line one JSON object
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics of a traced run.

Exits non-zero without printing a result when the sources are missing,
the build fails, the program fails or its result breaks the contract.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROGRAM_TIMEOUT_S = 170

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH_RE = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
LIMITS = {"workloads": (2, 8), "end_to_end": (1, 16), "per_layer": (1, 128)}
MAX_BOUND = 0.25


class ContractError(Exception):
    pass


def validate_benchmark(bench):
    """Raises ContractError unless `bench` is a valid BENCHMARK.json."""
    expected = {"command", "paths", "run_seconds", "workloads", "end_to_end",
                "per_layer"}
    if set(bench) != expected:
        raise ContractError(f"keys must be exactly {sorted(expected)}")
    command = bench["command"]
    if (not isinstance(command, list) or not 1 <= len(command) <= 32 or
            any(not isinstance(a, str) or len(a) > 200 for a in command)):
        raise ContractError("command must be 1 to 32 strings of <= 200 chars")
    paths = bench["paths"]
    if not isinstance(paths, list) or not 1 <= len(paths) <= 16:
        raise ContractError("paths must list 1 to 16 directories")
    for path in paths:
        if (not isinstance(path, str) or not PATH_RE.match(path) or
                path.startswith("/") or ".." in path.split("/")):
            raise ContractError(f"bad path {path!r}")
    seconds = bench["run_seconds"]
    if not isinstance(seconds, int) or isinstance(seconds, bool) or \
            not 1 <= seconds <= 60:
        raise ContractError("run_seconds must be a whole number in [1, 60]")

    names = set()
    for section, (low, high) in LIMITS.items():
        entries = bench[section]
        if not isinstance(entries, list) or not low <= len(entries) <= high:
            raise ContractError(f"{section} must have {low} to {high} entries")
        for entry in entries:
            keys = {"name", "why"} if section == "workloads" else \
                {"name", "unit", "better", "bound"} if section == "end_to_end" \
                else {"name", "unit", "better"}
            if not isinstance(entry, dict) or set(entry) != keys:
                raise ContractError(f"{section} entries need keys {sorted(keys)}")
            name = entry["name"]
            if not isinstance(name, str) or not NAME_RE.match(name):
                raise ContractError(f"bad name {name!r}")
            if name in names:
                raise ContractError(f"name {name!r} used twice")
            names.add(name)
            if section == "workloads":
                why = entry["why"]
                if not isinstance(why, str) or not why or len(why) > 200 or \
                        "\n" in why:
                    raise ContractError(f"{name}: why must be one line <= 200")
                continue
            if not isinstance(entry["unit"], str) or \
                    not UNIT_RE.match(entry["unit"]):
                raise ContractError(f"{name}: bad unit {entry['unit']!r}")
            if entry["better"] not in ("higher", "lower"):
                raise ContractError(f"{name}: better must be higher or lower")
            if section == "end_to_end":
                bound = entry["bound"]
                if isinstance(bound, bool) or \
                        not isinstance(bound, (int, float)) or \
                        not 0 < bound <= MAX_BOUND:
                    raise ContractError(f"{name}: bound must be in (0, 0.25]")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        raise ContractError("end_to_end needs setup_s in s, better lower")


def validate_result(line, bench, trace):
    """Parses the program's result line; raises ContractError if it breaks
    the contract for this mode."""
    try:
        result = json.loads(line)
    except ValueError as error:
        raise ContractError(f"result is not JSON: {error}") from None
    if not isinstance(result, dict) or \
            set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ContractError("result keys must be correct/attempted/failed/metrics")
    if not isinstance(result["correct"], bool):
        raise ContractError("correct must be a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            raise ContractError(f"{key} must be a whole number")
    if result["attempted"] < 1 or not 0 <= result["failed"] <= result["attempted"]:
        raise ContractError("need attempted >= 1 and 0 <= failed <= attempted")
    declared = bench["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in declared}:
        raise ContractError("metric names differ from BENCHMARK.json")
    for metric in declared:
        entry = metrics[metric["name"]]
        if set(entry) != {"value", "unit"} or entry["unit"] != metric["unit"]:
            raise ContractError(f"{metric['name']}: needs value and unit "
                                f"{metric['unit']}")
        value = entry["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ContractError(f"{metric['name']}: value must be a number")
    return result


def build(build_dir):
    """Configures and builds dsjoin_perfbench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise ContractError(f"dsjoin sources not found under {ROOT}/src")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "dsjoin_perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "dsjoin_perfbench")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            bench = json.load(handle)
        validate_benchmark(bench)
        if args.workload not in {w["name"] for w in bench["workloads"]}:
            raise ContractError(f"unknown workload {args.workload!r}")
        if args.seed < 0:
            raise ContractError("--seed must be >= 0")
        seconds = bench["run_seconds"] if args.seconds is None else args.seconds
        if not 1 <= seconds <= 60:
            raise ContractError("--seconds must be in [1, 60]")
        target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
        build_dir = os.path.join(ROOT, target, "perfbench")
        program = build(build_dir)
        completed = subprocess.run(
            [program, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=PROGRAM_TIMEOUT_S)
        if completed.returncode != 0:
            raise ContractError(f"dsjoin_perfbench exited with {completed.returncode}")
        lines = completed.stdout.rstrip("\n").split("\n")
        validate_result(lines[-1], bench, args.trace == 1)
    except (ContractError, OSError, ValueError,
            subprocess.CalledProcessError, subprocess.TimeoutExpired) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
