"""Tests of run.py's contract checks: names, units, caps and results."""

import copy
import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
import run  # noqa: E402

with open(os.path.join(os.path.dirname(os.path.dirname(HERE)),
                       "BENCHMARK.json")) as handle:
    BENCH = json.load(handle)


def metric(name, unit="s", bound=None):
    entry = {"name": name, "unit": unit, "better": "lower"}
    if bound is not None:
        entry["bound"] = bound
    return entry


class ValidateBenchmark(unittest.TestCase):
    def rejects(self, bench):
        with self.assertRaises(run.ContractError):
            run.validate_benchmark(bench)

    def test_committed_file_is_valid(self):
        run.validate_benchmark(BENCH)

    def test_metric_names(self):
        for name in ("_leading", ".leading", "-leading", "has space",
                     "a" * 65, "semi;colon", ""):
            bench = copy.deepcopy(BENCH)
            bench["per_layer"][0]["name"] = name
            self.rejects(bench)
        bench = copy.deepcopy(BENCH)
        bench["per_layer"][0]["name"] = "9ok.name_with-all" + "x" * 47
        run.validate_benchmark(bench)

    def test_names_are_unique_across_sections(self):
        bench = copy.deepcopy(BENCH)
        bench["per_layer"][0]["name"] = bench["end_to_end"][0]["name"]
        self.rejects(bench)
        bench = copy.deepcopy(BENCH)
        bench["per_layer"][1]["name"] = bench["workloads"][0]["name"]
        self.rejects(bench)

    def test_units(self):
        for unit in ("", "a" * 17, "m s", "µs"):
            bench = copy.deepcopy(BENCH)
            bench["per_layer"][0]["unit"] = unit
            self.rejects(bench)

    def test_end_to_end_cap_is_16(self):
        bench = copy.deepcopy(BENCH)
        setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"]
        bench["end_to_end"] = setup + [metric(f"e{i}", bound=0.1)
                                       for i in range(15)]
        run.validate_benchmark(bench)
        bench["end_to_end"].append(metric("e15", bound=0.1))
        self.rejects(bench)

    def test_per_layer_cap_is_128(self):
        bench = copy.deepcopy(BENCH)
        bench["per_layer"] = [metric(f"layer.m{i}") for i in range(128)]
        run.validate_benchmark(bench)
        bench["per_layer"].append(metric("layer.m128"))
        self.rejects(bench)

    def test_bounds_and_setup(self):
        bench = copy.deepcopy(BENCH)
        bench["end_to_end"][0]["bound"] = 0.26
        self.rejects(bench)
        bench = copy.deepcopy(BENCH)
        bench["end_to_end"] = [m for m in bench["end_to_end"]
                               if m["name"] != "setup_s"]
        self.rejects(bench)

    def test_workload_count_and_why(self):
        bench = copy.deepcopy(BENCH)
        bench["workloads"] = bench["workloads"][:1]
        self.rejects(bench)
        bench = copy.deepcopy(BENCH)
        bench["workloads"][0]["why"] = "x" * 201
        self.rejects(bench)


class ValidateResult(unittest.TestCase):
    def result(self, section):
        metrics = {m["name"]: {"value": 1.5, "unit": m["unit"]}
                   for m in BENCH[section]}
        return {"correct": True, "attempted": 3, "failed": 0,
                "metrics": metrics}

    def test_accepts_each_mode(self):
        run.validate_result(json.dumps(self.result("end_to_end")), BENCH, False)
        run.validate_result(json.dumps(self.result("per_layer")), BENCH, True)

    def test_rejects_wrong_metric_set_or_unit(self):
        with self.assertRaises(run.ContractError):
            run.validate_result(json.dumps(self.result("end_to_end")), BENCH,
                                True)
        result = self.result("end_to_end")
        result["metrics"]["setup_s"]["unit"] = "ms"
        with self.assertRaises(run.ContractError):
            run.validate_result(json.dumps(result), BENCH, False)

    def test_rejects_bad_counts(self):
        result = self.result("end_to_end")
        result["attempted"] = 0
        with self.assertRaises(run.ContractError):
            run.validate_result(json.dumps(result), BENCH, False)
        result = self.result("end_to_end")
        result["extra"] = 1
        with self.assertRaises(run.ContractError):
            run.validate_result(json.dumps(result), BENCH, False)


if __name__ == "__main__":
    unittest.main()
