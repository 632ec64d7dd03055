#!/usr/bin/env python3
"""Tests for the benchmark's own logic: the per-repetition output check, the
compare step and the metric names. Needs no build:

    python3 perfbench/test_perfbench.py
"""

import io
import json
import shutil
import tempfile
import unittest
from pathlib import Path

import compare
import run


def doc(name, metrics):
    return {"schema": "socbench-result-v1", "experiment": name,
            "results": {"tables": [], "metrics": [
                {"name": k, "value": v, "unit": ""} for k, v in metrics.items()]}}


GOOD_HPL = {"GFLOPS at 96 nodes": 98.3, "efficiency at 96 nodes": 51.2,
            "Green500 metric at 96 nodes": 120.5}
GOOD_BIG = {"ranks simulated at 1024 nodes": 2048}


class ArtefactDirs(unittest.TestCase):
    def setUp(self):
        self.tmp = Path(tempfile.mkdtemp())

    def tearDown(self):
        shutil.rmtree(self.tmp)

    def write(self, sub, name, content):
        d = self.tmp / sub
        d.mkdir(exist_ok=True)
        (d / f"{name}.json").write_text(json.dumps(content, indent=1))
        return d


class CheckRepetition(ArtefactDirs):
    EXPERIMENTS = ["fig01", "hpl_green500"]

    def make(self, sub, hpl=GOOD_HPL):
        self.write(sub, "fig01", doc("fig01", {"x": 1.0}))
        return self.write(sub, "hpl_green500", doc("hpl_green500", hpl))

    def test_identical_repetition_passes(self):
        first, out = self.make("first"), self.make("out")
        self.assertEqual(
            run.check_repetition(0, out, self.EXPERIMENTS, first), [])

    def test_flipped_artefact_byte_fails(self):
        first, out = self.make("first"), self.make("out")
        path = out / "fig01.json"
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x01
        path.write_bytes(bytes(data))
        problems = run.check_repetition(0, out, self.EXPERIMENTS, first)
        self.assertIn("fig01.json differs from the first repetition",
                      problems)

    def test_missing_artefact_fails(self):
        first, out = self.make("first"), self.make("out")
        (out / "fig01.json").unlink()
        self.assertTrue(run.check_repetition(0, out, self.EXPERIMENTS, first))

    def test_anchor_out_of_tolerance_fails(self):
        for metric, (want, tol) in run.HPL_ANCHORS.items():
            for value, ok in ((want + tol * 0.99, True),
                              (want - tol * 1.01, False)):
                with self.subTest(metric=metric, value=value):
                    out = self.make(f"out-{metric}-{ok}",
                                    {**GOOD_HPL, metric: value})
                    problems = run.check_repetition(0, out, self.EXPERIMENTS)
                    self.assertEqual(problems == [], ok, problems)

    def test_nonzero_exit_fails(self):
        out = self.make("out")
        self.assertEqual(run.check_repetition(3, out, self.EXPERIMENTS),
                         ["socbench exited with code 3"])

    def test_too_few_bigcluster_ranks_fail(self):
        out = self.write("out", "scale_bigcluster",
                         doc("scale_bigcluster",
                             {"ranks simulated at 1024 nodes": 1024}))
        self.assertTrue(run.check_repetition(0, out, run.BIGCLUSTER))
        out = self.write("ok", "scale_bigcluster",
                         doc("scale_bigcluster", GOOD_BIG))
        self.assertEqual(run.check_repetition(0, out, run.BIGCLUSTER), [])

    def test_shard_artefacts_must_match_one_shard(self):
        s1 = self.write("s1", "scale_bigcluster",
                        doc("scale_bigcluster", GOOD_BIG))
        s2 = self.write("s2", "scale_bigcluster",
                        doc("scale_bigcluster", {**GOOD_BIG, "extra": 1}))
        self.assertEqual(
            run.check_repetition(0, s2, run.BIGCLUSTER, s2, s1),
            ["scale_bigcluster.json differs from bigcluster_s1"])
        self.assertEqual(run.check_repetition(0, s1, run.BIGCLUSTER, s1, s1),
                         [])


def record(workload, values, failed=0, nproc=4):
    return {"host": {"nproc": nproc, "cpu_model": "cpu", "compiler": "GNU 12",
                     "build_type": "RelWithDebInfo", "git_rev": "r",
                     "workload": workload, "seed": 1},
            "trace": 0,
            "result": {"correct": not failed, "attempted": 5, "failed": failed,
                       "metrics": {k: {"value": v, "unit": "s"}
                                   for k, v in values.items()}}}


class Compare(unittest.TestCase):
    SPEC = {"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower",
                            "bound": 0.1}]}
    BASE = [1.00, 1.01, 0.99, 1.02, 0.98]

    def run_compare(self, scale, **kw):
        base = [record("w", {"wall_s": v}) for v in self.BASE]
        new = [record("w", {"wall_s": v * scale}, **kw) for v in self.BASE]
        out = io.StringIO()
        return compare.compare(base, new, self.SPEC, out), out.getvalue()

    def test_in_bound_change_passes(self):
        flagged, text = self.run_compare(1.05)
        self.assertEqual(flagged, 0, text)
        self.assertIn("sets agree", text)

    def test_out_of_bound_regression_is_flagged(self):
        flagged, text = self.run_compare(1.2)
        self.assertEqual(flagged, 1)
        self.assertIn("WORSE", text)

    def test_out_of_bound_gain_is_flagged(self):
        flagged, text = self.run_compare(0.8)
        self.assertEqual(flagged, 1)
        self.assertIn("BETTER", text)

    def test_failed_operations_are_flagged(self):
        flagged, _ = self.run_compare(1.0, failed=1)
        self.assertEqual(flagged, 1)

    def test_different_host_blocks_are_not_compared(self):
        base = [record("w", {"wall_s": 1.0})]
        new = [record("w", {"wall_s": 1.0}, nproc=8)]
        with self.assertRaises(ValueError):
            compare.compare(base, new, self.SPEC, io.StringIO())


class MetricNames(unittest.TestCase):
    def test_names_are_well_formed_and_unique(self):
        spec = run.benchmark_spec()
        names = [m["name"] for key in ("end_to_end", "per_layer")
                 for m in spec[key]] + [w["name"] for w in spec["workloads"]]
        for name in names:
            self.assertRegex(name, r"^[A-Za-z0-9_.-]+$")
        self.assertEqual(len(names), len(set(names)))

    def test_workloads_match_run_py(self):
        spec = run.benchmark_spec()
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))

    def test_probe_reports_every_per_layer_metric(self):
        # Names the probe binary builds from a prefix, and the one run.py
        # adds, are checked by prefix; all others appear literally.
        source = (Path(run.__file__).parent / "probe.cpp").read_text()
        for m in run.benchmark_spec()["per_layer"]:
            name = m["name"]
            if name.startswith("core.exp_s."):
                self.assertIn(f'"{name.split(".", 2)[2]}"', source)
            elif name != "trace.overhead_pct":
                self.assertIn(f'"{name}"', source, name)


class ChildEnvironment(unittest.TestCase):
    def test_children_run_without_tibsim_variables(self):
        self.assertFalse([k for k in run.CHILD_ENV if k.startswith("TIBSIM_")])
        self.assertIn("PATH", run.CHILD_ENV)


if __name__ == "__main__":
    unittest.main()
