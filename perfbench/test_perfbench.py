"""Self-tests of the benchmark: planted wrong expectations must be caught.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def planted_workload(seed: int):
    """Five ops as generated, then the same five with one wrong expectation each."""
    wl = workloads.sweep_small(seed)
    evaluate = next(op for op in wl.ops if op["oracle"]["name"] == "evaluate")
    audit = next(op for op in workloads.audit_suites(seed).ops if op["argv"][-1] == "x1n")
    vii = next(k for k, d in wl.docs.items() if d.get("kind") == "VII")
    fermat = next(k for k, d in wl.docs.items() if d["family"] == "fermat" and not d["reduced"])
    banana, other_banana = [k for k in wl.docs if k.startswith("banana")][:2]
    wl.ops = []
    wl.compute(vii, "beta", {"name": "dense", "table1": {"kind": "VII",
                                                         "params": wl.docs[vii]["params"]}})
    wl.compute(fermat, "beta", workloads.oracle_for(wl.docs[fermat]), divisor=True)
    wl.compute(banana, "udiv", {"name": "dense"})
    clean = wl.ops + [evaluate, audit]

    planted = copy.deepcopy(clean)
    planted[0]["oracle"]["table1"]["params"][0] += 1
    planted[1]["oracle"]["r"] += 1
    planted[2]["doc"] = other_banana  # expected values of another banana
    prime = next(iter(planted[3]["oracle"]["terms"]))
    planted[3]["oracle"]["terms"][prime] += "1"
    planted[4]["oracle"]["sha256"] = "0" * 64
    wl.ops = clean + planted
    return wl, len(clean)


class PlantedDefects(unittest.TestCase):
    def test_each_planted_expectation_counts_as_failed(self):
        wl, n_clean = planted_workload(5)
        workloads.WORKLOADS["planted"] = lambda seed: wl
        try:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                run.main(["--workload", "planted", "--seed", "5", "--seconds", "1"])
        finally:
            del workloads.WORKLOADS["planted"]
        record_line, result_line = out.getvalue().splitlines()[-2:]
        result = json.loads(result_line)
        record = json.loads(record_line[len("record "):])
        self.assertFalse(result["correct"])
        self.assertGreater(record["error_rate"], 0)
        failed_ops = {json.dumps(f["op"]) for f in record["failures"]}
        passes = record["samples"]["passes"]
        self.assertEqual(result["failed"], passes * (len(wl.ops) - n_clean), record["failures"])
        for op in wl.ops[n_clean:]:
            self.assertIn(json.dumps(op["argv"]), failed_ops)


class Spans(unittest.TestCase):
    def test_wrappers_reach_every_binding_site_and_come_off(self):
        import fiberbeta.cli

        original = fiberbeta.linalg.pseudoinverse
        tracer = spans.Tracer()
        tracer.install()
        try:
            self.assertIsNot(fiberbeta.cli.pseudoinverse, original)
            self.assertIsNot(sys.modules["fiberbeta.audit"].pseudoinverse, original)
            with contextlib.redirect_stdout(io.StringIO()):
                sys.modules["fiberbeta.cli"].main(["catalog", "emit", "fermat", "--params", "7,1"])
        finally:
            tracer.uninstall()
        self.assertIs(fiberbeta.cli.pseudoinverse, original)
        layers = spans.aggregate(tracer.spans)
        self.assertEqual(layers["cli.main"]["calls"], 1)
        self.assertEqual(layers["catalog.fermat_fiber"]["calls"], 1)
        self.assertEqual(layers["linalg.pseudoinverse"]["calls"], 1)
        self.assertEqual(tracer.laplacian_sizes, [(13, 13 + 2 * 22)])
        total = sum(v["self_s"] for v in layers.values())
        self.assertAlmostEqual(total, layers["cli.main"]["max_span_s"], places=6)


if __name__ == "__main__":
    unittest.main()
