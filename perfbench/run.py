"""fiberbeta benchmark: CLI-level end-to-end metrics and a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        [--record FILE]

Run from a checkout: the package is imported from ./src.  Every document
and argv is generated from the seed before anything is timed.  Each pass
runs in a fresh interpreter (perfbench/child.py), which imports
fiberbeta.cli, runs one warm-up op, then calls fiberbeta.cli.main(argv)
for every op of the workload back to back: one client, one thread, a
closed loop.  A failed op (exit code, exception or wrong output) is
counted and never aborts the pass.

--trace 0 starts passes while the timed pass time stays within S (at
least one pass) and reports the end-to-end metrics: setup_s (spawn until
the import and the warm-up op are done; median over the pass children
and SETUP_SAMPLES extra ones, half before the passes and half after),
wall_s (mean pass time), op_ms.p50 and op_ms.p90 (interpolated
percentiles over the ops, each op's latency being its mean over the
passes) and peak_rss_mb (median ru_maxrss of the pass children).  Means
rather than medians over the passes, because a shared host's speed can
drift by up to 2x over tens of seconds: a mean averages the whole run,
where a median over a few passes jumps with the drift.

--trace 1 runs one pass without and one with spans around fiberbeta's
public functions and reports <module>.<function>.calls and .self_s,
linalg.r.max, linalg.nnz.sum, rationals.out_bits.max and
trace.overhead_s (traced minus untraced pass time).

The last stdout line is the result JSON; the line before it is the full
record: environment stamp, workload properties, sample counts, the error
rate and the first failures.  --record also writes that record to FILE.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
SETUP_SAMPLES = 6
DEADLINE_S = 170


class Runner:
    """One workload's inputs in a scratch directory, its children and its checks."""

    def __init__(self, workload, workdir: Path):
        self.workload = workload
        self.workdir = workdir
        self.deadline = time.monotonic() + DEADLINE_S
        pythonpath = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        self.env = dict(os.environ, PYTHONHASHSEED="0",
                        PYTHONPATH=os.pathsep.join(filter(None, pythonpath)))
        self._count = 0
        meta = {}
        for key, doc in workload.docs.items():
            (workdir / f"{key}.json").write_text(doc["text"])
            if "canonical" in doc:
                (workdir / f"{key}.canonical.json").write_text(doc["canonical"])
            meta[key] = {k: v for k, v in doc.items() if k not in ("text", "canonical")}
        (workdir / "warmup.json").write_text(workloads.warmup_document())
        (workdir / "ops.json").write_text(json.dumps({"ops": workload.ops}))
        self.checker = oracles.Checker(meta, lambda key: (workdir / f"{key}.json").read_text())

    def child(self, mode: str) -> dict:
        """Run child.py once; a pass that does not finish fails all its ops."""
        self._count += 1
        result_path = self.workdir / f"result-{self._count}.json"
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(self.workdir), mode, str(result_path)],
                cwd=self.workdir, env=self.env, capture_output=True, text=True,
                timeout=max(1.0, self.deadline - t_spawn),
            )
            reason = f"child exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
            ok = proc.returncode == 0 and result_path.exists()
        except subprocess.TimeoutExpired:
            ok, reason = False, "child timed out"
        if not ok:
            n = len(self.workload.ops) if mode != "setup" else 0
            return {"failures": {k: [reason] for k in range(n)}, "out_bits": 0}
        result = json.loads(result_path.read_text())
        result["setup_s"] = result["t_ready"] - t_spawn
        if mode != "setup":
            self._check(result)
        return result

    def _check(self, result: dict) -> None:
        failures = {}
        for k, (op, (rc, out)) in enumerate(zip(self.workload.ops, result.pop("outcomes"))):
            errors = self.checker.check(op, rc, out)
            if k in result["relabel_mismatches"]:
                errors.append("output differs from the canonical component order's")
            if errors:
                failures[k] = errors[:5]
            result["out_bits"] = max(result.get("out_bits", 0), oracles.out_bits(out))
        result["failures"] = failures


def _room_for_another(passes: list, seconds: int) -> bool:
    """Would the timed time so far plus one more pass like the last stay within seconds?"""
    walls = [p.get("wall_s", math.inf) for p in passes]
    return sum(walls) + walls[-1] <= seconds


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _distribution(values: list) -> dict:
    return {q: percentile(values, x) for q, x in (("min", 0), ("p50", .5), ("p90", .9), ("max", 1))}


def properties(workload) -> dict:
    """Shares of the ops on a fiber document with each input property, with their base."""
    fiber_ops = [workload.docs[op["doc"]] for op in workload.ops
                 if op["doc"] and "r" in workload.docs[op["doc"]]]
    n = len(fiber_ops)
    out = {"ops": len(workload.ops), "fiber_ops": n}
    if n:
        rs = [d["r"] for d in fiber_ops]
        out.update({
            "reduced_share": sum(d["reduced"] for d in fiber_ops) / n,
            "r_ge_100_share": sum(r >= 100 for r in rs) / n,
            "dense_share": sum(d["dense"] for d in fiber_ops) / n,
            "r": _distribution(rs),
            "nnz": _distribution([d["nnz"] for d in fiber_ops]),
        })
    return out


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fiberbeta").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "loadavg_start": os.getloadavg()}


def layer_metrics(untraced: dict, traced: dict) -> tuple:
    layers = spans.aggregate(traced["spans"])
    metrics = {}
    for name in spans.NAMES:
        metrics[f"{name}.calls"] = (layers[name]["calls"], "count")
        metrics[f"{name}.self_s"] = (layers[name]["self_s"], "s")
    sizes = traced["laplacian_sizes"] or [(0, 0)]
    metrics["linalg.r.max"] = (max(r for r, _ in sizes), "count")
    metrics["linalg.nnz.sum"] = (sum(n for _, n in sizes), "count")
    metrics["rationals.out_bits.max"] = (max(untraced["out_bits"], traced["out_bits"]), "bits")
    metrics["trace.overhead_s"] = (traced["wall_s"] - untraced["wall_s"], "s")
    return metrics, {n: v["max_span_s"] for n, v in layers.items()}


def end_to_end_metrics(timed: list, setup_samples: list) -> dict:
    op_ms = [statistics.fmean(ns) / 1e6 for ns in zip(*(p["op_ns"] for p in timed))]
    # Interpolated, so that with few ops a percentile falls between two of them.
    deciles = statistics.quantiles(op_ms, n=10, method="inclusive")
    p50, p90 = deciles[4], deciles[8]
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (statistics.fmean(p["wall_s"] for p in timed), "s"),
        "op_ms.p50": (p50, "ms"),
        "op_ms.p90": (p90, "ms"),
        "peak_rss_mb": (statistics.median(p["maxrss_kb"] / 1024 for p in timed), "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="also write the full record as JSON here")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fiberbeta" / "cli.py").is_file():
        print(f"error: no fiberbeta sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = environment()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        runner = Runner(workload, workdir)
        runner.child("setup")  # discarded: fills the bytecode caches
        setups = [runner.child("setup") for _ in range(SETUP_SAMPLES // 2)]
        passes = [runner.child("pass")]
        if args.trace:
            passes.append(runner.child("traced"))
        else:
            while _room_for_another(passes, args.seconds):
                passes.append(runner.child("pass"))
        setups += [runner.child("setup") for _ in range(SETUP_SAMPLES - len(setups))]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env["loadavg_end"] = os.getloadavg()
    env["backend"] = next((p["backend"] for p in passes if "backend" in p), None)

    timed = [p for p in passes if "wall_s" in p]
    setup_samples = [r["setup_s"] for r in setups + passes if "setup_s" in r]
    metrics, max_span_s = {}, None
    if args.trace and len(timed) == 2:
        metrics, max_span_s = layer_metrics(*timed)
    elif not args.trace and timed and setup_samples:
        metrics = end_to_end_metrics(timed, setup_samples)

    attempted = len(workload.ops) * len(passes)
    failures = [(i, k, reasons) for i, p in enumerate(passes)
                for k, reasons in p["failures"].items()]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "properties": properties(workload),
        "samples": {"passes": len(timed), "ops": sum(len(p["op_ns"]) for p in timed),
                    "setup": len(setup_samples)},
        "pass_wall_s": [p["wall_s"] for p in timed],
        "error_rate": len(failures) / attempted,
        "out_bits_max": max(p["out_bits"] for p in passes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "max_span_s": max_span_s,
        "failures": [{"pass": i, "op": workload.ops[k].get("argv") or workload.ops[k]["pipeline"],
                      "reasons": reasons} for i, k, reasons in failures[:20]],
    }
    for f in record["failures"]:
        print(f"FAILED {f['op']}: {'; '.join(f['reasons'])}", file=sys.stderr)
    if args.record:
        Path(args.record).write_text(json.dumps(record, indent=1) + "\n")
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": not failures and bool(metrics),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
