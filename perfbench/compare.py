"""Compare benchmark records of two commits, metric by metric.

    python3 perfbench/compare.py OLD.json NEW.json

Each file holds one record (run.py --record) or a list of them.  Records
are grouped by workload and trace mode; each side's median per metric is
printed with the ratio and, for end-to-end metrics, whether the change is
worse than BENCHMARK.json's bound.  Records made on different arithmetic
backends (gmpy2 against fractions differ by about 10x) are refused.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> list:
    data = json.loads(Path(path).read_text())
    return data if isinstance(data, list) else [data]


def medians(records: list) -> dict:
    values = defaultdict(list)
    for rec in records:
        for name, m in rec["metrics"].items():
            values[(rec["workload"], rec["trace"], name)].append(m["value"])
    return {key: statistics.median(v) for key, v in values.items()}


def main(argv: list) -> int:
    old, new = load(argv[0]), load(argv[1])
    backends = {rec["environment"]["backend"] for rec in old + new}
    if len(backends) != 1:
        print(f"refused: records use different arithmetic backends {sorted(map(str, backends))}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    a, b = medians(old), medians(new)
    worse = 0
    for key in sorted(a.keys() & b.keys()):
        workload, trace, name = key
        ratio = b[key] / a[key] if a[key] else float("nan")
        verdict = ""
        if name in bounds:
            m = bounds[name]
            change = ratio - 1 if m["better"] == "lower" else 1 - ratio
            verdict = "WORSE" if change > m["bound"] else "ok"
            worse += verdict == "WORSE"
        print(f"{workload}\ttrace={trace}\t{name}\t{a[key]:.6g}\t{b[key]:.6g}\t{ratio:.3f}"
              f"\t{verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
