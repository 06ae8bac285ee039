"""Compare two sets of timed benchmark runs, one row per (metric, workload).

    python3 perfbench/compare.py BASE HEAD

BASE and HEAD are each a result file written by `run.py --trace 0` or a
directory of them; the runs on each side are pooled per workload.  The
bounds and directions come from BENCHMARK.json.  Each pair is:

    regression  HEAD's median is worse than BASE's by more than the bound
    unresolved  the run-to-run spread (interquartile distance over the
                median, the wider of the two sides) exceeds the bound, or a
                side has fewer than two runs, so no verdict is possible,
                unless every HEAD run is better than every BASE run
    ok          otherwise

Exits 1 if any pair is a regression, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parent.parent


def load_runs(path: Path) -> dict[str, list[dict]]:
    """Timed-run records under `path`, grouped by workload."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs: dict[str, list[dict]] = {}
    for f in files:
        record = json.loads(f.read_text())
        if record.get("benchmark") == "perfbench" and record.get("trace") == 0:
            runs.setdefault(record["workload"], []).append(record)
    return runs


def judge(base: list[float], head: list[float], better: str, bound: float) -> dict:
    """Change of the median as a share of BASE's, signed so that positive
    is worse, and the status of the pair."""
    sign = 1 if better == "lower" else -1
    base_median, head_median = statistics.median(base), statistics.median(head)
    worse = sign * (head_median - base_median) / base_median
    spreads = [stats.spread(base), stats.spread(head)]
    spread = None if None in spreads else max(spreads)
    if spread is None or spread > bound:
        every_run_better = max(sign * v for v in head) < min(sign * v for v in base)
        status = "ok" if every_run_better else "unresolved"
    elif worse > bound:
        status = "regression"
    else:
        status = "ok"
    return {
        "base": base_median,
        "head": head_median,
        "worse": worse,
        "spread": spread,
        "status": status,
    }


def compare(base_runs, head_runs, metrics: list[dict]) -> list[dict]:
    rows = []
    for workload in sorted(set(base_runs) | set(head_runs)):
        for metric in metrics:
            name = metric["name"]
            base = [r["metrics"][name] for r in base_runs.get(workload, []) if name in r["metrics"]]
            head = [r["metrics"][name] for r in head_runs.get(workload, []) if name in r["metrics"]]
            row = {"workload": workload, "metric": name, "unit": metric["unit"],
                   "bound": metric["bound"], "n": (len(base), len(head))}
            if base and head:
                row.update(judge(base, head, metric["better"], metric["bound"]))
            else:
                row["status"] = "missing"
            rows.append(row)
    return rows


def _cell(row: dict, key: str, fmt: str) -> str:
    value = row.get(key)
    return "-" if value is None else format(value, fmt)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("head", type=Path)
    args = parser.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    rows = compare(load_runs(args.base), load_runs(args.head), metrics)
    header = ["workload", "metric", "unit", "base", "head", "runs", "worse", "spread",
              "bound", "status"]
    table = [
        [r["workload"], r["metric"], r["unit"], _cell(r, "base", ".4g"), _cell(r, "head", ".4g"),
         f"{r['n'][0]}/{r['n'][1]}", _cell(r, "worse", "+.1%"), _cell(r, "spread", ".1%"),
         f"{r['bound']:.0%}", r["status"]]
        for r in rows
    ]
    widths = [max(len(line[i]) for line in [header, *table]) for i in range(len(header))]
    for line in [header, *table]:
        print("  ".join(c.ljust(w) for c, w in zip(line, widths)).rstrip())
    regressions = [r for r in rows if r["status"] == "regression"]
    unresolved = [r for r in rows if r["status"] in ("unresolved", "missing")]
    print(f"{len(regressions)} regressions, {len(unresolved)} unresolved or missing, "
          f"{len(rows)} pairs")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
