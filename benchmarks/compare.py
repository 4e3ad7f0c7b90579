"""Compare two result sets: parent and change, run as alternating pairs.

    python3 benchmarks/compare.py PARENT.jsonl CHANGE.jsonl
    python3 benchmarks/compare.py --run PARENT_CHECKOUT CHANGE_CHECKOUT

Result files hold one record per line as ``run.py`` appends them to
``.bench_work/results.jsonl``; the i-th untraced record of a workload in
one file is paired with the i-th in the other.  ``--run`` makes the
``PAIRS`` pairs itself for every workload: pair i runs this benchmark
code against both checkouts with seed i, the parent first in even pairs
and the change first in odd ones, and writes the records to
``.bench_work/compare-*.jsonl``.

For each workload it prints one verdict (worse if any metric is worse,
else unresolved if any is, else improved if any is, else no worse) and,
per end-to-end metric, each side's median and quartiles, the pair wins and
the metric's verdict:

* improved: the change wins >= 9/10 of pairs and its median beats the
  parent's by more than the parent's interquartile range;
* worse: its median is worse than the parent's by more than the bound;
* unresolved: either side spreads wider than the bound, unless every
  change run beats every parent run;
* no worse: otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
PAIRS = 10


def load(path: Path) -> dict[str, list[dict]]:
    """Untraced results per workload, in file order."""
    out: dict[str, list[dict]] = {}
    for line in path.read_text().splitlines():
        record = json.loads(line)
        if not record["trace"]:
            out.setdefault(record["workload"], []).append(record["result"])
    return out


def spread(values: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple[str, int]:
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    if len(parent) < 2:
        return "unresolved", wins
    pq1, pmed, pq3 = spread(parent)
    cq1, cmed, cq3 = spread(change)
    gain = sign * (cmed - pmed)
    if wins >= 0.9 * len(parent) and gain > pq3 - pq1:
        return "improved", wins
    all_better = (min(change) > max(parent)) if sign > 0 else (max(change) < min(parent))
    if max((pq3 - pq1) / abs(pmed), (cq3 - cq1) / abs(cmed)) > bound and not all_better:
        return "unresolved", wins
    if -gain > bound * abs(pmed):
        return "worse", wins
    return "no worse", wins


def report(parent: dict[str, list[dict]], change: dict[str, list[dict]], spec: dict) -> None:
    for workload in WORKLOADS:
        n = min(len(parent.get(workload, [])), len(change.get(workload, [])))
        if n == 0:
            continue
        p_runs, c_runs = parent[workload][:n], change[workload][:n]
        failed = (sum(r["failed"] for r in p_runs), sum(r["failed"] for r in c_runs))
        rows, verdicts = [], []
        for m in spec["end_to_end"]:
            p = [r["metrics"][m["name"]]["value"] for r in p_runs]
            c = [r["metrics"][m["name"]]["value"] for r in c_runs]
            result, wins = verdict(p, c, m["better"], m["bound"])
            if failed[1] > failed[0] and result == "improved":
                result = "unresolved (more failed jobs)"
            sides = []
            for values in (p, c):
                q1, med, q3 = spread(values) if n > 1 else (values[0],) * 3
                sides.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}]")
            verdicts.append(result)
            rows.append(f"  {m['name']:<14} parent {sides[0]:<30} change {sides[1]:<30} "
                        f"wins {wins}/{n}  bound {m['bound']:.0%}  {result}")
        overall = next((v for v in ("worse", "unresolved", "improved") if any(x.startswith(v) for x in verdicts)),
                       "no worse")
        print(f"{workload}: {overall} ({n} pairs, failed jobs parent {failed[0]} / change {failed[1]})")
        print("\n".join(rows))


def run_pairs(parent: Path, change: Path, seconds: int) -> tuple[Path, Path]:
    out_dir = Path.cwd() / ".bench_work"
    out_dir.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    paths = {side: out_dir / f"compare-{stamp}-{side}.jsonl" for side in ("parent", "change")}
    for seed in range(PAIRS):
        order = [("parent", parent), ("change", change)]
        if seed % 2:
            order.reverse()
        for workload in WORKLOADS:
            for side, root in order:
                cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", "0"]
                proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
                if proc.returncode != 0:
                    raise SystemExit(f"{side} {workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                record = {"workload": workload, "seed": seed, "trace": 0, "result": result}
                with open(paths[side], "a") as f:
                    f.write(json.dumps(record) + "\n")
                print(f"pair {seed} {workload} {side}: wall_s {result['metrics']['wall_s']['value']:.4g}", flush=True)
    return paths["parent"], paths["change"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path, help="parent results file, or checkout with --run")
    parser.add_argument("change", type=Path, help="change results file, or checkout with --run")
    parser.add_argument("--run", action="store_true", help="run the pairs first; arguments are checkouts")
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    if args.run:
        parent, change = run_pairs(args.parent, args.change, spec["run_seconds"])
    else:
        parent, change = args.parent, args.change
    report(load(parent), load(change), spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
