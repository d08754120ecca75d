"""Compare benchmark result files metric by metric and workload by workload.

    python3 perfbench/compare.py base.jsonl               # spread of one set of runs
    python3 perfbench/compare.py base.jsonl new.jsonl     # base against new

A result file holds one JSON record per line, as `run.py --out FILE` appends
them. Records are grouped by (workload, trace) and, within a group, each
metric's values over the runs are summarised by their quartiles
(`statistics.quantiles(values, n=4)`). The spread is (q3 - q1) / median.

With two files, the change is (new median - base median) / base median,
signed so that a positive change is always worse. For an end-to-end metric it
is checked against the metric's bound in BENCHMARK.json. Per-layer metrics
have no bound and are listed for explanation only.
"""

import json
import sys
from pathlib import Path

from inputs import quartiles

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> dict:
    """{(workload, trace): {metric: [values...]}} plus units."""
    groups: dict = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            rec = json.loads(line)
            group = groups.setdefault((rec["workload"], rec["trace"]), {})
            for name, m in rec["metrics"].items():
                group.setdefault(name, []).append(m["value"])
    return groups


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    metric_spec = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base = load(argv[0])
    new = load(argv[1]) if len(argv) == 2 else None
    worse_any = False
    for key in sorted(base):
        workload, trace = key
        print(f"\n{workload} (trace {trace})")
        if new is None:
            print(f"  {'metric':28s} {'n':>3s} {'q1':>12s} {'median':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s}")
        else:
            print(f"  {'metric':28s} {'base median':>12s} {'new median':>12s} {'change':>8s} "
                  f"{'base spr':>8s} {'new spr':>8s} {'bound':>6s}")
        for name, values in base[key].items():
            ms = metric_spec.get(name, {})
            bound = ms.get("bound")
            bound_txt = f"{bound:6.2f}" if bound is not None else "     -"
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else float("nan")
            if new is None:
                print(f"  {name:28s} {len(values):3d} {q1:12.6g} {med:12.6g} {q3:12.6g} {spread:7.3f} {bound_txt}")
                continue
            other = new.get(key, {}).get(name)
            if not other:
                print(f"  {name:28s} {med:12.6g} {'missing':>12s}")
                continue
            n1, nmed, n3 = quartiles(other)
            sign = 1 if ms.get("better") == "lower" else -1
            change = sign * (nmed - med) / med if med else float("nan")
            verdict = ""
            if bound is not None and change > bound:
                verdict = "  WORSE than bound"
                worse_any = True
            nspread = (n3 - n1) / nmed if nmed else float("nan")
            print(f"  {name:28s} {med:12.6g} {nmed:12.6g} {change:+8.3f} {spread:8.3f} {nspread:8.3f} "
                  f"{bound_txt}{verdict}")
    return 1 if worse_any else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
