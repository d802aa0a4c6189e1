"""Summarise one result set, or compare two, written by ``perfbench/run.py``.

    python3 perfbench/compare.py RESULTS_DIR              # one set: medians and spreads
    python3 perfbench/compare.py BASE_DIR NEW_DIR         # two sets: relative change

One row per workload and metric: median with first and third quartiles
(``statistics.quantiles(values, n=4)``), the relative change of the medians
(positive = better), and the run-to-run spread, (q3 - q1) / median.  An
end-to-end metric is ``unresolved`` when either side's spread is wider than
its bound, unless every new run beats every base run; otherwise it is
``WORSE`` when the new median is worse than the base by more than the bound,
and ``ok`` when not.  Per-layer metrics have no bound and get no verdict.
A gain still needs paired, alternating runs; this table does not claim one.

For seeds present in both sets the output digests and traced counts are
compared too: traced counts must repeat exactly, and output digests must
match wherever the same command ran on both sides.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

COUNT_UNITS = ("count", "bytes")


def load(directory: Path) -> list[dict]:
    return [json.loads(p.read_text(encoding="utf-8")) for p in sorted(directory.glob("*.json"))]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    if med == 0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(med)


def by_metric(results: list[dict]) -> tuple[dict, dict]:
    table = defaultdict(list)
    units = {}
    for r in results:
        workload = r["provenance"]["workload"]
        for name, m in r["metrics"].items():
            table[(workload, r["trace"], name)].append(m["value"])
            units[name] = m["unit"]
    return table, units


def _fmt(x: float) -> str:
    return f"{x:.4g}"


def summarise(base: list[dict], new: list[dict] | None, spec: dict) -> list[str]:
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    better_of = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    base_t, units = by_metric(base)
    new_t, new_units = by_metric(new or [])
    units.update(new_units)
    keys = sorted(set(base_t) | set(new_t))
    lines = []
    head = f"{'workload':12s} {'metric':40s} {'unit':6s} {'base median [q1, q3]':34s}"
    if new is not None:
        head += f" {'new median [q1, q3]':34s} {'change':>8s}"
    head += f" {'spread':>7s} {'bound':>6s}  verdict"
    lines.append(head)
    for key in keys:
        workload, trace, name = key
        if trace == 0 and name not in e2e:
            continue
        b, n = base_t.get(key, []), new_t.get(key, [])
        row = f"{workload:12s} {name:40s} {units.get(name, ''):6s}"
        sides = [b] if new is None else [b, n]
        for values in sides:
            cell = "-"
            if values:
                q1, med, q3 = quartiles(values)
                cell = f"{_fmt(med)} [{_fmt(q1)}, {_fmt(q3)}]"
            row += f" {cell:34s}"
        sp = max(spread(v) for v in sides if v) if any(sides) else 0.0
        verdict = ""
        sign = 1.0 if better_of.get(name) == "higher" else -1.0
        if new is not None and b and n:
            mb, mn = statistics.median(b), statistics.median(n)
            change = sign * (mn - mb) / abs(mb) if mb else 0.0
            row += f" {change:+8.1%}"
            if name in e2e:
                bound = e2e[name]["bound"]
                all_better = min(sign * x for x in n) > max(sign * x for x in b)
                if sp > bound and not all_better:
                    verdict = "unresolved"
                else:
                    verdict = "WORSE" if change < -bound else "ok"
        elif new is not None:
            row += f" {'':>8s}"
        bound_txt = f"{e2e[name]['bound']:.0%}" if name in e2e else "-"
        if new is None and name in e2e and sp > e2e[name]["bound"]:
            verdict = "spread above bound"
        lines.append(f"{row} {sp:7.1%} {bound_txt:>6s}  {verdict}")
    return lines


def determinism(base: list[dict], new: list[dict]) -> list[str]:
    lines = []
    index = defaultdict(list)
    for r in new:
        index[(r["provenance"]["workload"], r["provenance"]["seed"], r["trace"])].append(r)
    for r in base:
        key = (r["provenance"]["workload"], r["provenance"]["seed"], r["trace"])
        for other in index.get(key, []):
            tag = f"{key[0]} seed={key[1]} trace={key[2]}"
            mine = {c["index"]: c["output_sha256"] for c in r["commands"]}
            theirs = {c["index"]: c["output_sha256"] for c in other["commands"]}
            common = sorted(set(mine) & set(theirs))
            differ = [i for i in common if mine[i] != theirs[i]]
            lines.append(f"{tag}: {len(common)} common commands, "
                         f"{'digests identical' if not differ else f'{len(differ)} digests differ (first #{differ[0]})'}")
            if key[2] == 1:
                counts = [k for k, m in r["metrics"].items() if m["unit"] in COUNT_UNITS]
                moved = [k for k in counts if other["metrics"].get(k, {}).get("value") != r["metrics"][k]["value"]]
                lines.append(f"{tag}: {len(counts)} traced counts, "
                             f"{'all identical' if not moved else 'differ: ' + ', '.join(moved)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path, nargs="?")
    parser.add_argument("--spec", type=Path, default=Path(__file__).resolve().parent.parent / "BENCHMARK.json")
    args = parser.parse_args(argv)
    spec = json.loads(args.spec.read_text(encoding="utf-8"))
    base = load(args.base)
    new = load(args.new) if args.new else None
    if not base or (new is not None and not new):
        print("no result files found", file=sys.stderr)
        return 2
    for line in summarise(base, new, spec):
        print(line)
    if new is not None:
        for line in determinism(base, new):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
