#!/usr/bin/env python3
"""Compare two ftes benchmark result sets (parent vs change).

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR [--benchmark FILE]
    python3 perfbench/compare.py RESULT_DIR

With one directory it summarizes that set instead: per workload and
end-to-end metric, the run count, median, quartiles and the quartile
spread as a share of the median next to the metric's bound.

Each directory holds the result files perfbench/run.py writes
(<workload>-c<catalogue>-s<seed>-t<trace>.json), one per run, made with
the same benchmark code and settings on the parent and on the change.

For every workload and end-to-end metric (untraced runs) it prints each
side's median and quartiles, the pairs (runs with the same catalogue and seed) the change
wins and loses, the change's median as a ratio of the parent's, and a
verdict under BENCHMARK.json's bounds:

  improved    the change wins at least 9 in 10 pairs, and the medians
              differ in its favour by more than the parent's own
              quartile spread;
  worse       the change's median is worse than the parent's by more than
              the metric's bound;
  unresolved  not worse by more than the bound, but the parent's quartile
              spread is wider than the bound and the change does not beat
              every parent run;
  no worse    otherwise.

From the traced runs it prints each per-layer metric's median on both
sides and its change, and each layer's median self time.  It also reports
any problem whose design digest differs between the sides: a change that
claims only speed must not change designs.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory):
    runs = []
    for path in sorted(Path(directory).glob("*.json")):
        try:
            record = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if "result" in record and "workload" in record:
            runs.append(record)
    return runs


def values(runs, workload, trace, metric):
    """{(catalogue, seed): value} of one metric over one side's runs."""
    out = {}
    for r in runs:
        if r["workload"] == workload and r["trace"] == trace:
            m = r["result"]["metrics"].get(metric)
            if m is not None and m["value"] is not None:
                out[(r["catalogue"], r["seed"])] = m["value"]
    return out


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound):
    """Verdict and pair counts for one metric (dicts run key -> value)."""
    p = list(parent.values())
    c = list(change.values())
    p1, pm, p3 = quartiles(p)
    _, cm, _ = quartiles(c)
    sign = 1 if better == "higher" else -1
    wins = losses = 0
    for key in parent.keys() & change.keys():
        d = sign * (change[key] - parent[key])
        wins += d > 0
        losses += d < 0
    pairs = len(parent.keys() & change.keys())
    worse_by = -sign * (cm - pm) / pm if pm else 0.0
    if (pairs and wins >= 0.9 * pairs and sign * (cm - pm) > 0
            and abs(cm - pm) > p3 - p1):
        return "improved", wins, losses, pairs
    if worse_by > bound:
        return "worse", wins, losses, pairs
    beats_all = (min(c) > max(p)) if sign > 0 else (max(c) < min(p))
    if pm and (p3 - p1) / abs(pm) > bound and not beats_all:
        return "unresolved", wins, losses, pairs
    return "no worse", wins, losses, pairs


def fmt(x):
    return f"{x:.6g}"


def end_to_end(parent, change, bench):
    print("== end-to-end (untraced runs)")
    print(f"{'workload':8} {'metric':14} {'parent q1/med/q3':32} "
          f"{'change q1/med/q3':32} {'pairs w-l/n':12} "
          f"{'change/parent':28} verdict")
    worse = False
    for w in bench["workloads"]:
        for m in bench["end_to_end"]:
            pv = values(parent, w["name"], 0, m["name"])
            cv = values(change, w["name"], 0, m["name"])
            if not pv or not cv:
                print(f"{w['name']:8} {m['name']:14} (missing runs)")
                continue
            v, wins, losses, pairs = verdict(pv, cv, m["better"], m["bound"])
            worse = worse or v == "worse"
            pq = quartiles(list(pv.values()))
            cq = quartiles(list(cv.values()))
            ratio = (f"{cq[1] / pq[1]:.4f} of {fmt(pq[1])} {m['unit']}"
                     if pq[1] else "n/a (parent median 0)")
            print(f"{w['name']:8} {m['name']:14} "
                  f"{'/'.join(fmt(x) for x in pq):32} "
                  f"{'/'.join(fmt(x) for x in cq):32} "
                  f"{wins}-{losses}/{pairs:<8} {ratio:28} {v}")
    return worse


def per_layer(parent, change, bench):
    print("\n== per-layer (traced runs): medians")
    for w in bench["workloads"]:
        for m in bench["per_layer"]:
            pv = values(parent, w["name"], 1, m["name"])
            cv = values(change, w["name"], 1, m["name"])
            if not pv or not cv:
                continue
            pm = statistics.median(pv.values())
            cm = statistics.median(cv.values())
            delta = (f"{(cm - pm) / pm:+.1%} of {fmt(pm)}" if pm
                     else "base 0")
            print(f"{w['name']:8} {m['name']:34} {fmt(pm):>12} -> "
                  f"{fmt(cm):<12} {m['unit']:6} {delta} "
                  f"({m['better']} is better)")
    print("\n== per-layer self time (traced runs, median seconds)")
    for w in bench["workloads"]:
        layers = {}
        for side, runs in (("parent", parent), ("change", change)):
            for r in runs:
                if r["workload"] == w["name"] and r["trace"] == 1:
                    for name, t in r.get("layers", {}).items():
                        layers.setdefault(name, {}).setdefault(
                            side, []).append(t["self_s"])
        for name in sorted(layers):
            sides = layers[name]
            if "parent" not in sides or "change" not in sides:
                continue
            pm = statistics.median(sides["parent"])
            cm = statistics.median(sides["change"])
            delta = f"{(cm - pm) / pm:+.1%} of {fmt(pm)} s" if pm else ""
            print(f"{w['name']:8} {name:28} {fmt(pm):>12} -> {fmt(cm):<12}"
                  f" {delta}")


def designs(parent, change):
    """Problems whose digest differs between the sides."""
    def digests(runs):
        out = {}
        for r in runs:
            for p in r.get("problems", []):
                out[(r["workload"], r["catalogue"], p["id"])] = p["digest"]
        return out
    pd, cd = digests(parent), digests(change)
    changed = sorted(k for k in pd.keys() & cd.keys() if pd[k] != cd[k])
    print(f"\n== designs: {len(pd.keys() & cd.keys())} problems on both "
          f"sides, {len(changed)} with another digest")
    for w, c, pid in changed:
        print(f"  {w} catalogue {c} {pid}: {pd[(w, c, pid)]} -> "
              f"{cd[(w, c, pid)]}")
    return bool(changed)


def summary(runs, bench):
    """Steadiness of one result set: returns False when a spread (other
    than setup_s's) exceeds its metric's bound."""
    print(f"{'workload':8} {'metric':14} {'runs':>4} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'(q3-q1)/med':>11} {'bound':>6}")
    steady = True
    for w in bench["workloads"]:
        for m in bench["end_to_end"]:
            vs = list(values(runs, w["name"], 0, m["name"]).values())
            if not vs:
                continue
            q1, med, q3 = quartiles(vs)
            spread = (q3 - q1) / abs(med) if med else 0.0
            if m["name"] != "setup_s" and spread > m["bound"]:
                steady = False
            print(f"{w['name']:8} {m['name']:14} {len(vs):4} {fmt(med):>12} "
                  f"{fmt(q1):>12} {fmt(q3):>12} {spread:11.4f} "
                  f"{m['bound']:6}")
    return steady


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = parser.parse_args()
    bench = json.loads(Path(args.benchmark).read_text())
    if args.change is None:
        runs = load(args.parent)
        if not runs:
            print("compare.py: no result files found", file=sys.stderr)
            return 2
        return 0 if summary(runs, bench) else 1
    parent, change = load(args.parent), load(args.change)
    if not parent or not change:
        print("compare.py: no result files found", file=sys.stderr)
        return 2
    worse = end_to_end(parent, change, bench)
    per_layer(parent, change, bench)
    changed = designs(parent, change)
    return 1 if worse or changed else 0


if __name__ == "__main__":
    sys.exit(main())
