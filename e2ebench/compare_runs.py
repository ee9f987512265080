#!/usr/bin/env python3
"""Summarises and compares sets of e2e_bench outputs.

    python3 e2ebench/compare_runs.py spread DIR
    python3 e2ebench/compare_runs.py compare PARENT_DIR CHANGE_DIR
    python3 e2ebench/compare_runs.py summary DIR > e2ebench/baselines/e2e.json
    python3 e2ebench/compare_runs.py --self-test

A DIR holds captured stdout of benchmark runs (sweep.py writes them):
the first line names the workload, the last line is the JSON result.

spread    per workload and end-to-end metric: median, quartiles and the
          quartile spread as a share of the median, against the bound in
          BENCHMARK.json (the acceptance test for a benchmark change);
          also checks every run reports exactly the declared metrics.
compare   per workload and metric: both sides' median and quartiles, and
          a verdict. "regressed": the change's median is worse than the
          parent's by more than the bound. "unresolved": either side's
          spread exceeds the bound, unless every change run beats every
          parent run. "improved": the medians differ by more than the
          parent's quartile spread in the better direction (a hint; a
          claimed gain also needs the paired-runs rule).
summary   median, p10, p90 and n of every metric, as JSON.
"""

import json
import os
import re
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
HEADER = re.compile(r"^# workload=(\S+) seed=(\d+) .*trace=(\d)")


def load_runs(directory):
    """{(workload, trace): [{"correct":..., "metrics": {...}}, ...]}"""
    runs = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".out"):
            continue
        with open(os.path.join(directory, name)) as f:
            lines = [l for l in f.read().splitlines() if l.strip()]
        head = next((HEADER.match(l) for l in lines if HEADER.match(l)), None)
        if head is None or not lines[-1].startswith("{"):
            print("skipping %s: no result" % name, file=sys.stderr)
            continue
        result = json.loads(lines[-1])
        runs.setdefault((head.group(1), int(head.group(3))), []).append(result)
    return runs


def values(results, metric):
    return [r["metrics"][metric]["value"] for r in results
            if metric in r["metrics"]]


def quartiles(vals):
    if len(vals) < 2:
        v = vals[0] if vals else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3


def spread(vals):
    q1, med, q3 = quartiles(vals)
    return (q3 - q1) / abs(med) if med else 0.0


def worse_share(parent_med, change_med, better):
    """How much worse the change is, as a share of the parent (>0 worse)."""
    if parent_med == 0:
        return 0.0
    delta = (change_med - parent_med) / abs(parent_med)
    return delta if better == "lower" else -delta


def verdict(parent, change, better, bound):
    pm, cm = quartiles(parent)[1], quartiles(change)[1]
    worse = worse_share(pm, cm, better)
    if max(spread(parent), spread(change)) > bound:
        beats = (max(change) < min(parent)) if better == "lower" else (
            min(change) > max(parent))
        return "improved" if beats else "unresolved"
    if worse > bound:
        return "REGRESSED"
    if -worse > spread(parent):
        return "improved"
    return "same"


def bench_spec():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return json.load(f)


def fmt(v):
    return "%.4g" % v


def cmd_spread(directory):
    spec = bench_spec()
    runs = load_runs(directory)
    bad = 0
    print("%-14s %-18s %3s %10s %10s %10s %7s %7s  %s" % (
        "workload", "metric", "n", "q1", "median", "q3", "spread", "bound",
        "verdict"))
    for w in spec["workloads"]:
        results = runs.get((w["name"], 0), [])
        for m in spec["end_to_end"]:
            vals = values(results, m["name"])
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            s = spread(vals)
            if m["name"] == "setup_s":
                ok = "n/a (median gate only)"
            elif s <= m["bound"] / 3:
                ok = "ok"
            elif s <= m["bound"]:
                ok = "ok, above bound/3"
            else:
                ok = "TOO NOISY"
                bad += 1
            print("%-14s %-18s %3d %10s %10s %10s %6.1f%% %6.0f%%  %s" % (
                w["name"], m["name"], len(vals), fmt(q1), fmt(med), fmt(q3),
                100 * s, 100 * m["bound"], ok))
        failed = [r for r in results if not r["correct"]]
        if failed:
            print("%-14s %d of %d runs reported correct=false" % (
                w["name"], len(failed), len(results)))
            bad += 1
    bad += check_names(spec, runs)
    return 1 if bad else 0


def check_names(spec, runs):
    """Every run must report exactly the declared metrics and units."""
    bad = 0
    for (workload, trace), results in sorted(runs.items()):
        declared = {m["name"]: m["unit"]
                    for m in spec["per_layer" if trace else "end_to_end"]}
        for r in results:
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            if got != declared:
                print("%s trace=%d: metrics differ from BENCHMARK.json: "
                      "missing %s, extra or wrong unit %s" % (
                          workload, trace, sorted(set(declared) - set(got)),
                          sorted(k for k in got if declared.get(k) != got[k])))
                bad += 1
                break
    return bad


def cmd_compare(parent_dir, change_dir):
    spec = bench_spec()
    parent, change = load_runs(parent_dir), load_runs(change_dir)
    regressed = 0
    print("%-14s %-18s %-34s %-34s %8s %6s  %s" % (
        "workload", "metric", "parent median [q1, q3]",
        "change median [q1, q3]", "worse", "bound", "verdict"))
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            p = values(parent.get((w["name"], 0), []), m["name"])
            c = values(change.get((w["name"], 0), []), m["name"])
            if not p or not c:
                continue
            pq, cq = quartiles(p), quartiles(c)
            v = verdict(p, c, m["better"], m["bound"])
            regressed += v == "REGRESSED"
            print("%-14s %-18s %-34s %-34s %7.1f%% %5.0f%%  %s" % (
                w["name"], m["name"],
                "%s [%s, %s]" % (fmt(pq[1]), fmt(pq[0]), fmt(pq[2])),
                "%s [%s, %s]" % (fmt(cq[1]), fmt(cq[0]), fmt(cq[2])),
                100 * worse_share(pq[1], cq[1], m["better"]),
                100 * m["bound"], v))
    return 1 if regressed else 0


def cmd_summary(directory):
    runs = load_runs(directory)
    out = {}
    for (workload, trace), results in sorted(runs.items()):
        section = out.setdefault(workload, {})
        names = sorted({k for r in results for k in r["metrics"]})
        for name in names:
            vals = values(results, name)
            deciles = (statistics.quantiles(vals, n=10) if len(vals) > 1
                       else [vals[0]] * 9)
            section[name] = {
                "median": statistics.median(vals), "p10": deciles[0],
                "p90": deciles[-1], "n": len(vals),
                "unit": results[0]["metrics"][name]["unit"],
                "trace": trace}
    print(json.dumps(out, indent=1, sort_keys=True))
    return 0


def self_test():
    lower, higher = "lower", "higher"
    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
    cases = [
        # (parent, change, better, bound, expected)
        (base, base, lower, 0.05, "same"),
        (base, [v * 1.2 for v in base], lower, 0.05, "REGRESSED"),
        (base, [v * 1.2 for v in base], higher, 0.05, "improved"),
        (base, [v * 0.8 for v in base], higher, 0.05, "REGRESSED"),
        (base, [v * 1.03 for v in base], lower, 0.05, "same"),
        (base, [v * 1.03 for v in base], higher, 0.05, "improved"),
        # Spread wider than the bound: unresolved unless every change
        # run beats every parent run.
        ([50.0, 150.0, 80.0, 120.0, 100.0], [51.0, 149.0, 79.0, 121.0, 100.0],
         lower, 0.05, "unresolved"),
        ([50.0, 150.0, 80.0, 120.0, 100.0], [10.0, 12.0, 11.0, 13.0, 9.0],
         lower, 0.05, "improved"),
    ]
    failures = 0
    for i, (p, c, better, bound, want) in enumerate(cases):
        got = verdict(p, c, better, bound)
        if got != want:
            print("case %d: got %s, want %s" % (i, got, want))
            failures += 1
    if abs(spread(base) - (quartiles(base)[2] - quartiles(base)[0]) / 100.0) > 1e-3:
        print("spread is not the quartile distance over the median")
        failures += 1
    print("compare_runs self-test: %d/%d ok" % (len(cases) - failures, len(cases)))
    return 1 if failures else 0


def main(argv):
    if argv[1:] == ["--self-test"]:
        return self_test()
    if len(argv) == 3 and argv[1] == "spread":
        return cmd_spread(argv[2])
    if len(argv) == 4 and argv[1] == "compare":
        return cmd_compare(argv[2], argv[3])
    if len(argv) == 3 and argv[1] == "summary":
        return cmd_summary(argv[2])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
