#!/usr/bin/env python3
"""Compare two benchmark result files, base (the parent commit) and new.

    python3 benchmark/run.py --runs 10 --json base.json    # on the parent
    python3 benchmark/run.py --runs 10 --json new.json     # on the change
    python3 benchmark/compare.py base.json new.json
    python3 benchmark/compare.py --self-test

Runs are paired by (workload, seed). For every end-to-end metric of
BENCHMARK.json and every workload it prints one row:

  improved      at least 10 pairs, the new run wins at least 9 of every 10
                pairs (ties count for neither), and the medians differ by
                more than the base runs' interquartile range;
  regressed     the new median is worse than the base median by more than
                the metric's bound;
  unresolved    the base runs' own spread is wider than the bound, so no
                "no regression" claim can be made, unless every new run
                reads better than every base run;
  within bound  otherwise.

A failed_frac row per workload compares failed / attempted samples; any
increase is a regression. Exit status is 1 when any row regressed, and 2
without a comparison when the two files were run with different run
lengths or modes (provenance seconds, trace, quick).
"""
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_PAIRS = 10
MIN_WIN_SHARE = 0.9
RUN_SETTINGS = ("seconds", "trace", "quick")


def mismatched(base, new):
    """Run settings the two result files differ in."""
    pb, pn = base.get("provenance", {}), new.get("provenance", {})
    return [k for k in RUN_SETTINGS if pb.get(k) != pn.get(k)]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(base, new, better, bound):
    """Classify paired samples base[i] <-> new[i] of one metric."""
    sign = 1.0 if better == "higher" else -1.0
    med_b, med_n = statistics.median(base), statistics.median(new)
    q1, q3 = quartiles(base)
    wins = sum(1 for b, n in zip(base, new) if sign * (n - b) > 0)
    gain = sign * (med_n - med_b)
    if len(base) >= MIN_PAIRS and wins >= MIN_WIN_SHARE * len(base) and gain > q3 - q1:
        return "improved"
    if (q3 - q1) > bound * abs(med_b):
        all_better = all(sign * (n - b) > 0 for n in new for b in base)
        return "within bound" if all_better else "unresolved"
    if -gain > bound * abs(med_b):
        return "regressed"
    return "within bound"


def pair_runs(base, new):
    """{workload: [(base_run, new_run), ...]} matched on seed."""
    index = {(r["workload"], r["seed"]): r for r in new["runs"]}
    pairs = {}
    for r in base["runs"]:
        other = index.get((r["workload"], r["seed"]))
        if other is not None:
            pairs.setdefault(r["workload"], []).append((r, other))
    return pairs


def compare(base, new, metrics):
    """Rows (metric, workload, n, base_median, new_median, verdict)."""
    rows = []
    for workload, pairs in sorted(pair_runs(base, new).items()):
        for m in metrics:
            usable = [(b, n) for b, n in pairs if m["name"] in b["metrics"]
                      and m["name"] in n["metrics"]]
            if not usable:
                continue
            bv = [b["metrics"][m["name"]] for b, _ in usable]
            nv = [n["metrics"][m["name"]] for _, n in usable]
            rows.append((m["name"], workload, len(usable), statistics.median(bv),
                         statistics.median(nv), verdict(bv, nv, m["better"], m["bound"])))
        frac = lambda side: (sum(p[side]["failed"] for p in pairs)
                             / max(1, sum(p[side]["attempted"] for p in pairs)))
        fb, fn = frac(0), frac(1)
        rows.append(("failed_frac", workload, len(pairs), fb, fn,
                     "regressed" if fn > fb else "within bound"))
    return rows


def print_rows(rows):
    print("%-16s %-20s %4s %14s %14s  %s" % ("metric", "workload", "n", "base", "new",
                                            "verdict"))
    for name, workload, n, b, v, what in rows:
        print("%-16s %-20s %4d %14.6g %14.6g  %s" % (name, workload, n, b, v, what))


def self_test():
    metrics = [{"name": "rate", "better": "higher", "bound": 0.05},
               {"name": "setup", "better": "lower", "bound": 0.10}]

    def result(values, key="rate", failed=0):
        return {"runs": [{"workload": "w", "seed": s, "attempted": 100, "failed": failed,
                          "metrics": {key: v}} for s, v in enumerate(values)]}

    steady = [100.0 + 0.1 * (i % 5) for i in range(10)]
    cases = [
        (steady, [v * 1.10 for v in steady], "improved"),
        (steady, [v * 0.99 for v in steady], "within bound"),
        (steady, [v * 0.90 for v in steady], "regressed"),
        # Nine of ten pairs won is enough; eight is not.
        (steady, [v * 1.10 for v in steady[:9]] + [steady[9] - 1], "improved"),
        (steady, [v * 1.10 for v in steady[:8]] + [v - 1 for v in steady[8:]], "within bound"),
        # Fewer than ten pairs never claims a gain.
        (steady[:9], [v * 1.10 for v in steady[:9]], "within bound"),
        # Base spread (about 40%) wider than the 5% bound.
        ([80.0, 120.0] * 5, [100.0] * 10, "unresolved"),
        ([80.0, 120.0] * 5, [200.0] * 10, "improved"),
    ]
    failures = 0
    for base, new, want in cases:
        got = compare(result(base), result(new), metrics[:1])[0][5]
        if got != want:
            failures += 1
            print("FAIL rate %s -> %s: got %s, want %s" % (base[:3], new[:3], got, want))
    # Lower-is-better metrics flip the direction.
    got = compare(result(steady, "setup"), result([v * 1.2 for v in steady], "setup"),
                  metrics[1:])[0][5]
    if got != "regressed":
        failures += 1
        print("FAIL setup +20%%: got %s, want regressed" % got)
    got = compare(result(steady), result(steady, failed=1), metrics[:1])[1][5]
    if got != "regressed":
        failures += 1
        print("FAIL failed_frac increase: got %s, want regressed" % got)
    # Runs of different lengths are not compared.
    prov = {"seconds": 12, "trace": 0, "quick": False}
    got = mismatched({"provenance": prov}, {"provenance": dict(prov, seconds=20)})
    if got != ["seconds"] or mismatched({"provenance": prov}, {"provenance": dict(prov)}):
        failures += 1
        print("FAIL run-length mismatch: got %s, want ['seconds']" % got)
    print("compare.py self-test: %s" % ("ok" if failures == 0 else "%d failures" % failures))
    return 1 if failures else 0


def main(argv):
    if argv[1:] == ["--self-test"]:
        return self_test()
    if len(argv) != 3:
        sys.stderr.write(__doc__)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    with open(argv[1]) as f:
        base = json.load(f)
    with open(argv[2]) as f:
        new = json.load(f)
    differ = mismatched(base, new)
    if differ:
        sys.stderr.write("compare.py: the files were run with different %s; compare runs of "
                         "one length and mode\n" % ", ".join(differ))
        return 2
    rows = compare(base, new, metrics)
    print_rows(rows)
    return 1 if any(r[5] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
