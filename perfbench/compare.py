#!/usr/bin/env python3
"""Compares two sets of benchmark records, metric by metric.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds record lines as run.py writes them with --record (or its
whole stdout): one {"record": {...}} object per run. For every workload and
metric the tool prints each side's run count, median and quartiles, the
change of the new median against the base, and for end-to-end metrics a
verdict against the bound in BENCHMARK.json:

  regressed   the new median is worse by more than the bound
  unresolved  worse, and the base's own spread exceeds the bound, unless
              every new run beats every base run
  improved    better by more than the base's quartile spread
  unchanged   otherwise

Per-layer metrics have no bound and get no verdict. Exits 1 if any
end-to-end metric regressed.
"""
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line.startswith("{"):
                continue
            obj = json.loads(line)
            rec = obj.get("record")
            if rec is None:
                continue
            for section in ("end_to_end", "per_layer"):
                for name, m in rec.get(section, {}).items():
                    key = (rec["workload"], section, name)
                    runs.setdefault(key, {"unit": m["unit"], "values": []})
                    runs[key]["values"].append(m["value"])
    return runs


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return med, q1, q3


def verdict(base, new, better, bound):
    b_med, b_q1, b_q3 = summary(base)
    n_med, _, _ = summary(new)
    if b_med == 0:
        return "unresolved"
    sign = 1 if better == "lower" else -1
    worse = sign * (n_med - b_med) / abs(b_med)
    spread = (b_q3 - b_q1) / abs(b_med)
    all_better = (max(new) < min(base)) if better == "lower" else (min(new) > max(base))
    if worse > bound:
        return "regressed"
    if worse > 0 and spread > bound and not all_better:
        return "unresolved"
    if -worse > spread:
        return "improved"
    return "unchanged"


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = {m["name"]: m for m in json.load(f)["end_to_end"]}
    base, new = load(argv[1]), load(argv[2])
    regressed = False
    print("%-8s %-38s %-9s %5s %30s %5s %30s %8s  %s" % (
        "workload", "metric", "unit", "n", "base median [q1, q3]", "n",
        "new median [q1, q3]", "change", "verdict"))
    for key in sorted(set(base) & set(new)):
        workload, section, name = key
        b, n = base[key]["values"], new[key]["values"]
        b_med, b_q1, b_q3 = summary(b)
        n_med, n_q1, n_q3 = summary(n)
        change = (n_med - b_med) / abs(b_med) if b_med else float("nan")
        v = ""
        if section == "end_to_end" and name in spec:
            v = verdict(b, n, spec[name]["better"], spec[name]["bound"])
            regressed |= v == "regressed"
        print("%-8s %-38s %-9s %5d %30s %5d %30s %+7.1f%%  %s" % (
            workload, name, base[key]["unit"], len(b),
            "%.4g [%.4g, %.4g]" % (b_med, b_q1, b_q3), len(n),
            "%.4g [%.4g, %.4g]" % (n_med, n_q1, n_q3), 100 * change, v))
    for key in sorted(set(base) ^ set(new)):
        print("%-8s %-38s only in %s" % (key[0], key[2],
                                         "base" if key in base else "new"))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
