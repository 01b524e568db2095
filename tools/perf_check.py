#!/usr/bin/env python3
"""CI perf gate: compare smq_run --json sweeps against a baseline.

Usage:
    perf_check.py --baseline bench/baselines/BENCH_baseline.json \
                  --current results.json [--current more.json ...] \
                  [--max-regression 0.15]
    perf_check.py --baseline ... --current ... --write-baseline

A baseline file is either a single smq_run report (object) or a list of
reports — one per pinned sweep (e.g. sssp and bfs). Every --current file
contributes one report (or a list); rows are matched on the sweep
identity (algorithm, graph, suite — taken from the row's report) plus
(scheduler, threads, dispatch[, numa point]), so several sweeps of
the same algorithm can be gated side by side. The compared metric is
`speedup_vs_seq` (parallel throughput normalized by the sequential
oracle measured *in the same run*), which cancels out absolute machine
speed so a baseline recorded on one machine gates runs on another. Rows
missing the metric fall back to tasks/second, which is only meaningful
when baseline and current ran on comparable hardware.

--write-baseline merges the current reports into a single list-form
baseline file.

Exit codes: 0 ok, 1 regression (or invalid result), 2 usage error.
"""

import argparse
import json
import os
import sys


def sweep_id(report):
    """What distinguishes one pinned sweep from another: the algorithm,
    the resolved graph and the figure suite (if any) — suites share rows
    like the MQ baseline, which must not collide when two suite reports
    are gated side by side."""
    return (
        report.get("algorithm", "?"),
        report.get("graph", {}).get("name", "?"),
        report.get("suite", ""),
    )


def row_key(report, row):
    return sweep_id(report) + (
        row["scheduler"],
        row["threads"],
        row.get("dispatch", "virtual"),
        row.get("numa_nodes", 0),
        row.get("numa_k", 0),
    )


def metric_of(row):
    """(name, value) of the throughput metric for one result row."""
    speedup = row.get("speedup_vs_seq")
    if speedup is not None and speedup > 0:
        return "speedup_vs_seq", speedup
    seconds = row.get("seconds", 0)
    tasks = row.get("tasks", 0)
    if seconds and seconds > 0 and tasks:
        return "tasks_per_sec", tasks / seconds
    return None, None


def load_reports(path):
    """The list of smq_run reports in `path` (object or list form)."""
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"perf_check: cannot read {path}: {e}")
    reports = data if isinstance(data, list) else [data]
    for report in reports:
        if not isinstance(report.get("results"), list) or not report["results"]:
            sys.exit(f"perf_check: {path} has a report with no results[]")
    return reports


def rows_of(reports, origin):
    rows = {}
    for report in reports:
        for row in report["results"]:
            key = row_key(report, row)
            if key in rows:
                sys.exit(f"perf_check: duplicate row {key} in {origin}")
            rows[key] = row
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", required=True)
    ap.add_argument("--current", required=True, action="append",
                    help="current report file; repeatable, one per sweep")
    ap.add_argument("--max-regression", type=float, default=0.15,
                    help="fail when current < baseline * (1 - this)")
    ap.add_argument("--max-regression-mt", type=float, default=None,
                    help="regression budget for multi-thread rows "
                         "(threads > 1), which carry scheduling noise a "
                         "single-thread run does not; defaults to twice "
                         "--max-regression")
    ap.add_argument("--write-baseline", action="store_true",
                    help="merge current reports over baseline instead of "
                         "gating")
    args = ap.parse_args()

    current_reports = []
    for path in args.current:
        current_reports.extend(load_reports(path))

    if args.write_baseline:
        # Merge over the existing baseline: a current report replaces
        # the baseline report for the same sweep (algorithm + graph +
        # grid), every other sweep is retained — refreshing one sweep
        # must not drop the gate on the others.
        refreshed = {sweep_id(r) for r in current_reports}
        merged = []
        if os.path.exists(args.baseline):
            merged = [r for r in load_reports(args.baseline)
                      if sweep_id(r) not in refreshed]
        merged.extend(current_reports)
        with open(args.baseline, "w") as f:
            json.dump(merged, f, indent=2)
            f.write("\n")
        print(f"perf_check: wrote {args.baseline} "
              f"({len(merged)} reports; refreshed "
              f"{', '.join('/'.join(s) for s in sorted(refreshed))}) from "
              f"{', '.join(args.current)}")
        return 0

    baseline = rows_of(load_reports(args.baseline), args.baseline)
    current = rows_of(current_reports, ", ".join(args.current))

    mt_budget = (args.max_regression_mt if args.max_regression_mt is not None
                 else 2 * args.max_regression)

    failures = []
    compared = 0
    width = max(len("/".join(map(str, k))) for k in baseline)
    print(f"{'configuration':<{width}}  {'metric':>15}  {'baseline':>10} "
          f"{'current':>10} {'ratio':>7}")
    for key, base_row in sorted(baseline.items()):
        cur_row = current.get(key)
        name = "/".join(map(str, key))
        if cur_row is None:
            failures.append(f"{name}: missing from current run")
            continue
        if cur_row.get("valid") is False:
            failures.append(f"{name}: produced an INVALID result")
            continue
        metric, base_value = metric_of(base_row)
        cur_metric, cur_value = metric_of(cur_row)
        if base_value is None or cur_value is None or metric != cur_metric:
            failures.append(f"{name}: no comparable metric "
                            f"({metric} vs {cur_metric})")
            continue
        compared += 1
        budget = (mt_budget if base_row.get("threads", 1) > 1
                  else args.max_regression)
        ratio = cur_value / base_value
        flag = "" if ratio >= 1 - budget else "  << REGRESSION"
        print(f"{name:<{width}}  {metric:>15}  {base_value:>10.3f} "
              f"{cur_value:>10.3f} {ratio:>7.2f}{flag}")
        if flag:
            failures.append(
                f"{name}: {metric} fell {100 * (1 - ratio):.1f}% "
                f"({base_value:.3f} -> {cur_value:.3f}), "
                f"budget {100 * budget:.0f}%")

    print(f"\ncompared {compared}/{len(baseline)} baseline configurations"
          f" (regression budget {100 * args.max_regression:.0f}% "
          f"single-thread, {100 * mt_budget:.0f}% multi-thread)")
    if failures:
        print("\nperf_check: FAIL")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("perf_check: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
