"""``--compare A.json B.json``: judge set B against set A.

One row per (end-to-end metric, workload), using each metric's direction and
bound from BENCHMARK.json:

* ``REGRESSION`` — B's median is worse than A's by more than the bound;
* ``unresolved`` — a set's own session-to-session spread exceeds the bound,
  so the two medians cannot be told apart (unless every session of B reads
  better than every session of A, which is reported as ``better``);
* ``refused``    — the bare-loader baselines of the two sets differ by more
  than 10%: the host was not the same machine for both, judge nothing.

Exit code: 1 on any regression, 2 when a workload was refused, else 0.
"""

from __future__ import annotations

import json
from typing import Dict

#: Bare-loader drift between the sets beyond which the host is called noisy.
BASELINE_DRIFT = 0.10
#: Set-up times are milliseconds; a bound of 25% of 4 ms is scheduler noise.
SETUP_FLOOR_S = 0.005


def verdict(cell_a: dict, cell_b: dict, metric: Dict[str, object]) -> str:
    a, b = cell_a["value"], cell_b["value"]
    lower = metric["better"] == "lower"
    worse_by = (b - a) if lower else (a - b)
    allowed = metric["bound"] * abs(a)
    if metric["name"] == "setup_s":
        allowed = max(allowed, SETUP_FLOOR_S)
    if max(cell_a["spread"], cell_b["spread"]) > metric["bound"]:
        sessions_a, sessions_b = cell_a["sessions"], cell_b["sessions"]
        clear = max(sessions_b) < min(sessions_a) if lower else min(sessions_b) > max(sessions_a)
        return "better" if clear else "unresolved"
    return "REGRESSION" if worse_by > allowed else "ok"


def main(path_a: str, path_b: str, spec: Dict[str, object]) -> int:
    with open(path_a, encoding="utf-8") as handle:
        set_a = json.load(handle)["workloads"]
    with open(path_b, encoding="utf-8") as handle:
        set_b = json.load(handle)["workloads"]

    counts = {"ok": 0, "better": 0, "unresolved": 0, "REGRESSION": 0, "refused": 0}
    print(f"{'metric':<18}{'workload':<14}{'A':>12}{'B':>12}{'change':>9}{'bound':>7}"
          f"{'spread A':>10}{'spread B':>10}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in set_a or workload not in set_b:
            continue
        bare_a = set_a[workload]["per_layer"]["data.bare_loader_us"]
        bare_b = set_b[workload]["per_layer"]["data.bare_loader_us"]
        noisy = abs(bare_b - bare_a) / bare_a > BASELINE_DRIFT
        if noisy:
            print(f"-- {workload}: bare loader {bare_a:.0f} us vs {bare_b:.0f} us differ by more "
                  f"than {100 * BASELINE_DRIFT:.0f}%: noisy host, not judged")
        for metric in spec["end_to_end"]:
            cell_a = set_a[workload]["end_to_end"][metric["name"]]
            cell_b = set_b[workload]["end_to_end"][metric["name"]]
            outcome = "refused" if noisy else verdict(cell_a, cell_b, metric)
            counts[outcome] += 1
            change = (cell_b["value"] - cell_a["value"]) / cell_a["value"]
            print(f"{metric['name']:<18}{workload:<14}{cell_a['value']:>12.4f}"
                  f"{cell_b['value']:>12.4f}{100 * change:>8.1f}%{100 * metric['bound']:>6.0f}%"
                  f"{100 * cell_a['spread']:>9.1f}%{100 * cell_b['spread']:>9.1f}%  {outcome}")
        for name, result in (("A", set_a[workload]), ("B", set_b[workload])):
            if result["failed"]:
                counts["REGRESSION"] += 1
                print(f"failed_share      {workload:<14} set {name}: {result['failed']} of "
                      f"{result['attempted']} deliveries failed  REGRESSION")
    print(", ".join(f"{count} {name}" for name, count in counts.items()))
    if counts["REGRESSION"]:
        return 1
    return 2 if counts["refused"] else 0
