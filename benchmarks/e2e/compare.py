"""``python -m benchmarks.e2e compare A.jsonl B.jsonl``: is B no worse than A?

A and B are ``--out`` files of the same workloads, run interleaved (A1,
B1, A2, B2, ...); the i-th record of a workload in A is paired with the
i-th in B. For each workload and end-to-end metric it prints both sides'
median and quartiles, the fraction of pairs B won, and a verdict:

- ``improved``: B won at least 9 of 10 pairs and its median is better by
  more than A's quartile spread;
- ``regressed``: B's median is worse than A's by more than the bound in
  ``BENCHMARK.json``;
- ``unresolved``: either side's quartile spread is wider than the bound,
  and not every B run beats every A run;
- ``no worse``: anything else.

Exact metrics (those in each record's ``exact``: model outputs, event
counts, the sample digest) must be identical pair by pair; any
difference is ``regressed``.
"""

from __future__ import annotations

import collections
import json
import pathlib
import statistics

#: Not in BENCHMARK.json, which lists only metrics that are never 0.
FAIL_FRAC = {"name": "fail_frac", "better": "lower"}

#: Share of pairs B must win to claim an improvement.
WIN_SHARE = 0.9


def load(path: pathlib.Path) -> dict[str, list[dict]]:
    """Records of an ``--out`` file, grouped by workload in file order."""
    grouped: dict[str, list[dict]] = collections.defaultdict(list)
    for line in path.read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            grouped[record["workload"]].append(record)
    return grouped


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, median, high = statistics.quantiles(values, n=4)
    return low, median, high


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, float]:
    """Verdict for one noisy metric, and the share of pairs B won."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(a, b))
    won = sum(1 for x, y in pairs if sign * (y - x) > 0) / len(pairs)
    a_low, a_mid, a_high = quartiles(a)
    b_low, b_mid, b_high = quartiles(b)
    change = sign * (b_mid - a_mid) / a_mid  # > 0: B better
    spread = max((a_high - a_low) / a_mid, (b_high - b_low) / b_mid)
    b_always_better = min(b) > max(a) if sign > 0 else max(b) < min(a)
    if won >= WIN_SHARE and change > (a_high - a_low) / a_mid:
        return "improved", won
    if spread > bound and not b_always_better:
        return "unresolved", won
    if change < -bound:
        return "regressed", won
    return "no worse", won


def compare(a_path: pathlib.Path, b_path: pathlib.Path, spec: dict) -> int:
    """Print the comparison table; returns 1 if anything regressed."""
    a_runs, b_runs = load(a_path), load(b_path)
    regressed = False
    print(f"{'workload':<17} {'metric':<18} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34} {'B won':>6}  verdict")
    for workload, a_records in a_runs.items():
        b_records = b_runs.get(workload)
        if not b_records:
            continue
        n = min(len(a_records), len(b_records))
        a_records, b_records = a_records[:n], b_records[:n]
        if any(x["meta"]["seed"] != y["meta"]["seed"] for x, y in zip(a_records, b_records)):
            raise ValueError(f"{workload}: paired runs used different seeds")
        for entry in [*spec["end_to_end"], FAIL_FRAC]:
            name = entry["name"]
            a = [record["metrics"][name] for record in a_records]
            b = [record["metrics"][name] for record in b_records]
            if name in a_records[0]["exact"]:  # deterministic for a seed
                won = sum(1 for x, y in zip(a, b) if x != y) / n
                result = "no worse" if a == b else "regressed"
                won_text = "exact" if a == b else f"{won:.0%} differ"
            else:
                result, won = verdict(a, b, entry["better"], entry["bound"])
                won_text = f"{won:.0%}"
            regressed |= result == "regressed"
            print(f"{workload:<17} {name:<18} {_cell(a):>34} {_cell(b):>34} "
                  f"{won_text:>6}  {result}")
        a_digests = [record["exact"]["sim_digest"] for record in a_records]
        b_digests = [record["exact"]["sim_digest"] for record in b_records]
        result = "no worse" if a_digests == b_digests else "regressed"
        regressed |= result == "regressed"
        print(f"{workload:<17} {'sim_digest':<18} {a_digests[0][:16]:>34} "
              f"{b_digests[0][:16]:>34} {'exact':>6}  {result}")
    return 1 if regressed else 0


def _cell(values: list[float]) -> str:
    low, mid, high = quartiles(values)
    return f"{mid:.6g} [{low:.6g}, {high:.6g}]"
