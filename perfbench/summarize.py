"""Summarize run records from `.bench_out/` into one JSON document.

    python3 perfbench/summarize.py [--out FILE]

For each workload it gives, per end-to-end metric, the median, quartiles and
quartile spread (as a share of the median) over the untraced runs, the same
for the raw wall times, the environment, and the per-layer metrics of the
traced runs with whether their counts repeated.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values) -> dict:
    values = sorted(values)
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / median if median else None,
        "n": len(values),
    }


def summarize(records) -> dict:
    out: dict = {}
    for rec in sorted(records, key=lambda r: (r["workload"], r["trace"], r["seed"])):
        entry = out.setdefault(
            rec["workload"], {"seeds": [], "end_to_end": {}, "wall": {}, "traced": []}
        )
        if rec["trace"]:
            entry["traced"].append({
                "seed": rec["seed"],
                "counts_repeat_across_passes": rec["trace_counts_repeat"],
                "per_layer": rec["per_layer"],
            })
            continue
        entry["seeds"].append(rec["seed"])
        entry["environment"] = rec["environment"]
        for key in ("end_to_end", "wall"):
            for name, value in rec[key].items():
                entry[key].setdefault(name, []).append(value)
        entry.setdefault("fail_ratio", []).append(rec["fail_ratio"])
        entry.setdefault("tail_percentile", []).append(rec["tail_percentile"])
        entry.setdefault("input_properties", []).append(rec["input_properties"])
    for entry in out.values():
        for key in ("end_to_end", "wall"):
            entry[key] = {k: spread(v) for k, v in entry[key].items()}
        if "fail_ratio" in entry:
            entry["fail_ratio"] = max(entry["fail_ratio"])
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write here instead of stdout")
    args = parser.parse_args()
    records = [json.loads(p.read_text()) for p in sorted((ROOT / ".bench_out").glob("*.json"))]
    for rec in records:
        rec.pop("spans", None)
    text = json.dumps(summarize(records), indent=1, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text, end="")


if __name__ == "__main__":
    main()
