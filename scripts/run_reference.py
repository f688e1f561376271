#!/usr/bin/env python3
"""Reference runs behind the regression thresholds: the easy preset over five
seeds, and the hard-preset loss comparison / hierarchy ablation medians.

Writes one JSON summary per experiment. These are the numbers the acceptance
thresholds were frozen against. Every hard variant shares its corpus,
held-out set and initial model with ``base`` at each seed, so beside the
medians the hard summary reports each variant's per-seed paired difference
from ``base`` (a report, not a gate).

    PYTHONPATH=src python scripts/run_reference.py --out reports [--skip-hard]
"""

import argparse
import json
import os
import time

import numpy as np

from apranking.trainer import HARD_VARIANTS, REFERENCE_SEEDS as SEEDS, easy_preset, hard_variant, train


def run_easy(out_dir: str) -> dict:
    rows = []
    for seed in SEEDS:
        result = train(easy_preset(seed=seed))
        rows.append(
            {
                "seed": seed,
                "initial_map": result.initial_report.map,
                "initial_micro_ap": result.initial_report.micro_ap,
                "map": result.final_report.map,
                "micro_ap": result.final_report.micro_ap,
            }
        )
        print(f"easy seed {seed}: mAP={rows[-1]['map']:.4f} microAP={rows[-1]['micro_ap']:.4f}")
    summary = {
        "preset": "easy",
        "seeds": list(SEEDS),
        "runs": rows,
        "median_map": float(np.median([r["map"] for r in rows])),
        "median_micro_ap": float(np.median([r["micro_ap"] for r in rows])),
        "median_initial_map": float(np.median([r["initial_map"] for r in rows])),
    }
    with open(os.path.join(out_dir, "easy_reference.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    return summary


def paired_differences(table: dict, baseline: str = "base") -> dict:
    """tag -> metric -> per-seed (variant - baseline), in the baseline's seed
    order, for every variant but the baseline, from a table of
    ``{tag: {"runs": [{"seed", "map", "micro_ap"}, ...]}}``."""
    base = {row["seed"]: row for row in table[baseline]["runs"]}
    out = {}
    for tag, entry in table.items():
        if tag == baseline:
            continue
        runs = {row["seed"]: row for row in entry["runs"]}
        out[tag] = {
            metric: [runs[seed][metric] - base[seed][metric] for seed in base]
            for metric in ("map", "micro_ap")
        }
    return out


def run_hard(out_dir: str) -> dict:
    table = {}
    for tag in HARD_VARIANTS:
        rows = []
        for seed in SEEDS:
            result = train(hard_variant(tag, seed))
            rows.append({"seed": seed, "map": result.final_report.map,
                         "micro_ap": result.final_report.micro_ap})
            print(f"hard {tag} seed {seed}: mAP={rows[-1]['map']:.4f} "
                  f"microAP={rows[-1]['micro_ap']:.4f}")
        table[tag] = {
            "runs": rows,
            "median_map": float(np.median([r["map"] for r in rows])),
            "median_micro_ap": float(np.median([r["micro_ap"] for r in rows])),
        }
    differences = paired_differences(table)
    with open(os.path.join(out_dir, "hard_reference.json"), "w") as fh:
        json.dump({"preset": "hard", "seeds": list(SEEDS), "variants": table,
                   "differences_from_base": differences}, fh, indent=2, sort_keys=True)
    return table, differences


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="reports")
    parser.add_argument("--skip-hard", action="store_true")
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)
    started = time.time()
    easy = run_easy(args.out)
    print(f"easy medians: mAP={easy['median_map']:.4f} microAP={easy['median_micro_ap']:.4f}")
    if not args.skip_hard:
        hard, differences = run_hard(args.out)
        for tag, row in hard.items():
            line = (f"hard {tag}: median mAP={row['median_map']:.4f} "
                    f"median microAP={row['median_micro_ap']:.4f}")
            if tag in differences:
                for metric, name in (("map", "mAP"), ("micro_ap", "microAP")):
                    per_seed = " ".join(f"{d:+.4f}" for d in differences[tag][metric])
                    line += f" | {name} - base per seed: {per_seed}"
            print(line)
    print(f"total {time.time() - started:.0f}s")


if __name__ == "__main__":
    main()
