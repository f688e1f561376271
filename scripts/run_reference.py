#!/usr/bin/env python3
"""Reference runs behind the regression thresholds: the easy preset over five
seeds, and the hard-preset loss comparison / hierarchy ablation medians.

Both train through ``trainer.run_variants``; one JSON summary per experiment
holds each variant's per-seed rows and medians, the numbers the acceptance
thresholds were frozen against. Every hard variant shares its corpus,
held-out set and initial model with ``base`` at each seed, so the hard
summary also reports each variant's per-seed paired difference from ``base``
(a report, not a gate).

    PYTHONPATH=src python scripts/run_reference.py --out reports [--skip-hard]
"""

import argparse
import json
import os
import time

import numpy as np

from apranking.trainer import HARD_VARIANTS, REFERENCE_SEEDS as SEEDS, easy_preset, hard_preset, run_variants


def summarize(results) -> dict:
    """The per-seed rows of one variant's TrainResults, in their order, and
    the medians of their final and initial metrics."""
    rows = [
        {
            "seed": result.config.seed,
            "initial_map": result.initial_report.map,
            "initial_micro_ap": result.initial_report.micro_ap,
            "map": result.final_report.map,
            "micro_ap": result.final_report.micro_ap,
        }
        for result in results
    ]
    medians = {f"median_{key}": float(np.median([row[key] for row in rows]))
               for key in ("map", "micro_ap", "initial_map")}
    return {"runs": rows, **medians}


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


def write_summary(out_dir: str, preset: str, payload: dict):
    with open(os.path.join(out_dir, f"{preset}_reference.json"), "w") as fh:
        json.dump({"preset": preset, "seeds": list(SEEDS), **payload}, fh, indent=2, sort_keys=True)


def print_runs(label: str, summary: dict):
    for row in summary["runs"]:
        print(f"{label} seed {row['seed']}: mAP={row['map']:.4f} microAP={row['micro_ap']:.4f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="reports")
    parser.add_argument("--skip-hard", action="store_true")
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)
    started = time.time()
    easy = summarize(run_variants(easy_preset, ("full",))["full"])
    print_runs("easy", easy)
    write_summary(args.out, "easy", easy)
    print(f"easy medians: mAP={easy['median_map']:.4f} microAP={easy['median_micro_ap']:.4f}")
    if not args.skip_hard:
        hard = {tag: summarize(results) for tag, results in run_variants(hard_preset, HARD_VARIANTS).items()}
        differences = paired_differences(hard)
        for tag, summary in hard.items():
            print_runs(f"hard {tag}", summary)
        write_summary(args.out, "hard", {"variants": hard, "differences_from_base": differences})
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
