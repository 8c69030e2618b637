#!/usr/bin/env python3
"""Desk-scale ablation grids: channel variants, depth, structure-loss
weight, and label fraction, each as an aligned table plus CSV.

One seed per run, set with --seed; to average, run it once per seed.
Budgets (--iterations, 200 by default) are sized for minutes, not
hours, so magnitudes are indicative only; the interesting output is the
ordering within each table.
"""
import argparse
import sys
from pathlib import Path

from hospgnn.cli import main as hospgnn_main
from hospgnn.data import synth_benchmark, write_dataset

AXES = ("variant", "layers", "loss", "structure_weight", "label_fraction")


def run(out_dir, seed, iterations):
    out_dir.mkdir(parents=True, exist_ok=True)
    splits = {}
    for name, ds in zip(("train", "val", "test"), synth_benchmark(
            20, 8, 8, per_class=30, dim=16, sep=6.0, seed=seed)):
        splits[name] = out_dir / f"{name}.emb"
        write_dataset(ds, splits[name])

    for axis in AXES:
        base = [
            "ablate",
            "--train", str(splits["train"]),
            "--val", str(splits["val"]),
            "--test", str(splits["test"]),
            "--axis", axis, "--out-dir", str(out_dir / axis),
            "--layers", "3", "--hidden-dim", "32", "--metric-hidden", "32",
            "--no-encoder", "--standardize-vertex", "--aggregate-self",
            "--n-way", "5", "--k-shot", "1", "--queries", "3",
            "--lambda", "1e-5", "--learning-rate", "1e-3", "--batch", "4",
            "--iterations", str(iterations), "--eval-every", "100",
            "--eval-episodes", "30", "--seed", str(seed + 20),
        ]
        if axis == "label_fraction":
            # fractions below one only bite with several shots per
            # class; repeated flags resolve to the last occurrence
            base += ["--k-shot", "5", "--n-way", "2"]
        rc = hospgnn_main(base)
        if rc != 0:
            return rc
        print((out_dir / axis / f"{axis}_table.txt").read_text())
    return 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", type=Path, default=Path("grids"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--iterations", type=int, default=200)
    args = ap.parse_args()
    sys.exit(run(args.out_dir, args.seed, args.iterations))
