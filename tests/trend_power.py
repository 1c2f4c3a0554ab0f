"""What the trend criteria can tell apart: per-seed validation counts behind
criteria 7 and 8, over more seeds than the criteria use.

Each check below is one of the criteria's comparisons, "a >= b - MARGIN" on
the mean over ``test_acceptance.SEEDS``. The script trains both sides with
``test_acceptance.trend_run`` itself, so it measures exactly what the
criteria measure, at seeds 0-11, and prints in validation samples:

- each seed's correct count for a and for b, and their difference;
- the mean and the sample sd of that difference over the seeds;
- the criterion's own 3-seed sum of differences, the floor ``MARGIN`` allows
  it, and the slack between the two (negative: the criterion fails).

Run from the repository root (84 trend runs, a few minutes on two cores):

    PYTHONPATH=src python tests/trend_power.py

pytest does not collect this file; ``tests/test_tooling.py`` imports it.
"""

import numpy as np

from featherprune.datasets import DatasetDescriptor
from test_acceptance import LR_CHURN, LR_SHRINKAGE, MARGIN, SEEDS, TREND, trend_run

POWER_SEEDS = range(12)
# The validation split load_dataset leaves of a trend run's blobs.
N_VAL = TREND["samples"] - int(DatasetDescriptor.split * TREND["samples"])

# (label, side a, side b); a side is trend_run's (operator, sparsity, theta, lr)
CHECKS = [
    ("theta 0.5 - theta 1, S=0.99", ("p3", 0.99, 0.5, LR_CHURN), ("p3", 0.99, 1.0, LR_CHURN)),
    ("theta 1 - theta 0, S=0.90", ("p3", 0.90, 1.0, LR_CHURN), ("p3", 0.90, 0.0, LR_CHURN)),
    ("theta 0.5 - theta 0, S=0.99", ("p3", 0.99, 0.5, LR_CHURN), ("p3", 0.99, 0.0, LR_CHURN)),
    ("p3 - hard, S=0.98 (criterion 7)", ("p3", 0.98, 1.0, LR_SHRINKAGE),
     ("hard", 0.98, 1.0, LR_SHRINKAGE)),
]


def correct(side, seed: int) -> int:
    op_name, sparsity, theta, lr = side
    return round(trend_run(op_name, sparsity, theta, seed, lr)["val_top1"] * N_VAL)


def main() -> None:
    floor = -MARGIN * len(SEEDS) * N_VAL
    print(f"{N_VAL} validation samples per seed; seeds {POWER_SEEDS.start}-"
          f"{POWER_SEEDS.stop - 1}; criterion seeds {list(SEEDS)}")
    print("check | a per seed | b per seed | mean difference | sd | "
          "criterion seeds' sum | allowed | slack")
    for label, a, b in CHECKS:
        counts_a = [correct(a, seed) for seed in POWER_SEEDS]
        counts_b = [correct(b, seed) for seed in POWER_SEEDS]
        diff = np.subtract(counts_a, counts_b)
        at_criterion = int(diff[list(SEEDS)].sum())  # POWER_SEEDS start at 0
        print(f"{label} | {' '.join(map(str, counts_a))} | {' '.join(map(str, counts_b))} | "
              f"{diff.mean():+.2f} | {diff.std(ddof=1):.1f} | {at_criterion:+d} | "
              f"{floor:+.1f} | {at_criterion - floor:+.1f}", flush=True)


if __name__ == "__main__":
    main()
