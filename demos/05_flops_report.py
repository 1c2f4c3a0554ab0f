"""Sparse FLOPs accounting for a small CNN.

Counts 2 operations per multiply-accumulate. Dense conv cost scales with the
full kernel volume at every output position; the sparse count keeps only
nonzero kernel weights. Pruning at a 90% global target therefore cuts the
conv layers' compute roughly tenfold, with the exact figure set by how the
pooled threshold lands across layers.
"""

import numpy as np

from featherprune import BackboneKind, apply_threshold, assign_thresholds, build_cnn, flops_count
from featherprune.feather import PruneLayerState
from featherprune.seeding import init_rng
from featherprune.thresholding import ThresholdOperator


def main():
    model = build_cnn((1, 12, 12), 5, init_rng(2), channels=(8, 16))
    states = [
        PruneLayerState(l.name, l.kind, l.weight, ThresholdOperator.power(3.0))
        for l in model.layers if l.prunable
    ]

    dense_masks = {l.name: np.ones(l.weight.shape, dtype=bool) for l in model.layers}
    dense = flops_count(model, dense_masks)
    print("dense model:")
    for row in dense.layers:
        print(f"  {row.layer}: {row.dense_flops:,} FLOPs")
    print(f"  total: {dense.total_dense:,}")

    assign_thresholds(states, 0.9, BackboneKind("global", exempt_first_conv=False))
    masks = {}
    for s in states:
        _, masks[s.name] = apply_threshold(s.weights.data, s.threshold, s.op)
    report = flops_count(model, masks)

    print("\nafter a 90% global threshold:")
    for row in report.layers:
        share = row.sparse_flops / row.dense_flops
        print(f"  {row.layer}: {row.sparse_flops:,} FLOPs ({share:.1%} of dense)")
    print(f"  total: {report.total_sparse:,} "
          f"({report.total_sparse / report.total_dense:.1%} of dense)")

    print("\nCSV form:")
    print(report.to_csv())


if __name__ == "__main__":
    main()
