"""Cubic sparsity ramp and the two threshold backbones.

Shows the per-epoch sparsity request for a 20-epoch run targeting 98%, then
assigns thresholds to a freshly initialized MLP both ways: one pooled global
threshold versus a per-layer threshold at an identical ratio. The global
backbone concentrates pruning in layers whose init scale is small (wide
fan-in means smaller He weights), which is exactly the asymmetry the printout
makes visible.
"""

from featherprune import (
    BackboneKind,
    SparsitySchedule,
    apply_threshold,
    assign_thresholds,
    build_mlp,
    cubic_sparsity,
)
from featherprune.feather import PruneLayerState
from featherprune.seeding import init_rng
from featherprune.thresholding import ThresholdOperator


def ramp():
    schedule = SparsitySchedule(final_sparsity=0.98, total_epochs=20)
    print("epoch  requested sparsity")
    for epoch in range(20):
        s = cubic_sparsity(epoch, schedule)
        bar = "#" * int(round(50 * s / 0.98))
        print(f"{epoch:5d}  {s:8.4f}  {bar}")


def make_states():
    model = build_mlp(784, [300, 100], 10, init_rng(0))
    return [
        PruneLayerState(l.name, l.kind, l.weight, ThresholdOperator.power(3.0))
        for l in model.layers if l.prunable
    ]


def backbones():
    for kind in ("global", "uniform"):
        states = make_states()
        assign_thresholds(states, 0.95, BackboneKind(kind))
        print(f"\n{kind} backbone at 95% target:")
        for s in states:
            _, mask = apply_threshold(s.weights.data, s.threshold, s.op)
            pruned = 1.0 - mask.mean()
            print(f"  {s.name}: T = {s.threshold:.4f}, layer sparsity {pruned:.4f} "
                  f"({s.weights.data.size} weights, init std {s.weights.data.std():.4f})")


if __name__ == "__main__":
    ramp()
    backbones()
