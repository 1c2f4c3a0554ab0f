#!/usr/bin/env bash
# Walk through every CLI subcommand against a temp directory.
# Uses the installed `featherprune` command, or this checkout's sources when
# none is on PATH.
set -euo pipefail

if ! command -v featherprune >/dev/null 2>&1; then
    src="$(cd "$(dirname "$0")/../src" && pwd)"
    featherprune() { PYTHONPATH="$src${PYTHONPATH:+:$PYTHONPATH}" python3 -m featherprune.cli "$@"; }
fi

out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT
run="$out/run"

base=(--set dataset.dims=32 --set dataset.classes=4 --set dataset.samples=480
      --set model.hidden=24 --set model.classes=4 --set train.epochs=3
      --set train.batch_size=32 --set prune.final_sparsity=0.8)

echo "== train =="
trained="$(featherprune train --out "$run" "${base[@]}" --seed 5)"
echo "$trained"
ls "$run"

echo
echo "== eval (reads the checkpoint, reapplies its thresholds) =="
evaluated="$(featherprune eval --checkpoint "$run/final.fthr" "${base[@]}")"
echo "$evaluated"
# train prints the top-1 of the network its checkpoint holds
printed="${trained#*val_top1=}"
if [[ "${printed%% *}" != "${evaluated##*val_top1,}" ]]; then
    echo "eval scores ${evaluated##*val_top1,}, train printed ${printed%% *}" >&2
    exit 1
fi

echo
echo "== analyze-masks (per-epoch stability curve) =="
featherprune analyze-masks --masks "$run/masks.bin" | tail -4

echo
echo "== flops =="
featherprune flops --checkpoint "$run/final.fthr" "${base[@]}"

echo
echo "== sweep over two sparsity targets, two seeds each =="
featherprune sweep --out "$out/sweep" --axis prune.final_sparsity=0.5,0.9 \
    --seeds 0,1 --jobs 2 "${base[@]}"
cat "$out/sweep/sweep.csv"
