#!/usr/bin/env bash
# Full evaluation protocol on a user-supplied play-count or rating dataset.
#
# Input: a delimited text file of (user id, item id, positive count) triplets.
# The script quantizes counts into ordinal classes, splits non-zeros 80/20,
# trains the ordinal model plus the two binary baselines (Bernoulli link and
# plain Poisson factorization) with 5 restarts each, and reports NDCG@100 at
# several relevance thresholds together with the non-zero test log-likelihood
# and a posterior predictive class histogram.
#
# This is compute-heavy at realistic scales (hours for millions of non-zeros).
# The test suite runs it once on a 60 x 40 file with RESTARTS=1 and K = 3.
#
# Usage:
#   scripts/reproduce_protocol.sh INPUT.csv OUTDIR [K]
#
# Tunables (environment variables):
#   BOUNDARIES  count-to-class boundaries   (default "1,2,5,10,20,50,100,200,500")
#   THRESHOLDS  NDCG relevance thresholds   (default "1,2,5")
#   RESTARTS    random restarts per model   (default 5)
#   TOL         convergence tolerance       (default 1e-5)
#   DELIM       input field delimiter       (default ",")

set -euo pipefail

INPUT=${1:?usage: reproduce_protocol.sh INPUT.csv OUTDIR [K]}
OUTDIR=${2:?usage: reproduce_protocol.sh INPUT.csv OUTDIR [K]}
K=${3:-100}
BOUNDARIES=${BOUNDARIES:-1,2,5,10,20,50,100,200,500}
THRESHOLDS=${THRESHOLDS:-1,2,5}
RESTARTS=${RESTARTS:-5}
TOL=${TOL:-1e-5}
DELIM=${DELIM:-,}

mkdir -p "$OUTDIR"

ordnmf quantize --input "$INPUT" --output "$OUTDIR/full.ordmat" \
    --boundaries "$BOUNDARIES" --delimiter "$DELIM"

ordnmf split --input "$OUTDIR/full.ordmat" \
    --train-output "$OUTDIR/train.ordmat" \
    --test-output "$OUTDIR/test.ordmat" \
    --test-fraction 0.2 --seed 0

ordnmf train --input "$OUTDIR/train.ordmat" --output "$OUTDIR/ordnmf.npz" \
    --k "$K" --tol "$TOL" --restarts "$RESTARTS" --seed 0

ordnmf train --input "$OUTDIR/train.ordmat" --output "$OUTDIR/bepof.npz" \
    --k "$K" --tol "$TOL" --restarts "$RESTARTS" --seed 0 \
    --bepof --binarize-at 1

ordnmf train --input "$OUTDIR/train.ordmat" --output "$OUTDIR/pf.npz" \
    --k "$K" --tol "$TOL" --restarts "$RESTARTS" --seed 0 \
    --pf --binarize-at 1

ordnmf evaluate --model "$OUTDIR/ordnmf.npz" \
    --train "$OUTDIR/train.ordmat" --test "$OUTDIR/test.ordmat" \
    --output "$OUTDIR/ordnmf.eval.txt" \
    --ndcg-thresholds "$THRESHOLDS" --list-length 100

for baseline in bepof pf; do
    ordnmf evaluate --model "$OUTDIR/$baseline.npz" \
        --train "$OUTDIR/train.ordmat" --test "$OUTDIR/test.ordmat" \
        --output "$OUTDIR/$baseline.eval.txt" \
        --ndcg-thresholds "$THRESHOLDS" --list-length 100
done

ordnmf ppc --model "$OUTDIR/ordnmf.npz" --train "$OUTDIR/train.ordmat" \
    --output "$OUTDIR/ordnmf.ppc.txt" --seed 0

echo
echo "== NDCG@100 and non-zero test log-likelihood =="
for model in ordnmf bepof pf; do
    echo "--- $model ---"
    cat "$OUTDIR/$model.eval.txt"
done
