#!/bin/sh
# Byte-compare the outputs of `cscgd run --gap` from two source trees.
#
# usage: tools/compare_outputs.sh PARENT_SRC CHANGE_SRC WORKDIR
#
# PARENT_SRC and CHANGE_SRC are the `src/` directories of two checkouts.
# Every preset runs at seeds 0:2 and T = 3000, once per tree, in
# WORKDIR/parent and WORKDIR/change (WORKDIR is emptied first), in five
# passes with their own run directories.  evaluate_point draws and maps its
# samples in blocks of at most EVAL_CHUNK_ROWS (2048) rows, each ending at
# the last sub-batch end within reach, if any.  A block of two or more
# whole sub-batches folds them side by side in one reduction; any other
# block lies in one sub-batch, and when it starts inside it, it carries
# the running sum of the block before.  The passes: at 100 000 evaluation
# samples (runs/eval100000, the CLI default), each 10 000-row sub-batch is
# four 2048-row blocks and a 1808-row one; at 20 490 (runs/eval20490),
# each 2049-row sub-batch is a 2048-row block and a carried 1-row block;
# at 20 000 (runs/eval20000), one 2000-row sub-batch per block; at 4000
# (runs/eval4000, the evaluation size of the criterion-1 fixture), two
# blocks of five 400-row sub-batches, the second starting at sub-batch 5;
# at 2000 (runs/eval2000), all ten 200-row sub-batches share one block.
# One line per file says `same` or `DIFF`: each trajectory
# CSV, curves.csv, config.json, and summary.csv without its wall_time
# column (the only column that is allowed to differ).  Exit status 0 when
# every file is the same.
set -e
[ $# -eq 3 ] || { echo "usage: $0 PARENT_SRC CHANGE_SRC WORKDIR" >&2; exit 2; }
PARENT=$(cd "$1" && pwd); CHANGE=$(cd "$2" && pwd); WORK=$3
PRESETS="paper-ex1 paper-ex2-k5 paper-ex2-k10 paper-ex3 paper-ex4 quadratic-toy constrained-quadratic-toy"
CLI='import sys; from cscgd.cli import main; sys.exit(main(sys.argv[1:]))'
rm -rf "$WORK"; mkdir -p "$WORK/parent" "$WORK/change"
EVAL_SAMPLES="100000 20490 20000 4000 2000"
for n in $EVAL_SAMPLES; do
  for p in $PRESETS; do
    opts="--preset $p --seeds 0:2 --horizon 3000 --eval-samples $n --out runs/eval$n/$p"
    for side in parent change; do
      [ $side = parent ] && src=$PARENT || src=$CHANGE
      (cd "$WORK/$side" && PYTHONPATH=$src python3 -W ignore -c "$CLI" run $opts --gap >/dev/null)
    done
  done
done
status=0
for n in $EVAL_SAMPLES; do
  for p in $PRESETS; do
    run=eval$n/$p; a=$WORK/parent/runs/$run; b=$WORK/change/runs/$run
    for f in $(cd "$a" && ls trajectory-seed*.csv) curves.csv config.json; do
      cmp -s "$a/$f" "$b/$f" && echo "same $run/$f" || { echo "DIFF $run/$f"; status=1; }
    done
    col=$(head -1 "$a/summary.csv" | tr , '\n' | grep -n '^wall_time$' | cut -d: -f1)
    cut -d, -f"$col" --complement "$a/summary.csv" > "$WORK/parent.sum"
    cut -d, -f"$col" --complement "$b/summary.csv" > "$WORK/change.sum"
    cmp -s "$WORK/parent.sum" "$WORK/change.sum" \
      && echo "same $run/summary.csv (without wall_time)" || { echo "DIFF $run/summary.csv"; status=1; }
  done
done
exit $status
