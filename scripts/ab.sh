#!/bin/sh
# A/B of BENCHMARK.json workloads: a parent revision against the working
# tree, by the rule a perf PR has to meet (choosing-metrics §8).
#
#   scripts/ab.sh <parent-rev> <workload>... [pairs=10]
#
# The parent is exported (`git archive`) next to the results, each side is
# built into its own CARGO_TARGET_DIR, and for each workload in turn the
# exact BENCHMARK.json command runs `pairs` times per side, the side that
# goes first alternating. Pair i runs both sides on seed AB_SEED0 + i
# (default 7001: take a base nothing was tuned on). Printed per workload and
# end-to-end metric: each side's quartiles, the pairs the change won (ties
# count for neither), the change of the median, the parent's own quartile
# distance, and a call: `gain`/`worse` when nine tenths of the pairs agree
# and the medians differ by more than that distance, `no call` otherwise.
# A median that moved the wrong way is also held against the metric's
# `bound` in BENCHMARK.json — `within bound` or `BEYOND BOUND` — since that,
# not the call, is what rejects a change.
#
# AB_LAYER="runtime.shutdown_ms core.history_build_ms" adds, per side and
# pair, one more run of the workload with `--trace 1` and prints each side's
# median of the per-layer metrics it names under the end-to-end table (a
# metric the workload does not report prints as `-`), after the median of
# the operations all of a run's repetitions attempted, for per-operation
# figures. The traced runs come after the untraced ones and feed nothing
# above them.
#
# Everything is kept under AB_DIR (default $TMPDIR/moc-ab); needs jq.
set -eu

if [ $# -lt 2 ]; then
    echo "usage: scripts/ab.sh <parent-rev> <workload>... [pairs=10]" >&2
    exit 2
fi
rev=$1
shift
pairs=10 workloads=
for arg; do
    case $arg in
        *[!0-9]*) workloads="${workloads:+$workloads }$arg" ;;
        *) pairs=$arg ;;
    esac
done
if [ -z "$workloads" ]; then
    echo "usage: scripts/ab.sh <parent-rev> <workload>... [pairs=10]" >&2
    exit 2
fi
root=$(git rev-parse --show-toplevel)
dir=${AB_DIR:-${TMPDIR:-/tmp}/moc-ab}
seed0=${AB_SEED0:-7001}
seconds=$(jq -r .run_seconds "$root/BENCHMARK.json")

rm -rf "$dir/parent"
mkdir -p "$dir/parent"
git -C "$root" archive "$rev" | tar -x -C "$dir/parent"

# run <side> <workload> <seed> <seconds> [trace=0]: one driver run, its JSON
# line on stdout.
run() {
    case $1 in parent) src=$dir/parent ;; *) src=$root ;; esac
    (
        cd "$src"
        target=$dir/target-$1
        eval "set -- $(jq -r '.command | @sh' BENCHMARK.json) \
            --workload $2 --seed $3 --seconds $4 --trace ${5:-0}"
        CARGO_TARGET_DIR=$target "$@"
    )
}

# Build both sides with the command's own flags before anything is timed.
for side in parent change; do
    run "$side" "${workloads%% *}" "$seed0" 1 >/dev/null
done

for workload in $workloads; do
    rm -f "$dir/$workload".*.jsonl
    i=0
    while [ "$i" -lt "$pairs" ]; do
        if [ $((i % 2)) -eq 0 ]; then order="parent change"; else order="change parent"; fi
        for side in $order; do
            out=$dir/$workload.$side.jsonl
            run "$side" "$workload" $((seed0 + i)) "$seconds" >>"$out"
            echo "$workload pair $((i + 1))/$pairs $side: $(tail -n 1 "$out")" >&2
        done
        i=$((i + 1))
    done

    echo "$workload: $rev (parent) against the working tree (change), $pairs pairs, seeds $seed0.."
    for side in parent change; do
        jq -rs --arg side "$side" \
            '"\($side): \(map(.attempted) | add) attempted, \(map(.failed) | add) failed, \(map(select(.correct | not)) | length) incorrect runs"' \
            "$dir/$workload.$side.jsonl"
    done
    jq -r '.end_to_end[] | "\(.name) \(.better) \(.bound)"' "$root/BENCHMARK.json" |
        while read -r metric better bound; do
            for side in parent change; do
                jq -r --arg m "$metric" '.metrics[$m].value' "$dir/$workload.$side.jsonl" >"$dir/$side.col"
            done
            paste "$dir/parent.col" "$dir/change.col" |
                awk -v metric="$metric" -v better="$better" -v bound="$bound" '
            function quantile(a, n, q,    pos, lo) {
                pos = (n - 1) * q; lo = int(pos)
                return lo + 1 >= n ? a[n - 1] : a[lo] + (pos - lo) * (a[lo + 1] - a[lo])
            }
            function insert(a, n, v,    j) {
                for (j = n; j > 0 && a[j - 1] > v; j--) a[j] = a[j - 1]
                a[j] = v
            }
            BEGIN { n = 0 }
            {
                insert(p, n, $1); insert(c, n, $2); n++
                gain = better == "higher" ? $2 - $1 : $1 - $2
                if (gain > 0) wins++; else if (gain < 0) losses++
            }
            END {
                pm = quantile(p, n, 0.5); cm = quantile(c, n, 0.5)
                spread = quantile(p, n, 0.75) - quantile(p, n, 0.25)
                delta = better == "higher" ? cm - pm : pm - cm
                call = "no call"
                if (delta > spread && wins * 10 >= n * 9) call = "gain"
                if (-delta > spread && losses * 10 >= n * 9) call = "worse"
                if (delta < 0 && pm)
                    call = call (-delta / pm > bound ? ", BEYOND BOUND " : ", within bound ") (100 * bound) "%"
                printf "%-18s %-6s parent %.6g/%.6g/%.6g  change %.6g/%.6g/%.6g  wins %d/%d  median %+.1f%%  parent q3-q1 %.1f%%  %s\n",
                    metric, better, quantile(p, n, 0.25), pm, quantile(p, n, 0.75),
                    quantile(c, n, 0.25), cm, quantile(c, n, 0.75), wins, n,
                    pm ? 100 * (cm - pm) / pm : 0, pm ? 100 * spread / pm : 0, call
            }'
        done

    [ -n "${AB_LAYER:-}" ] || continue
    rm -f "$dir/$workload".*.traced.jsonl
    i=0
    while [ "$i" -lt "$pairs" ]; do
        if [ $((i % 2)) -eq 0 ]; then order="parent change"; else order="change parent"; fi
        for side in $order; do
            run "$side" "$workload" $((seed0 + i)) "$seconds" 1 >>"$dir/$workload.$side.traced.jsonl"
            echo "$workload traced pair $((i + 1))/$pairs $side" >&2
        done
        i=$((i + 1))
    done
    for metric in attempted $AB_LAYER; do
        for side in parent change; do
            jq -rs --arg m "$metric" \
                'map(if $m == "attempted" then .attempted else .metrics[$m].value end | numbers) | sort |
                 if length == 0 then "-" else .[(length - 1) / 2 | floor] end' \
                "$dir/$workload.$side.traced.jsonl" >"$dir/$side.col"
        done
        printf '%-32s median of %d traced runs  parent %s  change %s\n' \
            "$metric" "$pairs" "$(cat "$dir/parent.col")" "$(cat "$dir/change.col")"
    done
done
