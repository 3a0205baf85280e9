#!/usr/bin/env bash
# Interleaved A/B run of the BENCHMARK.json command: a base commit against
# the working tree, on one host.
#
# BASE is extracted with `git archive` into `.bench_build/base-<sha>/` and
# both sides' benchmarks are built before any timing. Then, for each
# workload, PAIRS pairs of untraced runs (`--trace 0`, BENCHMARK.json's
# `run_seconds`) alternate which side goes first; both runs of pair i use
# seed 100 + i. The table gives, for every end-to-end metric, each side's
# median and quartiles, the median of the per-pair change/base ratios, the
# pairs the change wins, the pairs with bit-equal values, whether the
# change's median is within the metric's BENCHMARK.json bound, and each
# side's failed/attempted operation counts. "within" reads `unresolved`
# when the base's own quartile spread (q3 - q1) / median is at least the
# bound, so the runs cannot tell a regression of that size from noise,
# unless every change run beats every base run.
#
# Exits 1 when any run fails or prints `"correct": false`, 2 on a usage
# error. Raw result lines are kept in `.bench_build/compare-<sha>.tsv`.
#
# Usage:
#   scripts/bench_compare.sh BASE [workload...]   # default: every gated workload
#   PAIRS=4 scripts/bench_compare.sh HEAD~1 ilt_pw_128
set -euo pipefail
cd "$(dirname "$0")/.."
root="$(pwd)"

if [[ $# -lt 1 ]]; then
    echo "usage: $0 BASE [workload...]  (PAIRS=10)" >&2
    exit 2
fi
pairs="${PAIRS:-10}"
if ! [[ "$pairs" =~ ^[1-9][0-9]*$ ]]; then
    echo "PAIRS must be a positive integer" >&2
    exit 2
fi
sha="$(git rev-parse --short=12 "$1^{commit}")" || {
    echo "unknown commit $1" >&2
    exit 2
}
shift

# BENCHMARK.json keeps one entry per line; pull out the command, the run
# length, the workload names and the end-to-end metrics (name better bound).
spec="$(awk '
    /"command":/ {
        n = split($0, q, "\"")
        for (i = 4; i < n; i += 2) cmd = cmd (cmd == "" ? "" : "\t") q[i]
    }
    /"run_seconds":/ { gsub(/[^0-9.]/, "", $2); secs = $2 }
    /"workloads":/ { block = "w" }
    /"end_to_end":/ { block = "e" }
    /"per_layer":/ { block = "" }
    block != "" && /"name":/ {
        split($0, q, "\"")
        if (block == "w") wl = wl " " q[4]
        else {
            match($0, /"better": *"[a-z]+"/)
            b = substr($0, RSTART, RLENGTH); gsub(/.*"better": *"|"/, "", b)
            match($0, /"bound": *[0-9.eE+-]+/)
            v = substr($0, RSTART, RLENGTH); gsub(/.*"bound": */, "", v)
            metrics = metrics q[4] " " b " " v ";"
        }
    }
    END { print cmd; print secs; print substr(wl, 2); print metrics }
' BENCHMARK.json)"
mapfile -t lines <<<"$spec"
IFS=$'\t' read -r -a cmd <<<"${lines[0]}"
run_seconds="${lines[1]}"
gated="${lines[2]}"
metrics="${lines[3]}"
if [[ $# -gt 0 ]]; then workloads=("$@"); else read -r -a workloads <<<"$gated"; fi
if [[ ${#cmd[@]} -eq 0 || -z "$run_seconds" || -z "$metrics" ]]; then
    echo "cannot read the command, run_seconds or end_to_end from BENCHMARK.json" >&2
    exit 2
fi

base_dir="$root/.bench_build/base-$sha"
if [[ ! -d "$base_dir" ]]; then
    mkdir -p "$base_dir.tmp"
    git archive "$sha" | tar -x -C "$base_dir.tmp"
    mv "$base_dir.tmp" "$base_dir"
fi

# Build both sides first so no timed run pays for compilation: the
# command's `--` ends the cargo arguments, so drop it and `run` becomes
# `build`.
build=()
for a in "${cmd[@]}"; do
    case "$a" in
        run) build+=(build) ;;
        --) ;;
        *) build+=("$a") ;;
    esac
done
for dir in "$base_dir" "$root"; do
    echo "building the benchmark in $dir" >&2
    (cd "$dir" && "${build[@]}")
done

results="$root/.bench_build/compare-$sha.tsv"
: >"$results"
status=0

# Runs one side once and appends `workload side pair json` to the results.
run_side() {
    local side="$1" dir="$2" workload="$3" pair="$4" seed="$5" out json
    echo "  pair $pair/$pairs seed $seed: $side" >&2
    if out="$(cd "$dir" && "${cmd[@]}" --workload "$workload" --seed "$seed" \
        --seconds "$run_seconds" --trace 0)"; then
        json="$(awk 'END { print }' <<<"$out")"
    else
        json='{"correct": false, "attempted": 0, "failed": 0, "metrics": {}}'
        echo "  $side run exited non-zero" >&2
    fi
    if [[ "$json" != *'"correct": true'* ]]; then status=1; fi
    printf '%s\t%s\t%s\t%s\n' "$workload" "$side" "$pair" "$json" >>"$results"
}

for workload in "${workloads[@]}"; do
    echo "$workload: $pairs interleaved pairs, $run_seconds s runs" >&2
    for ((i = 1; i <= pairs; i++)); do
        seed=$((100 + i))
        if ((i % 2)); then
            run_side base "$base_dir" "$workload" "$i" "$seed"
            run_side change "$root" "$workload" "$i" "$seed"
        else
            run_side change "$root" "$workload" "$i" "$seed"
            run_side base "$base_dir" "$workload" "$i" "$seed"
        fi
    done
done

awk -F'\t' -v metrics="$metrics" -v base="$sha" '
function value(json, name,    s) {
    if (!match(json, "\"" name "\": \\{\"value\": [^,}]+")) return ""
    s = substr(json, RSTART, RLENGTH)
    sub(/.*"value": /, "", s)
    return s == "null" ? "" : s
}
function count(json, key,    s) {
    if (!match(json, "\"" key "\": [0-9]+")) return 0
    s = substr(json, RSTART, RLENGTH)
    sub(/.*: /, "", s)
    return s + 0
}
# Sorts a[1..n] in place (insertion sort; n is small).
function isort(a, n,    i, j, t) {
    for (i = 2; i <= n; i++) {
        t = a[i]
        for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
        a[j + 1] = t
    }
}
# Quantile p of sorted a[1..n], linear between order statistics.
function quantile(a, n, p,    h, lo) {
    if (n == 0) return "nan"
    h = (n - 1) * p + 1
    lo = int(h)
    return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
}
BEGIN {
    nm = split(metrics, list, ";") - 1
    for (m = 1; m <= nm; m++) {
        split(list[m], f, " ")
        name[m] = f[1]; better[m] = f[2]; bound[m] = f[3]
    }
}
{
    w = $1; side = $2; pair = $3; json = $4
    if (!(w in seen)) { seen[w] = 1; order[++nw] = w }
    if (pair > np[w]) np[w] = pair
    att[w, side] += count(json, "attempted")
    fail[w, side] += count(json, "failed")
    for (m = 1; m <= nm; m++) val[w, side, pair, name[m]] = value(json, name[m])
}
END {
    printf "base %s vs working tree; quartiles q1/q3; ratio = change/base per pair\n", base
    for (k = 1; k <= nw; k++) {
        w = order[k]
        printf "\n%s  (%d pairs)  failed/attempted: base %d/%d, change %d/%d\n", \
            w, np[w], fail[w, "base"], att[w, "base"], fail[w, "change"], att[w, "change"]
        printf "%-16s %12s %12s %12s %12s %12s %12s %8s %6s %6s %8s %s\n", "metric", \
            "base_med", "base_q1", "base_q3", "chg_med", "chg_q1", "chg_q3", \
            "ratio", "wins", "equal", "bound", "within"
        for (m = 1; m <= nm; m++) {
            nb = nc = nr = wins = equal = 0
            bmin = cmin = 1e300; bmax = cmax = -1e300
            delete b; delete c; delete r
            for (p = 1; p <= np[w]; p++) {
                x = val[w, "base", p, name[m]]; y = val[w, "change", p, name[m]]
                if (x != "") {
                    b[++nb] = x + 0
                    if (x + 0 < bmin) bmin = x + 0
                    if (x + 0 > bmax) bmax = x + 0
                }
                if (y != "") {
                    c[++nc] = y + 0
                    if (y + 0 < cmin) cmin = y + 0
                    if (y + 0 > cmax) cmax = y + 0
                }
                if (x == "" || y == "") continue
                if (x == y) equal++
                if (x + 0 != 0) r[++nr] = (y + 0) / (x + 0)
                if ((better[m] == "lower" && y + 0 < x + 0) || \
                    (better[m] == "higher" && y + 0 > x + 0)) wins++
            }
            isort(b, nb); isort(c, nc); isort(r, nr)
            bm = quantile(b, nb, 0.5); cm = quantile(c, nc, 0.5)
            worse = "nan"
            if (nb > 0 && nc > 0 && bm != 0)
                worse = (better[m] == "lower" ? cm - bm : bm - cm) / bm
            # The change beats the base outright when every change run is
            # better than every base run.
            outright = better[m] == "lower" ? cmax < bmin : cmin > bmax
            spread = nb > 0 && bm != 0 ? \
                (quantile(b, nb, 0.75) - quantile(b, nb, 0.25)) / bm : 0
            if (spread < 0) spread = -spread
            if (worse == "nan") within = "n/a"
            else if (spread >= bound[m] && !outright) within = "unresolved"
            else within = worse <= bound[m] ? "yes" : "NO"
            printf "%-16s %12.6g %12.6g %12.6g %12.6g %12.6g %12.6g %8.4f %3d/%-2d %3d/%-2d %8s %s\n", \
                name[m], bm, quantile(b, nb, 0.25), quantile(b, nb, 0.75), \
                cm, quantile(c, nc, 0.25), quantile(c, nc, 0.75), \
                quantile(r, nr, 0.5), wins, np[w], equal, np[w], bound[m], within
        }
    }
}
' "$results"

if ((status)); then
    echo "at least one run failed or printed \"correct\": false (see $results)" >&2
fi
exit "$status"
