#!/usr/bin/env bash
# Runs the workspace criterion benches and distills their fixed-width text
# output into a machine-readable JSON summary, written to the path given as
# the first argument (by convention `BENCH_<N>.json` in the workspace root,
# N = the change that produced it). There is no default, so a run can never
# silently overwrite an older snapshot. All durations are normalized to
# nanoseconds. Benches whose
# name ends in `_x<N>` run N operations per sample (the obs_overhead group);
# those entries additionally carry `per_op_median_ns` = median / N, which is
# the number scripts/check.sh holds against the span budget.
#
# Usage:
#   scripts/bench_summary.sh out.json
#   BENCH_INPUT=captured.txt scripts/bench_summary.sh out.json   # reparse
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -ne 1 ]]; then
    echo "usage: $0 out.json  (e.g. BENCH_12.json; existing: $(ls BENCH_*.json 2>/dev/null | tr '\n' ' '))" >&2
    exit 2
fi
out="$1"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

if [[ -n "${BENCH_INPUT:-}" ]]; then
    cp "$BENCH_INPUT" "$raw"
else
    cargo bench --workspace 2>&1 | tee "$raw"
fi

awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
function to_ns(v, u) {
    if (u == "ns") return v
    if (u == "µs" || u == "us") return v * 1e3
    if (u == "ms") return v * 1e6
    if (u == "s")  return v * 1e9
    return v
}
/ min .* median .* mean .*samples\)/ {
    name = $1
    min = med = mean = n = ""
    for (i = 2; i <= NF; i++) {
        if ($i == "min")    min  = to_ns($(i + 1), $(i + 2))
        if ($i == "median") med  = to_ns($(i + 1), $(i + 2))
        if ($i == "mean")   mean = to_ns($(i + 1), $(i + 2))
        if ($(i + 1) == "samples)") n = substr($i, 2)
    }
    if (min == "" || med == "" || mean == "" || n == "") next
    extra = ""
    if (match(name, /_x[0-9]+$/)) {
        batch = substr(name, RSTART + 2) + 0
        if (batch > 0)
            extra = sprintf(", \"per_op_median_ns\": %.1f", med / batch)
    }
    entries[++count] = sprintf( \
        "    {\"name\": \"%s\", \"min_ns\": %.1f, \"median_ns\": %.1f, \"mean_ns\": %.1f, \"samples\": %d%s}", \
        name, min, med, mean, n, extra)
}
END {
    printf "{\n"
    printf "  \"generated_by\": \"scripts/bench_summary.sh\",\n"
    printf "  \"generated_at\": \"%s\",\n", date
    printf "  \"unit\": \"ns\",\n"
    printf "  \"benches\": [\n"
    for (i = 1; i <= count; i++)
        printf "%s%s\n", entries[i], (i < count ? "," : "")
    printf "  ]\n}\n"
}
' "$raw" > "$out"

count="$(grep -c '"name"' "$out" || true)"
echo "wrote $out ($count benches)"
