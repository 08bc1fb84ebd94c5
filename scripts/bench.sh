#!/usr/bin/env bash
# bench.sh — run the root benchmark suite and emit a JSON report
# (benchmark name -> ns/op, B/op, allocs/op) for the perf trajectory.
#
# Usage: scripts/bench.sh [output.json]
#        scripts/bench.sh --compare [previous.json]
#        scripts/bench.sh --readme
#
# Plain mode writes a report with a "current" section holding this run's
# numbers and, when a BENCH_BASELINE.json snapshot exists at the repo root
# (the numbers of the unoptimized seed), a "baseline" section copied from
# it, so speedups can be read off one file. The default output is
# BENCH_<N>.json at the repo root for the smallest N not yet taken
# (BENCH_1.json first).
#
# Compare mode runs a fresh suite (after one warmup pass, keeping the
# fastest of BENCH_COUNT timed runs per benchmark) against the "current"
# section of the given snapshot (default: the BENCH_<N>.json with the
# highest N). An ablation benchmark (BenchmarkAblation*) that is more than
# 25% slower in ns/op is re-measured in a second, targeted pass; the gate
# fails — exit 1 — only for regressions that reproduce there, so one load
# spike on a shared runner cannot fail the build while a real regression
# still does. A missing baseline is an error (exit 2), never a silent
# pass. The verdicts are also written as a markdown table to BENCH_DIFF.md
# (override with BENCH_DIFF) for CI artifact upload, the fresh numbers to
# BENCH_FRESH.json (override with BENCH_FRESH); BENCH_DIFF.md is truncated
# to a "did not complete" stub as soon as compare mode starts, so an
# aborted run can never leave a previous run's verdicts behind. On success
# the README benchmark-trajectory table is refreshed from the committed
# snapshots.
#
# Readme mode only regenerates the README table (between the
# "bench-table" markers) from BENCH_BASELINE.json and every committed
# BENCH_<N>.json, without running anything.
set -euo pipefail

cd "$(dirname "$0")/.."

REGRESSION_PCT=25

compare=0
readme_only=0
case "${1:-}" in
--compare)
    compare=1
    shift
    ;;
--readme)
    readme_only=1
    shift
    ;;
esac

# extract_current FILE — print "name ns_op" pairs from the "current"
# section of one of our reports (or from the whole file if it has no
# sections, as in BENCH_BASELINE.json).
extract_current() {
    awk '
    /"current":/ { in_current = 1 }
    in_current || !saw_section {
        if ($0 ~ /"Benchmark[^"]*": *\{/) {
            name = $0; sub(/^[ ]*"/, "", name); sub(/".*$/, "", name)
            ns = $0; sub(/.*"ns_op": */, "", ns); sub(/[,}].*$/, "", ns)
            print name, ns
        }
    }
    /"baseline":/ { saw_section = 1 }
    ' "$1"
}

# snap_pr SNAPNUM — the PR that recorded snapshot N. Snapshots are
# numbered densely (the compare gate discovers the latest one by counting
# up from 1), but not every PR records a snapshot, so the two sequences
# diverge: PRs 7-8 (serving layer, load harness) changed no benchmarked
# paths and recorded none, and PRs 10-12 recorded none either.
snap_pr() {
    case "$1" in
    7) echo 9 ;;
    8) echo 13 ;;
    *) echo "$1" ;;
    esac
}

# readme_table rewrites the trajectory table between the bench-table
# markers of README.md: one row per ablation benchmark (plus the full
# experiment suite), one column per committed snapshot, and the overall
# seed→latest speedup.
readme_table() {
    local readme="README.md"
    [[ -f "$readme" ]] || return 0
    grep -q '<!-- bench-table:start -->' "$readme" || return 0
    local snaps=() labels=()
    if [[ -f BENCH_BASELINE.json ]]; then
        snaps+=(BENCH_BASELINE.json)
        labels+=(seed)
    fi
    local n=1
    while [[ -e "BENCH_${n}.json" ]]; do
        snaps+=("BENCH_${n}.json")
        labels+=("PR $(snap_pr "$n")")
        n=$((n + 1))
    done
    [[ "${#snaps[@]}" != 0 ]] || return 0

    local table
    table="$(
        for s in "${snaps[@]}"; do
            extract_current "$s" | awk -v src="$s" '{ print src, $1, $2 }'
        done | awk -v files="${snaps[*]}" -v labelstr="$(IFS='|'; echo "${labels[*]}")" '
        function fmt(ns) {
            if (ns == "") return "—"
            if (ns + 0 >= 1e9) return sprintf("%.2f s", ns / 1e9)
            if (ns + 0 >= 1e6) return sprintf("%.1f ms", ns / 1e6)
            if (ns + 0 >= 1e3) return sprintf("%.1f µs", ns / 1e3)
            return sprintf("%.0f ns", ns + 0)
        }
        BEGIN { nf = split(files, fname, " "); split(labelstr, lbl, "|") }
        {
            name = $2
            if (name !~ /^BenchmarkAblation/ && name != "BenchmarkAllExperiments") next
            if (!(name in seen)) { seen[name] = ++rows; order[rows] = name }
            val[name, $1] = $3
        }
        END {
            printf "| benchmark (ns/op, min of runs) |"
            for (i = 1; i <= nf; i++) printf " %s |", lbl[i]
            printf " speedup |\n|---|"
            for (i = 1; i <= nf; i++) printf "---|"
            printf "---|\n"
            for (r = 1; r <= rows; r++) {
                name = order[r]
                short = name
                sub(/^BenchmarkAblation/, "", short)
                sub(/^Benchmark/, "", short)
                printf "| %s |", short
                for (i = 1; i <= nf; i++) printf " %s |", fmt(val[name, fname[i]])
                first = val[name, fname[1]]
                last = ""
                for (i = nf; i >= 1; i--)
                    if (val[name, fname[i]] != "") { last = val[name, fname[i]]; break }
                if (first != "" && last != "" && last + 0 > 0)
                    printf " %.1f× |\n", first / last
                else
                    printf " — |\n"
            }
        }'
    )"
    local tmp
    tmp="$(mktemp)"
    awk -v table="$table" '
        /<!-- bench-table:start -->/ { print; print table; skip = 1; next }
        /<!-- bench-table:end -->/ { skip = 0 }
        !skip { print }
    ' "$readme" > "$tmp"
    mv "$tmp" "$readme"
    echo "refreshed benchmark table in $readme (${#snaps[@]} snapshots)"
}

if [[ "$readme_only" == 1 ]]; then
    readme_table
    exit 0
fi

# Each benchmark runs BENCH_COUNT times and the report keeps the fastest
# iteration — the noise-robust estimator on shared machines, where load
# spikes only ever slow a run down.
BENCH_COUNT="${BENCH_COUNT:-3}"

run_suite() { # run_suite RAWFILE
    go test -run='^$' -bench=. -benchmem -count="$BENCH_COUNT" . | tee "$1"
}

emit_json() { # emit_json RAWFILE OUTFILE
    {
        echo "{"
        if [[ -f BENCH_BASELINE.json ]]; then
            echo '  "baseline":'
            sed 's/^/  /' BENCH_BASELINE.json
            echo "  ,"
        fi
        echo '  "current":'
        awk '
        /^Benchmark/ {
            name = $1
            sub(/-[0-9]+$/, "", name)   # strip the GOMAXPROCS suffix
            ns = ""; bytes = ""; allocs = ""
            for (i = 2; i <= NF; i++) {
                if ($i == "ns/op") ns = $(i - 1)
                if ($i == "B/op") bytes = $(i - 1)
                if ($i == "allocs/op") allocs = $(i - 1)
            }
            if (ns == "") next
            if (!(name in best) || ns + 0 < best[name] + 0) {
                best[name] = ns
                bbytes[name] = bytes
                ballocs[name] = allocs
            }
            if (!(name in order)) { order[name] = ++n; names[n] = name }
        }
        END {
            print "  {"
            for (i = 1; i <= n; i++) {
                name = names[i]
                printf "    \"%s\": {\"ns_op\": %s", name, best[name]
                if (bbytes[name] != "") printf ", \"b_op\": %s", bbytes[name]
                if (ballocs[name] != "") printf ", \"allocs_op\": %s", ballocs[name]
                printf "}"
                if (i < n) printf ","
                printf "\n"
            }
            print "  }"
        }
        ' "$1"
        echo "}"
    } > "$2"
}

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

if [[ "$compare" == 1 ]]; then
    prev="${1:-}"
    if [[ -z "$prev" ]]; then
        n=1
        while [[ -e "BENCH_${n}.json" ]]; do n=$((n + 1)); done
        if [[ "$n" == 1 ]]; then
            echo "bench.sh: no BENCH_<N>.json snapshot to compare against — run scripts/bench.sh once to record one" >&2
            exit 2
        fi
        prev="BENCH_$((n - 1)).json"
    fi
    if [[ ! -f "$prev" ]]; then
        echo "bench.sh: baseline snapshot $prev does not exist — nothing to compare against" >&2
        exit 2
    fi
    diffmd="${BENCH_DIFF:-BENCH_DIFF.md}"
    freshjson="${BENCH_FRESH:-BENCH_FRESH.json}"
    # Truncate the diff report up front: if this run dies mid-way, a CI
    # artifact upload must never surface a previous run's verdicts as if
    # they were this run's.
    {
        echo "# Benchmark comparison against \`$prev\`"
        echo
        echo "Run did not complete — no verdicts were produced."
    } > "$diffmd"
    echo "comparing fresh run against $prev (gate: >${REGRESSION_PCT}% ns/op regression in ablations, confirmed by a second pass)"

    echo "warmup pass (1 iteration per benchmark, discarded)..."
    go test -run='^$' -bench=. -benchtime=1x . >/dev/null
    run_suite "$raw" >/dev/null
    emit_json "$raw" "$freshjson"

    # First pass: flag candidate regressions and collect the diff rows.
    rows="$(mktemp)"
    trap 'rm -f "$raw" "$rows"' EXIT
    candidates=()
    missing=0
    while read -r name oldns; do
        case "$name" in BenchmarkAblation*) ;; *) continue ;; esac
        newns="$(extract_current "$freshjson" | awk -v n="$name" '$1 == n { print $2 }')"
        if [[ -z "$newns" ]]; then
            echo "MISSING  $name (in $prev but not in fresh run)"
            printf '%s\t%s\t%s\t%s\t%s\n' "$name" "$oldns" "—" "—" "MISSING" >> "$rows"
            missing=1
            continue
        fi
        verdict="$(awk -v old="$oldns" -v new="$newns" -v pct="$REGRESSION_PCT" \
            'BEGIN { print (new > old * (1 + pct / 100)) ? "REGRESSED" : "ok" }')"
        delta="$(awk -v old="$oldns" -v new="$newns" 'BEGIN { printf "%+.1f%%", (new - old) / old * 100 }')"
        printf '%-9s %-55s %14s -> %14s  (%s)\n' "$verdict" "$name" "$oldns" "$newns" "$delta"
        printf '%s\t%s\t%s\t%s\t%s\n' "$name" "$oldns" "$newns" "$delta" "$verdict" >> "$rows"
        if [[ "$verdict" == "REGRESSED" ]]; then candidates+=("$name"); fi
    done < <(extract_current "$prev")

    # Second pass: re-measure only the flagged benchmark families; a
    # regression counts only if it reproduces.
    fail="$missing"
    confirmed=()
    if [[ "${#candidates[@]}" != 0 ]]; then
        tops="$(printf '%s\n' "${candidates[@]}" | sed 's|/.*$||' | sort -u | paste -sd'|' -)"
        echo "re-measuring flagged benchmarks to confirm: ${tops}"
        raw2="$(mktemp)"
        json2="$(mktemp)"
        trap 'rm -f "$raw" "$rows" "$raw2" "$json2"' EXIT
        go test -run='^$' -bench="^(${tops})\$" -benchmem -count="$BENCH_COUNT" . | tee "$raw2" >/dev/null
        emit_json "$raw2" "$json2"
        for name in "${candidates[@]}"; do
            oldns="$(extract_current "$prev" | awk -v n="$name" '$1 == n { print $2 }')"
            rens="$(extract_current "$json2" | awk -v n="$name" '$1 == n { print $2 }')"
            if [[ -z "$rens" ]]; then
                echo "CONFIRMED $name (did not rerun)"
                fail=1
                confirmed+=("$name")
                continue
            fi
            verdict="$(awk -v old="$oldns" -v new="$rens" -v pct="$REGRESSION_PCT" \
                'BEGIN { print (new > old * (1 + pct / 100)) ? "CONFIRMED" : "transient" }')"
            delta="$(awk -v old="$oldns" -v new="$rens" 'BEGIN { printf "%+.1f%%", (new - old) / old * 100 }')"
            printf '%-9s %-55s %14s -> %14s  (%s, second pass)\n' "$verdict" "$name" "$oldns" "$rens" "$delta"
            awk -v n="$name" -v rens="$rens" -v d="$delta" -v v="$verdict" \
                'BEGIN { FS = OFS = "\t" } $1 == n { $3 = rens; $4 = d; $5 = v } { print }' \
                "$rows" > "$rows.tmp" && mv "$rows.tmp" "$rows"
            if [[ "$verdict" == "CONFIRMED" ]]; then
                fail=1
                confirmed+=("$name")
            fi
        done
    fi

    # Markdown diff table for the CI artifact.
    {
        echo "# Benchmark comparison against \`$prev\`"
        echo
        echo "Gate: >${REGRESSION_PCT}% ns/op regression in an ablation benchmark, confirmed by a second pass."
        echo
        echo "| benchmark | baseline ns/op | fresh ns/op | delta | verdict |"
        echo "|---|---|---|---|---|"
        awk 'BEGIN { FS = "\t" } { printf "| %s | %s | %s | %s | %s |\n", $1, $2, $3, $4, $5 }' "$rows"
    } > "$diffmd"
    echo "wrote $diffmd and $freshjson"

    if [[ "$fail" == 1 ]]; then
        echo "bench.sh: ablation regression detected (>${REGRESSION_PCT}% ns/op, reproduced)" >&2
        exit 1
    fi
    echo "no confirmed ablation regressions"
    readme_table
    exit 0
fi

out="${1:-}"
if [[ -z "$out" ]]; then
    n=1
    while [[ -e "BENCH_${n}.json" ]]; do n=$((n + 1)); done
    out="BENCH_${n}.json"
fi

run_suite "$raw"
emit_json "$raw" "$out"
echo "wrote $out"
