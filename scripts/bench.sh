#!/usr/bin/env bash
# bench.sh — run the txengine hot-path microbenchmark suite and emit a
# machine-readable JSON result file (default BENCH_8.json at the repo
# root), establishing the repository's perf trajectory across PRs.
#
# Usage:
#   scripts/bench.sh [out.json]
#   BENCHTIME=2s COUNT=3 scripts/bench.sh        # longer, repeated runs
#   SERVECONNS=256 SERVEDUR=1s scripts/bench.sh  # smaller serving A/B
#
# The suite lives in internal/txengine/: the sharded-runtime hot paths
# (key routing, single-shard commit fast path, cross-shard group commit
# unhinted vs hinted, disjoint-key hinted transfers under contention, latch
# table) plus the PR 7 OCC-read vs snapshot-read pair
# (BenchmarkReadMostly*): the same 95/5 mix with read probes as validated
# OCC read-only transactions vs validation-free MVCC snapshot reads. The
# JSON also records a cache workload A/B at -readpct 95 — OCC control vs
# -snapshot — with the stats that certify snapshot reads never abort or
# restart.
#
# PR 8 adds the end-to-end serving A/B: txserver on medley-sharded sh4,
# txload at SERVECONNS connections (default 1024), three rows — pipeline 1
# with batching off, pipeline 8 with batching off, pipeline 8 with batching
# on — so the JSON pins both the pipelining win and the batch scheduler's
# win at equal-or-better tail latency. Each row's server is drained with
# SIGTERM and must exit clean.
#
# PR 9 adds the serving-layer microbenchmarks (internal/server: wire
# encode/decode alloc counts and loopback Get round-trips, lane on vs off)
# and the read-lane serving A/B: the same conns/pipeline at -readpct 90 and
# 99, read lane on vs -noreadlane, so the JSON pins the snapshot fast
# lane's throughput win and shows the write path's tail is not regressed.
#
# Committed BENCH_N.json files for earlier PRs are history, not scratch
# space: writing over one would silently rewrite the perf trajectory, so the
# script refuses unless the target is this PR's own file or an uncommitted
# path.
set -euo pipefail
cd "$(dirname "$0")/.."

pr=9
out="${1:-BENCH_${pr}.json}"
benchtime="${BENCHTIME:-0.5s}"
count="${COUNT:-1}"
abdur="${ABDUR:-1s}"
serveconns="${SERVECONNS:-1024}"
servedur="${SERVEDUR:-2s}"
servewarm="${SERVEWARM:-500ms}"
serveaddr="${SERVEADDR:-127.0.0.1:7461}"

# Refuse to clobber a committed BENCH_N.json belonging to an earlier PR.
if [[ "$(basename "$out")" =~ ^BENCH_([0-9]+)\.json$ ]]; then
  n="${BASH_REMATCH[1]}"
  if [ "$n" -lt "$pr" ] && git ls-files --error-unmatch "$out" >/dev/null 2>&1; then
    echo "refusing to overwrite committed $out (PR $n history; this is PR $pr)" >&2
    exit 1
  fi
fi

raw="$(mktemp)"
bindir="$(mktemp -d)"
trap 'rm -f "$raw" "$raw.results" "$raw.ab" "$raw.serve" "$raw.readab" "$raw.srvlog"; rm -rf "$bindir"' EXIT

go test -run '^$' -bench '.' -benchmem -benchtime "$benchtime" -count "$count" \
  ./internal/txengine/ ./internal/server/ | tee "$raw"

awk '
  /^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    printf "%s    {\"name\": \"%s\", \"iters\": %s, \"ns_per_op\": %s, \"b_per_op\": %s, \"allocs_per_op\": %s}", sep, name, $2, $3, $5, $7
    sep = ",\n"
  }
  END {
    if (sep == "") { print "no benchmark lines parsed" > "/dev/stderr"; exit 1 }
  }
' "$raw" > "$raw.results"

# Cache workload A/B: the same read-mostly mix through OCC read-only
# transactions and through MVCC snapshot reads. The row's fields are looked
# up by the names in the table's header row (system, threads, txn/s,
# commits, aborts, retries, snapread, snapstale), so a column added to or
# dropped from the table cannot shift them onto the wrong values.
run_cache() { # $1 = extra flags, $2 = mode label
  go run ./cmd/medleybench -workload cache -systems medley-sharded -shards 4 \
    -threads 4 -dur "$abdur" -scale 0.05 -readpct 95 $1 |
  awk -v mode="$2" '
    $1 == "system" { for (i = 1; i <= NF; i++) col[$i] = i; next }
    ("snapstale" in col) && $2 ~ /^[0-9]+$/ {
      printf "    {\"mode\": \"%s\", \"system\": \"%s\", \"threads\": %s, \"txn_per_s\": %s, \"commits\": %s, \"aborts\": %s, \"retries\": %s, \"snapshot_reads\": %s, \"snapshot_stale\": %s}", mode, $col["system"], $col["threads"], $col["txn/s"], $col["commits"], $col["aborts"], $col["retries"], $col["snapread"], $col["snapstale"]
      found = 1
      exit
    }
    END { if (!found) { print "cache A/B: no result row under a header with snapstale" > "/dev/stderr"; exit 1 } }'
}

echo "# cache A/B (readpct 95, medley-sharded sh4): OCC control vs -snapshot"
{
  run_cache "" occ; echo ','
  run_cache "-snapshot" snapshot; echo
} > "$raw.ab"

# Serving A/B: end-to-end throughput and tail latency through txserver at
# $serveconns concurrent connections. One row per (pipeline, batching)
# configuration; each row gets a fresh server, a SIGTERM drain, and a
# clean-exit check.
go build -o "$bindir/txserver" ./cmd/txserver
go build -o "$bindir/txload" ./cmd/txload
run_serve() { # $1 = mode label, $2 = server -batch, $3 = txload -pipeline,
              # $4 = extra txserver flags, $5 = extra txload flags
  "$bindir/txserver" -addr "$serveaddr" -shards 4 -batch "$2" ${4:-} > "$raw.srvlog" 2>&1 &
  local srvpid=$!
  "$bindir/txload" -addr "$serveaddr" -conns "$serveconns" -pipeline "$3" \
    -dur "$servedur" -warmup "$servewarm" -lat -json ${5:-} |
    sed "s/^{/{\"mode\": \"$1\", /" | tr -d '\n'
  kill -TERM "$srvpid"
  wait "$srvpid"
  if ! grep -q "drained clean" "$raw.srvlog"; then
    echo "txserver ($1) did not drain clean:" >&2
    cat "$raw.srvlog" >&2
    exit 1
  fi
}

echo "# serving A/B (txserver medley-sharded sh4, $serveconns conns): pipelining and batching on vs off"
{
  echo -n '    '; run_serve p1_nobatch 1 1; echo ','
  echo -n '    '; run_serve p8_nobatch 1 8; echo ','
  echo -n '    '; run_serve p8_batch 0 8; echo
} > "$raw.serve"
sed 's/^    //' "$raw.serve"

# Read-lane serving A/B: identical conns/pipeline, snapshot read lane on vs
# -noreadlane, at a read-mostly mix (readpct 90) and a read-dominated one
# (readpct 99). The lane rows must beat their control on req/s; the 90/10
# rows also carry the write path, whose p99 must not regress.
echo "# serving read A/B (txserver medley-sharded sh4, $serveconns conns, pipeline 8): read lane vs -noreadlane"
{
  echo -n '    '; run_serve r90_lane   0 8 ""           "-readpct 90"; echo ','
  echo -n '    '; run_serve r90_nolane 0 8 -noreadlane  "-readpct 90"; echo ','
  echo -n '    '; run_serve r99_lane   0 8 ""           "-readpct 99"; echo ','
  echo -n '    '; run_serve r99_nolane 0 8 -noreadlane  "-readpct 99"; echo
} > "$raw.readab"
sed 's/^    //' "$raw.readab"

{
  echo '{'
  echo '  "suite": "txengine + serving hot-path microbenchmarks + OCC-vs-snapshot read pair + end-to-end serving A/Bs (pipelining/batching, read lane)",'
  echo "  \"pr\": $pr,"
  echo "  \"go\": \"$(go env GOVERSION)\","
  echo "  \"host_cpus\": $(getconf _NPROCESSORS_ONLN),"
  echo "  \"gomaxprocs\": $(go run ./scripts/gomaxprocs 2>/dev/null || getconf _NPROCESSORS_ONLN),"
  echo "  \"benchtime\": \"$benchtime\","
  echo "  \"count\": $count,"
  cpu="$(awk '/^cpu:/ { sub(/^cpu: */, ""); print; exit }' "$raw")"
  echo "  \"cpu\": \"${cpu}\","
  echo '  "results": ['
  cat "$raw.results"; echo
  echo '  ],'
  echo '  "snapshot_cache_ab": ['
  cat "$raw.ab"
  echo '  ],'
  echo '  "serving_ab": ['
  cat "$raw.serve"
  echo '  ],'
  echo '  "serving_read_ab": ['
  cat "$raw.readab"
  echo '  ]'
  echo '}'
} > "$out"

echo "wrote $out"
