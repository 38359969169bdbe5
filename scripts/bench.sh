#!/usr/bin/env bash
# Regenerates the committed benchmark artifacts (BENCH_graph.json,
# BENCH_align.json, BENCH_overlap.json, BENCH_phase.json,
# BENCH_wire.json) and runs the package
# micro-benchmarks, with a vet+gofmt guard in front so numbers are never
# published from a tree that wouldn't pass review. Set RACE_GATE=1 to
# additionally run the full robustness gate (scripts/race.sh) before
# benchmarking.
#
# After graphbench the fresh numbers are checked: every *_parallel probe
# must not be slower than its *_serial sibling (beyond BENCH_TOLERANCE,
# default 10%) — the adaptive governor exists precisely so "parallel"
# never loses to "serial" on any host, including single-CPU ones where
# both resolve to the same serial path. Set BENCH_ALLOW_REGRESSION=1 to
# downgrade a failure to a warning (e.g. on a noisy shared box). Drift
# against the committed BENCH_graph.json baseline is reported as info.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== guard: go vet =="
go vet ./...

if [ "${RACE_GATE:-0}" = "1" ]; then
    echo "== guard: robustness gate (scripts/race.sh) =="
    FUZZTIME="${FUZZTIME:-10s}" "$(dirname "$0")/race.sh"
fi

echo "== guard: gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

# Committed baseline (if any) for the drift report, captured before
# graphbench overwrites the file in place.
baseline=$(git show HEAD:BENCH_graph.json 2>/dev/null || true)

echo "== graphbench (BENCH_graph.json) =="
go run ./cmd/focus-bench -exp graphbench

echo "== regression check: parallel vs serial =="
BENCH_BASELINE="$baseline" python3 - <<'EOF'
import json, os, sys

tol = float(os.environ.get("BENCH_TOLERANCE", "0.10"))
fresh = {e["name"]: e["ns_per_op"] for e in json.load(open("BENCH_graph.json"))}

bad = []
for name, ns in sorted(fresh.items()):
    if not name.endswith("_serial"):
        continue
    sibling = name[: -len("_serial")] + "_parallel"
    if sibling not in fresh:
        continue
    ratio = fresh[sibling] / ns
    mark = "FAIL" if ratio > 1 + tol else "ok"
    print(f"  {sibling:24s} {ratio:5.2f}x of {name} [{mark}]")
    if ratio > 1 + tol:
        bad.append((sibling, ratio))

base_raw = os.environ.get("BENCH_BASELINE", "")
if base_raw.strip():
    base = {e["name"]: e["ns_per_op"] for e in json.loads(base_raw)}
    for name in sorted(fresh):
        if name in base and base[name] > 0:
            drift = fresh[name] / base[name] - 1
            if abs(drift) >= 0.15:
                print(f"  note: {name} drifted {drift:+.0%} vs committed baseline")

if bad:
    msg = ", ".join(f"{n} ({r:.2f}x)" for n, r in bad)
    if os.environ.get("BENCH_ALLOW_REGRESSION", "0") == "1":
        print(f"WARNING: parallel slower than serial: {msg}")
    else:
        print(f"FAIL: parallel slower than serial: {msg}", file=sys.stderr)
        print("      (BENCH_ALLOW_REGRESSION=1 to override)", file=sys.stderr)
        sys.exit(1)
EOF

echo "== alignbench (BENCH_align.json) =="
go run ./cmd/focus-bench -exp alignbench

# Same spirit as the graph check: the bit-parallel kernel must not lose
# to the scalar one it replaced on the hot path — a regression here means
# kernel-selection plumbing (or per-item cancellation polling) grew
# overhead the governor can't hide.
echo "== regression check: bitparallel vs scalar =="
python3 - <<'EOF'
import json, os, sys

tol = float(os.environ.get("BENCH_TOLERANCE", "0.10"))
fresh = {e["name"]: e["ns_per_op"] for e in json.load(open("BENCH_align.json"))}

bad = []
for name, ns in sorted(fresh.items()):
    if not name.endswith("_scalar"):
        continue
    sibling = name[: -len("_scalar")] + "_bitparallel"
    if sibling not in fresh:
        continue
    ratio = fresh[sibling] / ns
    mark = "FAIL" if ratio > 1 + tol else "ok"
    print(f"  {sibling:24s} {ratio:5.2f}x of {name} [{mark}]")
    if ratio > 1 + tol:
        bad.append((sibling, ratio))

if bad:
    msg = ", ".join(f"{n} ({r:.2f}x)" for n, r in bad)
    if os.environ.get("BENCH_ALLOW_REGRESSION", "0") == "1":
        print(f"WARNING: bitparallel slower than scalar: {msg}")
    else:
        print(f"FAIL: bitparallel slower than scalar: {msg}", file=sys.stderr)
        print("      (BENCH_ALLOW_REGRESSION=1 to override)", file=sys.stderr)
        sys.exit(1)
EOF

echo "== overlapbench (BENCH_overlap.json) =="
go run ./cmd/focus-bench -exp overlapbench

# The overlap stage fans subset-pair jobs out over the par governor, so
# like the graph check its parallel probe must never lose to serial.
echo "== regression check: overlap parallel vs serial =="
python3 - <<'EOF'
import json, os, sys

tol = float(os.environ.get("BENCH_TOLERANCE", "0.10"))
fresh = {e["name"]: e["ns_per_op"] for e in json.load(open("BENCH_overlap.json"))}

serial, parallel = fresh["overlap_kmertable_serial"], fresh["overlap_kmertable_parallel"]
ratio = parallel / serial
mark = "FAIL" if ratio > 1 + tol else "ok"
print(f"  overlap_kmertable_parallel {ratio:5.2f}x of overlap_kmertable_serial [{mark}]")
if ratio > 1 + tol:
    msg = f"overlap_kmertable_parallel ({ratio:.2f}x)"
    if os.environ.get("BENCH_ALLOW_REGRESSION", "0") == "1":
        print(f"WARNING: parallel slower than serial: {msg}")
    else:
        print(f"FAIL: parallel slower than serial: {msg}", file=sys.stderr)
        print("      (BENCH_ALLOW_REGRESSION=1 to override)", file=sys.stderr)
        sys.exit(1)
EOF

echo "== phasebench (BENCH_phase.json) =="
go run ./cmd/focus-bench -exp phasebench

# The CSR graph-cleaning kernels are row-blocked over the same governor,
# so the combined-scan parallel probe must never lose to its serial
# sibling; the transitive-reduction headline (masked product vs the map
# walker it replaced) is printed for the drift record.
echo "== regression check: phase parallel vs serial =="
python3 - <<'EOF'
import json, os, sys

tol = float(os.environ.get("BENCH_TOLERANCE", "0.10"))
fresh = {e["name"]: e["ns_per_op"] for e in json.load(open("BENCH_phase.json"))}

serial, parallel = fresh["phase_serial"], fresh["phase_parallel"]
ratio = parallel / serial
mark = "FAIL" if ratio > 1 + tol else "ok"
print(f"  phase_parallel           {ratio:5.2f}x of phase_serial [{mark}]")
print(f"  transitive speedup: {fresh['phase_transitive_map'] / fresh['phase_transitive_csr']:.2f}x (csr vs map)")
if ratio > 1 + tol:
    msg = f"phase_parallel ({ratio:.2f}x)"
    if os.environ.get("BENCH_ALLOW_REGRESSION", "0") == "1":
        print(f"WARNING: parallel slower than serial: {msg}")
    else:
        print(f"FAIL: parallel slower than serial: {msg}", file=sys.stderr)
        print("      (BENCH_ALLOW_REGRESSION=1 to override)", file=sys.stderr)
        sys.exit(1)
EOF

echo "== wirebench (BENCH_wire.json) =="
go run ./cmd/focus-bench -exp wirebench

echo "== package micro-benchmarks =="
go test -run xxx -bench 'Pack|Unpack' -benchtime 200ms ./internal/dna/
go test -run xxx -bench 'LiveNeighbourQueries|SubgraphExtract' -benchtime 200ms ./internal/assembly/
go test -run xxx -bench 'BandedNWBitParallel|OverlapKernel' -benchtime 200ms ./internal/align/
go test -run xxx -bench 'CandGen' -benchtime 200ms ./internal/overlap/

echo "ok"
