#!/bin/sh
# ci.sh — the tier-1 gate for this repository.
#
# Every change must pass this script before it lands. It runs, in order:
#   1. gofmt -l      (formatting)
#   2. go vet        (static checks)
#   3. go build      (everything compiles, including examples and cmds)
#   4. go test       (full unit/integration suite, includes the
#                     Workers ∈ {1,2,4} determinism cross-check)
#   5. go test -race (whole module under the race detector; the parallel
#                     window protocol must be data-race free)
#   6. differential harness (500 random MPI workloads under -race,
#                     sequential vs Workers ∈ {2,4}, engine/MPI invariants
#                     enabled; payload digests double as a check that
#                     data-plane pooling never leaks one message's bytes
#                     into another)
#   6b. golden pins + driver equivalence (both drivers — closure Block
#                     and program Step — run the same state machines; the
#                     checked-in goldens are the reference: 500 per-seed
#                     Outcome digests in closure and program mode at
#                     Workers 1/2/4 and small Table II / I/O-ablation rows
#                     in both ProgMode values, beside the closure-vs-
#                     program twin tests, all under -race)
#   7. fuzz smoke     (10s of coverage-guided fuzzing per parsing surface;
#                     checked-in corpora already ran as regressions in 4)
#   8. BenchmarkHandoff allocation gate (the context-switch hot path
#                     must stay at 0 allocs/op — Validate must cost nothing
#                     when off)
#   8b. BenchmarkPingPong allocation gate (the MPI data plane recycles
#                     envelopes/requests/payload buffers; a regression that
#                     reintroduces per-message allocation fails here)
#   8c. steady-state allocation gate (the free lists live for the whole
#                     run: doubling the steps of a 4,096-rank program-mode
#                     halo exchange must add under one allocation per
#                     rank-step)
#   8d. bytes-per-VP budget gate (a 256k-rank program-mode world must
#                     stay within 1 KiB of resident memory per virtual
#                     process after one exchange step — the paper's
#                     oversubscription scaling dimension)
#   8e. checkpointing-workload memory gate (the full Table II loop in
#                     program mode at 256k ranks must finish within
#                     1.25 KiB of live memory per virtual process)
#   9. campaign-parallelism smoke (a pooled campaign under -race must
#                     produce bit-identical results to the sequential one:
#                     pool=4 vs pool=1 digests for the Table II grid and a
#                     50-seed campaign set)
#   10. checkpoint-I/O ablation smoke (with the I/O cost on, the free arm
#                     stays strictly fastest and the tiered hierarchy
#                     strictly beats the flat shared PFS; the buddy-copy
#                     drain fallback and replica-aware cleanup run under
#                     -race)
#   11. campaign-service smoke (a -race build of xsim-server serves a
#                     Table II campaign whose result is bit-for-bit the
#                     CLI's `xsim-run -campaign` output; resubmission is a
#                     cache hit with zero new simulations per /metrics;
#                     SIGTERM drains and exits cleanly)
set -eu

cd "$(dirname "$0")"

echo "== gofmt -l"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== go test ./..."
go test ./...

echo "== go test -race ./..."
go test -race ./...

echo "== differential harness (500 seeds, Validate on, -race)"
XSIM_DIFF_SEEDS=500 go test -race -count=1 -run '^TestDifferentialSeqVsParallel$' ./internal/mpitest/

echo "== golden pins and driver equivalence (-race)"
# Every blocking operation is written once, as a step state machine; the
# closure driver (Env.Drive blocking on core.Ctx.Block) and the program
# driver (the scheduler calling Step) run the same machines. The goldens
# checked in before that refactor are the reference: every random
# workload's Outcome digest (closure and program mode, Workers in
# {1,2,4}) and the small Table II / checkpoint-I/O rows in both ProgMode
# values must match them byte for byte. The twin tests still compare the
# two drivers directly.
XSIM_DIFF_SEEDS=500 go test -race -count=1 -run '^TestGoldenOutcomeDigests$' ./internal/mpitest/
go test -race -count=1 -run '^(TestGoldenTables|TestGoldenDeterminism)$' .
XSIM_DIFF_SEEDS=500 go test -race -count=1 -run '^TestDifferentialClosureVsProg$' ./internal/mpitest/
go test -race -count=1 -run '^(TestProgHeatMatchesClosure|TestProgHeatWithFailureMatchesClosure|TestProgStepOpsMatchClosure|TestProgCollectiveWithFailureMatchesClosure)$' ./internal/mpi/
go test -race -count=1 -run '^(TestHeatProgMatchesClosure|TestHeatProgRestartMatchesClosure)$' ./internal/heat/
go test -race -count=1 -run '^TestRunTableIIProgModeMatchesClosure$' .

echo "== fuzz smoke (10s per target)"
go test -run '^$' -fuzz '^FuzzUnframe$' -fuzztime 10s ./internal/mpi/
go test -run '^$' -fuzz '^FuzzDecodeF64s$' -fuzztime 10s ./internal/mpi/
go test -run '^$' -fuzz '^FuzzDecode$' -fuzztime 10s ./internal/checkpoint/
go test -run '^$' -fuzz '^FuzzLoadExitTime$' -fuzztime 10s ./internal/checkpoint/
go test -run '^$' -fuzz '^FuzzParse$' -fuzztime 10s ./internal/fault/
go test -run '^$' -fuzz '^FuzzCampaignSpecDecode$' -fuzztime 10s .

echo "== BenchmarkHandoff allocation gate"
bench=$(go test -run '^$' -bench '^BenchmarkHandoff$' -benchmem -benchtime 1000x ./internal/core/)
echo "$bench"
echo "$bench" | awk '
	/^BenchmarkHandoff/ {
		seen = 1
		for (i = 1; i <= NF; i++) {
			if ($i == "allocs/op" && $(i-1) != "0") {
				print "FAIL: handoff hot path allocates (" $(i-1) " allocs/op, want 0)" > "/dev/stderr"
				exit 1
			}
		}
	}
	END { if (!seen) { print "FAIL: BenchmarkHandoff did not run" > "/dev/stderr"; exit 1 } }
'

echo "== BenchmarkPingPong allocation gate"
# Pre-pooling the round-trip cost 20 (eager) / 26 (rendezvous) allocs/op;
# the pooled data plane runs at 6/6. Gate at half the old numbers so noise
# cannot flake the build but a real regression cannot hide.
bench=$(go test -run '^$' -bench '^BenchmarkPingPong$' -benchmem -benchtime 1000x ./internal/mpi/)
echo "$bench"
echo "$bench" | awk '
	/^BenchmarkPingPong\/eager/    { kind = "eager"; limit = 10 }
	/^BenchmarkPingPong\/rendezvous/ { kind = "rendezvous"; limit = 13 }
	/^BenchmarkPingPong\// {
		seen++
		for (i = 1; i <= NF; i++) {
			if ($i == "allocs/op" && $(i-1) + 0 > limit) {
				print "FAIL: ping-pong " kind " path allocates (" $(i-1) " allocs/op, want <= " limit ")" > "/dev/stderr"
				exit 1
			}
		}
	}
	END { if (seen != 2) { print "FAIL: BenchmarkPingPong sub-benchmarks did not run" > "/dev/stderr"; exit 1 } }
'

echo "== steady-state allocation gate (program-mode halo, 4096 ranks)"
# The first halo burst's requests, envelopes, messages and events stay on
# the run-lifetime free lists and serve every later step. The test runs
# 10 and 20 exchange steps and fails if the extra steps cost one
# allocation per rank-step or more; counts at one worker are
# deterministic.
go test -count=1 -v -run '^TestHaloSteadyStateAllocs$' ./internal/mpi/

echo "== bytes-per-VP budget gate (program mode, 256k ranks)"
# PR 6 carried the residual cost of one virtual process from ~2.3 KB to
# under 1 KB (bounded carriers + program VPs + slimmed per-process MPI
# state). Gate at 1024 bytes/vp so a regression that reintroduces a
# per-VP map, goroutine, or unbounded pool fails loudly.
bench=$(go test -run '^$' -bench '^BenchmarkBytesPerVP/prog/ranks=262144$' -benchtime 1x ./internal/mpi/)
echo "$bench"
echo "$bench" | awk '
	/^BenchmarkBytesPerVP\/prog\/ranks=262144/ {
		seen = 1
		for (i = 1; i <= NF; i++) {
			if ($i == "bytes/vp" && $(i-1) + 0 > 1024) {
				print "FAIL: program-mode VP footprint is " $(i-1) " bytes/vp, want <= 1024" > "/dev/stderr"
				exit 1
			}
		}
	}
	END { if (!seen) { print "FAIL: BenchmarkBytesPerVP/prog/ranks=262144 did not run" > "/dev/stderr"; exit 1 } }
'

echo "== checkpointing-workload memory gate (program mode, 256k ranks)"
# The full Table II loop (halo exchange + checkpoint + barrier every other
# iteration) must leave at most 1.25 KiB of live memory per virtual
# process once the run completes — the budget that makes 256k–1M-rank
# campaigns feasible on one host. Gates the post-run live footprint
# (retained-bytes/vp); the mid-run peak is reported alongside for the
# closure-vs-program comparison but is dominated by the all-ranks halo
# burst, which is reused capacity, not per-rank state.
bench=$(go test -run '^$' -bench '^BenchmarkHeatCkptBytesPerVP/prog/ranks=262144$' -benchtime 1x ./internal/heat/)
echo "$bench"
echo "$bench" | awk '
	/^BenchmarkHeatCkptBytesPerVP\/prog\/ranks=262144/ {
		seen = 1
		for (i = 1; i <= NF; i++) {
			if ($i == "retained-bytes/vp" && $(i-1) + 0 > 1280) {
				print "FAIL: checkpointing program-mode footprint is " $(i-1) " retained-bytes/vp, want <= 1280" > "/dev/stderr"
				exit 1
			}
		}
	}
	END { if (!seen) { print "FAIL: BenchmarkHeatCkptBytesPerVP/prog/ranks=262144 did not run" > "/dev/stderr"; exit 1 } }
'

echo "== campaign-parallelism smoke (pool=4 vs pool=1 digests, -race)"
go test -race -count=1 -run '^(TestRunCampaignsDeterministicAcrossPools|TestTableIIPoolMatchesSequential|TestTableIPoolMatchesSequential)$' .

echo "== replication-crossover smoke (r in {2,3}, one MTTF point, -race)"
go test -race -count=1 -run '^(TestReplicationCrossoverSmoke|TestReplicatedStencilFailoverRun|TestMirrorFailoverSurvivesReplicaDeath|TestParallelPartnerDeathMidDigestExchange)$' . ./internal/redundancy/

echo "== checkpoint-I/O ablation smoke (free < tiered < flat-pfs, -race)"
go test -race -count=1 -run '^(TestCheckpointIOAblationSmoke|TestDrainInterruptedByFailureFallsBackATier|TestReplicaAwareCleanupKeepsCoveredSets)$' . ./internal/checkpoint/

echo "== campaign-service smoke (server vs CLI bit-for-bit, cache hit, drain)"
smoke_dir=$(mktemp -d)
server_pid=""
cleanup_smoke() {
	[ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null
	rm -rf "$smoke_dir"
}
trap cleanup_smoke EXIT

go build -race -o "$smoke_dir/xsim-server" ./cmd/xsim-server
go build -o "$smoke_dir/xsim-run" ./cmd/xsim-run
cat > "$smoke_dir/campaign.json" <<'EOF'
{"version":1,"kind":"table2","ranks":64,"seed":133,"table2":{"iterations":200,"intervals":[100,50],"mttf_seconds":[1000]}}
EOF

addr=localhost:18462
"$smoke_dir/xsim-server" -addr "$addr" -workers 2 &
server_pid=$!
ok=""
for _ in $(seq 1 100); do
	if curl -fsS "$addr/healthz" >/dev/null 2>&1; then ok=1; break; fi
	sleep 0.1
done
[ -n "$ok" ] || { echo "FAIL: xsim-server never became healthy" >&2; exit 1; }

id=$(curl -fsS -X POST -H 'X-Tenant: ci' --data-binary @"$smoke_dir/campaign.json" \
	"$addr/v1/campaigns" | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p')
[ -n "$id" ] || { echo "FAIL: submit returned no campaign id" >&2; exit 1; }

# The NDJSON stream must carry progress events and end at the terminal line.
curl -fsS --no-buffer "$addr/v1/campaigns/$id/events" > "$smoke_dir/events.ndjson"
grep -q '"event":"progress"' "$smoke_dir/events.ndjson"
grep -q '"event":"done"' "$smoke_dir/events.ndjson"
grep -q '"state":"completed"' "$smoke_dir/events.ndjson"

# Transport equivalence: the served result must be bit-for-bit the CLI's.
curl -fsS "$addr/v1/campaigns/$id/result" > "$smoke_dir/server-result.json"
"$smoke_dir/xsim-run" -campaign "$smoke_dir/campaign.json" > "$smoke_dir/cli-result.json"
cmp "$smoke_dir/server-result.json" "$smoke_dir/cli-result.json"

# Resubmission (different tenant, extra execution knobs) is a cache hit
# that runs zero new simulations.
curl -fsS -X POST -H 'X-Tenant: ci2' --data-binary \
	'{"version":1,"kind":"table2","ranks":64,"seed":133,"workers":2,"pool":1,"table2":{"iterations":200,"intervals":[100,50],"mttf_seconds":[1000]}}' \
	"$addr/v1/campaigns" | grep -q '"cached": *true'
curl -fsS "$addr/metrics" > "$smoke_dir/metrics.txt"
grep -q '^xsim_sim_runs_total 1$' "$smoke_dir/metrics.txt"
grep -q '^xsim_cache_hits_total 1$' "$smoke_dir/metrics.txt"
grep -q '^xsim_cache_misses_total 1$' "$smoke_dir/metrics.txt"

# Graceful drain: SIGTERM must exit 0 (the -race build also verifies the
# shutdown path is data-race free).
kill -TERM "$server_pid"
wait "$server_pid"
server_pid=""

echo "CI OK"
