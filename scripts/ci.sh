#!/bin/sh
# ci.sh — the repository's check pipeline, also run locally via `make check`.
# Keeps the tier-1 gate honest: vet, gofmt, build, the labflowvet determinism
# and hygiene analyzers, the full test suite under the race detector, the
# seeded crash and failover schedules, one tiny self-checked pass of every
# bench/ workload so the ruler cannot silently rot, and the two multi-process
# smokes (lfcluster + lfload).
set -eu
cd "$(dirname "$0")/.."

# listed PATTERN PKG... fails unless every |-separated name in PATTERN, a
# -run list below, matches a test that `go test -list` finds in PKG...:
# `go test -run` with a pattern that matches no test exits 0, so a renamed
# or deleted test would otherwise drop out of its step without a word.
listed() {
	pattern=$1
	shift
	found=$(go test -list . "$@" | grep -E '^(Test|Fuzz)') || found=
	for name in $(echo "$pattern" | tr '|' ' '); do
		if ! echo "$found" | grep -qE "$name"; then
			echo "ci.sh runs $name, but no test in $* matches it" >&2
			exit 1
		fi
	done
}

echo "== go vet ./..."
# vet's copylocks is the lock-copy gate: a mutex or atomic value copied by
# value (parameter, receiver, assignment, range variable) fails here, and
# labflowvet does not check it again.
go vet ./...

echo "== gofmt -l ."
fmt_drift=$(gofmt -l .)
if [ -n "$fmt_drift" ]; then
	echo "gofmt drift in:" >&2
	echo "$fmt_drift" >&2
	exit 1
fi

echo "== one measurement surface (no side benchmarks, lfload only against a cluster)"
# Published numbers come from bench/ alone: Makefile and scripts/ may not run
# the testing package's benchmarks, and may run lfload only with -topology.
if grep -nE 'go test.*[-]bench' Makefile scripts/*.sh; then
	echo "a Makefile or scripts/ line runs go-test benchmarks; use bench/" >&2
	exit 1
fi
if grep -nE '(/lfload"?|cmd/lfload) +-' Makefile scripts/*.sh | grep -v -e '-topology'; then
	echo "an lfload invocation without -topology; in-process load belongs to bench/" >&2
	exit 1
fi

echo "== go build ./..."
go build ./...

echo "== GOOS=windows GOARCH=amd64 go build ./... (the non-unix page read path)"
# pagefile serves page reads from a shared mapping on unix and with a pread
# elsewhere (view_other.go); building for windows keeps that path compiling.
GOOS=windows GOARCH=amd64 go build ./...

echo "== labflowvet ./... (-json artifact, 30s budget)"
# The full flow-aware suite must stay fast enough to sit in the inner loop:
# a 30-second budget on a cold `go run` is the regression tripwire. The JSON
# artifact is what CI archives; on findings it doubles as the failure report.
mkdir -p artifacts
lint_start=$(date +%s)
if ! go run ./cmd/labflowvet -json ./... >artifacts/lint.json; then
	echo "labflowvet findings (artifacts/lint.json):" >&2
	cat artifacts/lint.json >&2
	exit 1
fi
go run ./cmd/labflowvet -allowlist -json ./... >artifacts/lint-allowlist.json
lint_elapsed=$(( $(date +%s) - lint_start ))
echo "lint clean in ${lint_elapsed}s (artifacts/lint.json, artifacts/lint-allowlist.json)"
if [ "$lint_elapsed" -gt 30 ]; then
	echo "labflowvet took ${lint_elapsed}s, over the 30s budget" >&2
	exit 1
fi

echo "== golden staleness (make lint-fix-check)"
make lint-fix-check

echo "== go test -race -shuffle=on ./..."
# Shuffled order keeps tests honest about hidden ordering dependencies; any
# failure prints the -shuffle seed to replay with.
go test -race -shuffle=on ./...

echo "== crashtest: fixed-seed crash-recovery schedules (-race)"
# Deterministic: 200 seeded crash schedules per storage backend, anchored at
# FixedSeedBase, the same ostore seeds again in the failover round (one
# driver; the survivor is the promoted standby instead of the reopened
# primary, and it must reach the same five windows), plus the sharded
# one-shard-crashes schedules (through an in-process cluster's router, over
# the crashtest openers), so a regression here always reproduces
# bit-for-bit.
# The ostore round runs a seeded share of its transactions as two-committer
# pairs (one commit's flush held while the next seals behind it) and asserts
# that some seed crashed inside each of five named windows: the recycled
# log's two (in-place cursor rewrite, record over a retired record), the
# pipelined commit's two (sealed-behind-flush, and update-sealed-page: the
# commit behind the flush began with an in-place Update of a page the flush
# had still to write, the copy-on-write pin) and the streamed record's (a
# log write continuing a record an earlier write began, record-chunk); it
# runs past its 200 seeds until all five are hit. Both rounds' transactions
# mix in-place updates with allocations, rewrites and frees. The texas round asserts that some
# seed was refused as torn and some reopened at exactly its committed state,
# so neither round can go vacuous when op numbering shifts. The directed
# tests beside it pin each clause of the in-place-reuse safety argument (repl
# package comment) on its own, the pipelined commit's two failure rules,
# that a failed fault leaves either pager whole (ostore and texas), that a
# failed texas write-back keeps its victim resident and dirty, the shared
# buffer pool's CLOCK sweep, and cluster placement: small clusters share a
# start page, outgrown ones continue on pages of their own, and anchors on a
# former start page still extend after a reopen (pagefile).
# The in-place-reuse clauses live in repl.Log, which a primary and a
# standby share; TestLogFailedCheckpointKeepsTail pins the tail rule there,
# TestStandbyFailedCheckpointReplays and TestFailedCheckpointKeepsTail
# through each caller.
schedules='TestCrashSchedule'
schedule_pkgs='./internal/storage/crashtest/ ./internal/labbase/shard/'
listed "$schedules" $schedule_pkgs
go test -race -count=1 -run "$schedules" $schedule_pkgs
directed='TestScanLogIgnoresRetiredGeneration|TestNoStaleReplayAfterLSNRestart|TestCheckpointRecyclesInPlace|TestStandbyJournalLengthBounded|TestTornCursorRewrite|TestLogFailedCheckpointKeepsTail|TestStandbyFailedCheckpointReplays|TestFailedCheckpointKeepsTail|TestLogLengthBounded|TestParentLogOpens|TestFailedFlushFailsSealedBehind|TestShipFailureRecovery|TestTornChunkOverRetiredRecord|TestWriteRecord|TestFailedFaultLeavesPagerWhole|TestFailedWriteBackKeepsVictim|TestPoolClock|TestClustersShareThenSeparate|TestClusterAnchorsAfterReopen'
directed_pkgs='./internal/storage/repl/ ./internal/storage/ostore/ ./internal/storage/texas/ ./internal/storage/pagefile/'
listed "$directed" $directed_pkgs
go test -race -count=1 -run "$directed" $directed_pkgs
# The allocation tests skip under -race, whose instrumentation allocates, so
# they run here without it: a fault takes over its victim's frame and page
# buffer and allocates nothing (ostore and texas), a file backing serves a
# page read into the caller's buffer without allocating (pagefile), a
# same-size inline Write learns the old length in place (pagefile), a
# 40-page group's redo record streams through the flusher's 16-page buffer
# (ostore), a history or extent append changes its chunk in place,
# allocating at most its closure over ostore and memstore, and a warm
# decode-cache hit on a most-recent index allocates nothing (labbase).
allocs='TestFaultAllocatesNothing|TestFileReadAllocatesNothing|TestInlineWriteAllocatesNothing|TestWideRecordWriteAllocatesNothing|TestAppendCopiesNoChunk|TestDecodeCacheHitAllocatesNothing'
alloc_pkgs='./internal/storage/ostore/ ./internal/storage/texas/ ./internal/storage/pagefile/ ./internal/labbase/'
listed "$allocs" $alloc_pkgs
go test -count=1 -run "$allocs" $alloc_pkgs

echo "== crashtest: randomized-seed round"
# Fresh seeds every run widen coverage over time; the schedule is still
# fully determined by the seed, so a failure replays from the line below.
seed=$(date +%s)
go run ./cmd/labflow -experiment crashtest -store all -seed "$seed" -crashruns 25 >/dev/null || {
	echo "crashtest randomized round FAILED with base seed $seed" >&2
	echo "replay: go run ./cmd/labflow -experiment crashtest -store all -seed $seed -crashruns 25" >&2
	exit 1
}
echo "randomized round passed (base seed $seed)"

echo "== concurrent wire stress (-race, byte-identical + drain + op table + frame golden + frame fuzz)"
wire_stress='TestConcurrentReadsByteIdentical|TestConcurrentReadersWithWriter|TestShutdownDrainsPipelinedBurst|TestOpTable|TestFrameGolden'
listed "$wire_stress" ./internal/wire/
go test -race -count=1 -run "$wire_stress" ./internal/wire/
# The wire fuzz targets, for a fixed short budget: arbitrary frames at a
# primary's and a standby's handler must neither panic nor let a read-class
# opcode mutate. A crasher lands in internal/wire/testdata/fuzz as a seed.
go test -race -run '^$' -fuzz 'FuzzServerHandle' -fuzztime 10s ./internal/wire/
go test -race -run '^$' -fuzz 'FuzzStandbyHandle' -fuzztime 5s ./internal/wire/
# The redo-log scan, the one on-disk repl format: arbitrary log bytes must
# neither panic nor yield a record that does not re-encode to its bytes.
go test -race -run '^$' -fuzz 'FuzzScanLog' -fuzztime 5s ./internal/storage/repl/
# The slotted page, the on-disk format every pagefile record lives in:
# arbitrary page bytes must never panic an accessor, and what an accessor
# reports stored must read back.
go test -race -run '^$' -fuzz 'FuzzSlottedPage' -fuzztime 5s ./internal/storage/pagefile/
# The overflow stub, the record that spans pages: arbitrary stub bytes must
# never panic the decoder, and a stub it accepts must name exactly the
# extents its total needs, which bounds what a read allocates.
go test -race -run '^$' -fuzz 'FuzzOverflowStub' -fuzztime 5s ./internal/storage/pagefile/
# LabBase's in-place access structures, history and extent chunks and the
# most-recent index: arbitrary record bytes must fail their check with a
# typed error or serve every accessor without panicking.
go test -race -run '^$' -fuzz 'FuzzChunkRecords' -fuzztime 5s ./internal/labbase/
# The one-attribute step decoder MostRecent, MostRecentAsOf and AttrTimeline
# read through, against the whole record decode: on arbitrary bytes both
# must agree, for every attribute id, on the value, on whether it was found,
# on the count of values (which Dump reads) and on whether the record is
# refused.
go test -race -run '^$' -fuzz 'FuzzStepAttr' -fuzztime 5s ./internal/labbase/
# The homology oracle's postings index against the per-entry k-mer sets it
# replaced: on arbitrary sequences, holes and re-adds, every search must
# return the reference's hits, accessions, score bits and order alike, and
# every one-walk SearchAndPublish the reference's Search then Add.
go test -race -run '^$' -fuzz 'FuzzHomologySearch' -fuzztime 5s ./internal/seqio/
# The trace codec against encoding/json: on arbitrary bytes, UnmarshalJSON
# into a zero or a filled event must give reflective decoding's value or
# error, and every decoded event must encode to json.Marshal's bytes.
go test -race -run '^$' -fuzz 'FuzzTraceEvent' -fuzztime 5s ./internal/core/

echo "== stalled-flush stress (-race, a commit parked in its flush blocks only durable waits)"
# DESIGN §9 "What a reader can wait on": with a commit held inside the log's
# fsync, Read/Root/Stats return; over ostore so do the next writer's Begin
# and Seal, its durable wait and Close waiting for the parked flush (pagefile
# over a bare pager keeps Begin waiting; over texas the schedule must merely
# be harmless). Close against an in-flight group flush, a 16-page pool under
# eviction pressure, the sealed image against the rewritten frame, and the
# wire server releasing its writer lock before the durable wait (one-shot
# and bracketed, through a shard mapper's forwarded Seal) ride along, and
# twenty ostore stores opened and closed leave no goroutine behind.
# Repeated, since these are schedules.
stalled='TestCommitFlushOutsideMutex|TestStalledFlushBlocksOnlyWriters|TestStalledFlushHarmless|TestCloseDrainsInFlightFlush|TestSealedPagesStayResident|TestSealedImageIsNotTheLiveFrame|TestWriterLockReleasedBeforeDurableWait|TestMapperForwardsSeal|TestPagerLeavesNoGoroutine'
stalled_pkgs='./internal/storage/pagefile/ ./internal/storage/ostore/ ./internal/storage/texas/ ./internal/wire/ ./internal/labbase/shard/'
listed "$stalled" $stalled_pkgs
go test -race -count=5 -run "$stalled" $stalled_pkgs

echo "== snapshot + shard-core stress (-race -shuffle=on, lock-free readers vs writers + snapshot OpQuery)"
# The MVCC read-path contract (DESIGN §9): snapshots pinned across commits
# stay at their capture, concurrent batches never expose torn state (single
# DB and 4-shard), and OpQuery under concurrent connections is byte-identical
# to a single-connection reference while write batches land. TestCore* are the shard
# core's rules over fake members (DESIGN §12), whose gathers run concurrently.
# The in-process cluster (shard.Open) rides along: a fan-out whose frames
# outgrow a 4 KiB buffer completes over its unbuffered in-memory network,
# and closing it leaves no goroutine behind.
# TestStreamedExternsUnderWriter streams state/2 and material/2 walks out of
# held snapshots of a single DB while a writer moves and creates materials
# (DESIGN §10, index-driven externs). TestTreapHeldRootsUnchanged holds
# treap roots across puts and deletes: the path copy leaves every published
# node as it was.
snapshots='TestSnapshotAcrossCommits|TestSnapshotNeverTornMidBatch|TestShardSnapshotNeverTornMidBatch|TestTreapHeldRootsUnchanged|TestCore|TestBeginUnwindsWhenShardRefuses|TestOpenWidePutSteps|TestOpenCloseLeavesNoGoroutine|TestConcurrentQueryByteIdentical|TestConcurrentQueryWithWriteBatches|TestQueryUpdatesRejected|TestStreamedExternsUnderWriter'
snapshot_pkgs='./internal/labbase/ ./internal/labbase/shard/ ./internal/wire/ ./internal/lbq/'
listed "$snapshots" $snapshot_pkgs
go test -race -shuffle=on -count=1 -run "$snapshots" $snapshot_pkgs

echo "== bench smoke (every BENCHMARK.json workload at -scale 0.02, self-checked)"
# The one place an in-process workload runs; it exits non-zero when any
# result line says "correct":false.
make bench-smoke

echo "== cluster smoke (2 labbase-server processes, lfload through the router)"
./scripts/cluster_smoke.sh

echo "== failover smoke (warm standbys, primary SIGKILLed under load)"
./scripts/failover_smoke.sh

echo "== failover crashtest (fixed seeds, committed-prefix after promotion, ostore)"
go run ./cmd/labflow -experiment failover -store ostore -crashruns 25 >/dev/null || {
	echo "failover crashtest FAILED; replay:" >&2
	echo "  go run ./cmd/labflow -experiment failover -store ostore -crashruns 25" >&2
	exit 1
}

echo "== recovery, provenance and all, each run twice: bounded replay, answer sets, byte-identical output"
# Every line labflow prints is a function of its flags, so two runs must
# print the same bytes: a clock or a print in map order fails here. The
# recovery run itself fails when a reopen replays past its checkpoint bound
# or a promoted standby has anything to replay; the provenance run (small
# DAGs, all three evaluation modes) on any cross-mode answer-set inequality.
# Its small budget makes fanout 16 and diamond 8 measured DNF rows and
# diamond 16 a skipped one, so both kinds of DNF row are compared too.
# "all" (about 1.5 s a run) covers table10 and E2-E5, every table the one
# generated workload stream drives. Both runs share one -dir: a run must not
# open what an earlier run left there.
det=$(mktemp -d)
go build -o "$det/labflow" ./cmd/labflow
for exp in "recovery" "provenance -depths 4,8,16 -budget 20000" "all"; do
	# $exp is split into the experiment and its flags on purpose.
	"$det/labflow" -experiment $exp -dir "$det/work" >"$det/first" &&
		"$det/labflow" -experiment $exp -dir "$det/work" >"$det/second" || {
		echo "labflow -experiment $exp FAILED; replay: go run ./cmd/labflow -experiment $exp" >&2
		exit 1
	}
	if ! cmp -s "$det/first" "$det/second"; then
		echo "labflow -experiment $exp printed different output on two runs:" >&2
		diff "$det/first" "$det/second" >&2 || true
		exit 1
	fi
done

echo "== lfgen smoke: a generated trace replays into ostore"
# The workload stream's JSON edge end to end: lfgen encodes the mutations as
# they are generated, and -replay decodes each line and feeds the applier
# every experiment uses, into a persistent store.
go build -o "$det/lfgen" ./cmd/lfgen
"$det/lfgen" -scale 8 -halves 2 -out "$det/trace.jsonl" &&
	"$det/lfgen" -replay "$det/trace.jsonl" -store ostore -path "$det/replay" || {
	echo "lfgen generate/replay smoke FAILED; replay: go run ./cmd/lfgen -scale 8 -halves 2 -out t.jsonl && go run ./cmd/lfgen -replay t.jsonl -store ostore" >&2
	exit 1
}
rm -rf "$det"

echo "ci: all checks passed"
