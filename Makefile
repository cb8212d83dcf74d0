# Convenience targets; `make check` is the gate scripts/ci.sh implements.

.PHONY: check test race bench bench-smoke table10 lint lint-fix-check crashtest cluster-smoke failover-smoke recovery provenance clean

check:
	./scripts/ci.sh

test:
	go test ./...

lint:
	go run ./cmd/labflowvet ./...

# Regenerate the analyzer golden files, then fail if that changed anything:
# a stale golden means analyzer output drifted without the fixture contract
# being re-reviewed.
lint-fix-check:
	go test ./internal/lint -run TestGolden -update >/dev/null
	@git diff --quiet -- internal/lint/testdata || { \
		git --no-pager diff --stat -- internal/lint/testdata >&2; \
		echo "lint-fix-check: golden files are stale; review and commit the refresh" >&2; \
		exit 1; }

race:
	go test -race ./...

# Numbers come from one place: bench/ (BENCHMARK.json names the workloads
# and metrics; bench/README.md says how a run is measured).
bench:
	go run ./bench -workload all

# Every workload at tiny size, self-checked, in a few seconds — the ci.sh
# step. bench exits 1 when any result line says "correct":false.
bench-smoke:
	@out=$$(go run ./bench -workload all -scale 0.02 -seconds 1) || { echo "$$out"; exit 1; }; \
	echo "bench-smoke: every workload correct"

table10:
	go run ./cmd/labflow -experiment table10

crashtest:
	go test -race -count=1 -run 'TestCrashSchedule' ./internal/storage/crashtest/ ./internal/labbase/shard/
	go run ./cmd/labflow -experiment crashtest -store all -crashruns 100

# End-to-end distributed topology smoke: 2 labbase-server subprocesses,
# lfload closed loop through its shard router, clean SIGTERM teardown.
cluster-smoke:
	./scripts/cluster_smoke.sh

# Warm-standby smoke: 2-shard cluster with per-shard followers, a primary
# SIGKILLed under load, the router promotes, the load run survives.
failover-smoke:
	./scripts/failover_smoke.sh

# The BENCH_6 recovery and failover time table.
recovery:
	go run ./cmd/labflow -experiment recovery

# The BENCH_7 provenance closure table: tabled vs untabled vs native over
# chain / fanout / diamond derivation DAGs.
provenance:
	go run ./cmd/labflow -experiment provenance

clean:
	go clean ./...
	rm -rf .bench_build artifacts
