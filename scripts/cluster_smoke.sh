#!/bin/sh
# cluster_smoke.sh — end-to-end smoke of the distributed topology: build
# the real binaries, bring up a 2-server shard cluster with lfcluster, run
# a closed-loop lfload mix through the router over the wire, then shut the
# cluster down and verify nothing leaked. Run via `make cluster-smoke` or
# the ci.sh step.
set -eu
cd "$(dirname "$0")/.."

work=$(mktemp -d "${TMPDIR:-/tmp}/cluster-smoke.XXXXXX")
cluster_pid=""
cleanup() {
	if [ -n "$cluster_pid" ] && kill -0 "$cluster_pid" 2>/dev/null; then
		kill -TERM "$cluster_pid" 2>/dev/null || true
		wait "$cluster_pid" 2>/dev/null || true
	fi
	rm -rf "$work"
}
trap cleanup EXIT INT TERM

echo "== cluster-smoke: build binaries"
go build -o "$work/labbase-server" ./cmd/labbase-server
go build -o "$work/lfcluster" ./cmd/lfcluster
go build -o "$work/lfload" ./cmd/lfload

echo "== cluster-smoke: launch 2-shard cluster"
topo="$work/shards.json"
mkdir -p "$work/data"
"$work/lfcluster" -n 2 -store texas+tc -dir "$work/data" -topology "$topo" \
	-server "$work/labbase-server" &
cluster_pid=$!

waited=0
while [ ! -s "$topo" ]; do
	if ! kill -0 "$cluster_pid" 2>/dev/null; then
		echo "cluster-smoke: lfcluster exited before the topology was ready" >&2
		exit 1
	fi
	if [ "$waited" -ge 300 ]; then
		echo "cluster-smoke: topology file not written within 30s" >&2
		exit 1
	fi
	sleep 0.1
	waited=$((waited + 1))
done

echo "== cluster-smoke: lfload closed loop through the router"
out=$("$work/lfload" -topology "$topo" -workers 4 -readmix 0.5 \
	-ops 2000 -materials 200 -json)
echo "$out" | grep -q '"ops_per_sec"' || {
	echo "cluster-smoke: no throughput in lfload report" >&2
	exit 1
}

echo "== cluster-smoke: clean shutdown"
kill -TERM "$cluster_pid"
if ! wait "$cluster_pid"; then
	echo "cluster-smoke: lfcluster did not exit cleanly on SIGTERM" >&2
	exit 1
fi
cluster_pid=""

# No leaked shard servers: every labbase-server we spawned ran from $work,
# so any survivor still holds that binary path.
if pgrep -f "$work/labbase-server" >/dev/null 2>&1; then
	echo "cluster-smoke: leaked labbase-server process after shutdown" >&2
	pgrep -af "$work/labbase-server" >&2 || true
	exit 1
fi

echo "cluster-smoke: ok"
