#!/bin/sh
# failover_smoke.sh — end-to-end smoke of the warm-standby path: bring up
# a 2-shard cluster with per-shard standbys (lfcluster -standbys wires
# each primary's -ship to its follower), SIGKILL one primary while an
# lfload closed loop is mid-flight, and verify the router promotes the
# standby, the load run completes with a reported outage, and the cluster
# keeps serving afterwards. Run via `make failover-smoke` or the ci.sh
# step.
set -eu
cd "$(dirname "$0")/.."

work=$(mktemp -d "${TMPDIR:-/tmp}/failover-smoke.XXXXXX")
cluster_pid=""
load_pid=""
cleanup() {
	if [ -n "$load_pid" ] && kill -0 "$load_pid" 2>/dev/null; then
		kill -KILL "$load_pid" 2>/dev/null || true
		wait "$load_pid" 2>/dev/null || true
	fi
	if [ -n "$cluster_pid" ] && kill -0 "$cluster_pid" 2>/dev/null; then
		kill -TERM "$cluster_pid" 2>/dev/null || true
		wait "$cluster_pid" 2>/dev/null || true
	fi
	rm -rf "$work"
}
trap cleanup EXIT INT TERM

echo "== failover-smoke: build binaries"
go build -o "$work/labbase-server" ./cmd/labbase-server
go build -o "$work/lfcluster" ./cmd/lfcluster
go build -o "$work/lfload" ./cmd/lfload

echo "== failover-smoke: launch 2-shard cluster with warm standbys"
topo="$work/shards.json"
mkdir -p "$work/data"
"$work/lfcluster" -n 2 -standbys -store texas+tc -dir "$work/data" \
	-topology "$topo" -server "$work/labbase-server" >"$work/cluster.log" 2>&1 &
cluster_pid=$!

waited=0
while [ ! -s "$topo" ]; do
	if ! kill -0 "$cluster_pid" 2>/dev/null; then
		echo "failover-smoke: lfcluster exited before the topology was ready" >&2
		cat "$work/cluster.log" >&2
		exit 1
	fi
	if [ "$waited" -ge 300 ]; then
		echo "failover-smoke: topology file not written within 30s" >&2
		exit 1
	fi
	sleep 0.1
	waited=$((waited + 1))
done
grep -q '"standbys"' "$topo" || {
	echo "failover-smoke: topology carries no standby addresses" >&2
	cat "$topo" >&2
	exit 1
}

echo "== failover-smoke: lfload closed loop, then SIGKILL shard 0's primary"
# The retry knobs keep workers in their retry loop across the outage
# window: the router's health monitor needs about a probe period to mark
# the shard down and promote the standby.
"$work/lfload" -topology "$topo" -workers 4 -readmix 0.5 \
	-ops 20000 -materials 200 -retrydown -retryfor 30s -json \
	>"$work/load.json" 2>"$work/load.log" &
load_pid=$!

sleep 1
primary_pid=$(pgrep -f "$work/data/shard0.db" || true)
if [ -z "$primary_pid" ]; then
	echo "failover-smoke: shard 0 primary not found to kill" >&2
	exit 1
fi
kill -KILL "$primary_pid"
if ! kill -0 "$load_pid" 2>/dev/null; then
	echo "failover-smoke: lfload finished before the primary was killed (raise -ops)" >&2
	exit 1
fi

if ! wait "$load_pid"; then
	echo "failover-smoke: lfload failed across the failover" >&2
	cat "$work/load.log" >&2
	exit 1
fi
load_pid=""
grep -q '"ops_per_sec"' "$work/load.json" || {
	echo "failover-smoke: no throughput in lfload report" >&2
	exit 1
}
downtime=$(sed -n 's/.*"downtime_ms": *\([0-9.]*\).*/\1/p' "$work/load.json")
if [ -z "$downtime" ]; then
	echo "failover-smoke: no downtime_ms in lfload report" >&2
	cat "$work/load.json" >&2
	exit 1
fi
if awk "BEGIN{exit !($downtime > 0)}"; then
	echo "failover-smoke: failover outage $downtime ms (worst worker)"
else
	echo "failover-smoke: downtime_ms = $downtime; the kill never interrupted the load" >&2
	exit 1
fi

# lfcluster must have tolerated the primary's death (standbys mode) and
# must still be supervising the survivors.
grep -q 'warm standby' "$work/cluster.log" || {
	echo "failover-smoke: lfcluster did not log the tolerated primary exit" >&2
	cat "$work/cluster.log" >&2
	exit 1
}
kill -0 "$cluster_pid" 2>/dev/null || {
	echo "failover-smoke: lfcluster died after the primary was killed" >&2
	cat "$work/cluster.log" >&2
	exit 1
}

echo "== failover-smoke: cluster still serves through the promoted standby"
# A fresh router must be able to open the post-failover topology: shard
# 0's entry now answers at the promoted standby's address.
promoted_topo="$work/promoted.json"
addr0=$(pgrep -af "$work/data/standby0.db" >/dev/null && \
	sed -n 's/.*"standbys": *\[ *"\([^"]*\)".*/\1/p' "$topo" || true)
if [ -z "$addr0" ]; then
	echo "failover-smoke: promoted standby address not recoverable from topology" >&2
	exit 1
fi
addr1=$(sed -n 's/.*"shards": *\[ *"[^"]*", *"\([^"]*\)".*/\1/p' "$topo")
printf '{"shards": ["%s", "%s"]}\n' "$addr0" "$addr1" >"$promoted_topo"
out=$("$work/lfload" -topology "$promoted_topo" -workers 2 \
	-readmix 0.5 -ops 2000 -materials 200 -json)
echo "$out" | grep -q '"ops_per_sec"' || {
	echo "failover-smoke: post-failover round reported no throughput" >&2
	exit 1
}

echo "== failover-smoke: clean shutdown"
kill -TERM "$cluster_pid"
if ! wait "$cluster_pid"; then
	echo "failover-smoke: lfcluster did not exit cleanly on SIGTERM" >&2
	cat "$work/cluster.log" >&2
	exit 1
fi
cluster_pid=""

if pgrep -f "$work/labbase-server" >/dev/null 2>&1; then
	echo "failover-smoke: leaked labbase-server process after shutdown" >&2
	pgrep -af "$work/labbase-server" >&2 || true
	exit 1
fi

echo "failover-smoke: ok"
