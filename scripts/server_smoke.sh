#!/usr/bin/env bash
# Boots a real 3-node localhost star-serverd cluster, drives the seeded YCSB
# client end-to-end from two processes in turn (the second `Run` reuses the
# coordinator's kept driver), inspects it with star-admin — including the typed
# refusal of `history` on a cluster booted without record_history — shuts it
# down cleanly, and then runs the transport-parity suite (wire == simulation,
# byte for byte).
#
# Usage: scripts/server_smoke.sh [log-dir]
#
# Logs land in the log dir (default target/server-smoke) and are left in
# place on failure so CI can upload them.
set -euo pipefail

cd "$(dirname "$0")/.."

LOG_DIR="${1:-target/server-smoke}"
BOOTSTRAP="$LOG_DIR/cluster.toml"

mkdir -p "$LOG_DIR"
rm -f "$LOG_DIR"/node-*.log

echo "== server-smoke: building binaries"
cargo build --release -p star-serverd -p star-client

SERVERD=target/release/star-serverd
CLIENT=target/release/star-client
ADMIN=target/release/star-admin

PIDS=()
cleanup() {
    for pid in "${PIDS[@]:-}"; do
        kill "$pid" 2>/dev/null || true
    done
}
trap cleanup EXIT

# Ask the kernel for three genuinely free ports (bind :0, read back the
# assignment) instead of deriving them from the PID — PID arithmetic
# collides with whatever else is listening on the machine. The bind is
# released before serverd reuses the port, so a racing process can still
# steal it; boot_cluster detects that (the node exits instead of logging
# its "serving on" line) and retries with fresh ports.
reserve_ports() {
    if command -v python3 > /dev/null 2>&1; then
        python3 - <<'PYEOF'
import socket
socks = [socket.socket() for _ in range(3)]
for s in socks:
    s.bind(("127.0.0.1", 0))
print(" ".join(str(s.getsockname()[1]) for s in socks))
for s in socks:
    s.close()
PYEOF
    else
        # Fallback: random ports in the dynamic range (still retried on
        # collision by boot_cluster).
        echo "$((32768 + RANDOM % 16384)) $((32768 + RANDOM % 16384)) $((32768 + RANDOM % 16384))"
    fi
}

write_bootstrap() {
    local p0=$1 p1=$2 p2=$3
    cat > "$BOOTSTRAP" <<EOF
[cluster]
nodes = ["127.0.0.1:$p0", "127.0.0.1:$p1", "127.0.0.1:$p2"]
full_replicas = 1
workers_per_node = 1
partitions = 6
seed = 42

[workload]
rows_per_partition = 100
ops_per_transaction = 4
read_pct = 80.0
cross_partition_pct = 10.0
EOF
}

# Boots all three nodes and waits until each logs its "serving on" line.
# Returns non-zero if any node died first (port stolen between reservation
# and bind) so the caller can retry with a different port set.
boot_cluster() {
    PIDS=()
    for node in 0 1 2; do
        "$SERVERD" --bootstrap "$BOOTSTRAP" --node "$node" > "$LOG_DIR/node-$node.log" 2>&1 &
        PIDS+=($!)
    done
    for node in 0 1 2; do
        local deadline=$((SECONDS + 10))
        until grep -q "serving on" "$LOG_DIR/node-$node.log" 2>/dev/null; do
            if ! kill -0 "${PIDS[$node]}" 2>/dev/null; then
                echo "== server-smoke: node $node exited during boot (port collision?)"
                cleanup
                wait 2>/dev/null || true
                PIDS=()
                return 1
            fi
            if ((SECONDS >= deadline)); then
                # The node bound its port but never came up — not a port
                # race, so retrying won't help. Logs stay in place.
                echo "== server-smoke: node $node never reported 'serving on'" >&2
                exit 1
            fi
            sleep 0.1
        done
    done
}

booted=false
for attempt in 1 2 3 4 5; do
    read -r P0 P1 P2 <<< "$(reserve_ports)"
    # A duplicate draw (possible in the RANDOM fallback) is rejected by the
    # bootstrap parser; just redraw.
    if [[ "$P0" == "$P1" || "$P1" == "$P2" || "$P0" == "$P2" ]]; then
        continue
    fi
    write_bootstrap "$P0" "$P1" "$P2"
    echo "== server-smoke: booting 3 nodes (attempt $attempt, ports $P0 $P1 $P2, logs in $LOG_DIR)"
    if boot_cluster; then
        booted=true
        break
    fi
done
if [[ "$booted" != true ]]; then
    echo "== server-smoke: FAILED to boot the cluster after 5 attempts" >&2
    exit 1
fi

# Two client processes, three iterations (six epochs) each: the second
# one's Run rides the driver the first one's Run left on the coordinator.
echo "== server-smoke: driving seeded YCSB through the wire, twice"
for run in 1 2; do
    "$CLIENT" --bootstrap "$BOOTSTRAP" --iterations 3 --partitioned-txns 50 --single-master-txns 20
done

echo "== server-smoke: inspecting the live cluster"
status="$("$ADMIN" --bootstrap "$BOOTSTRAP" status)"
echo "$status"
closed="$(grep -c "(last committed 12)" <<< "$status" || true)"
if [[ "$closed" != 3 ]]; then
    echo "== server-smoke: expected 3 nodes at 'last committed 12', got $closed" >&2
    exit 1
fi
"$ADMIN" --bootstrap "$BOOTSTRAP" elections
"$ADMIN" --bootstrap "$BOOTSTRAP" digest
# The bootstrap above does not set record_history, so every node must say so.
history="$("$ADMIN" --bootstrap "$BOOTSTRAP" history)"
echo "$history"
refusals="$(grep -c "error: history recording is off" <<< "$history" || true)"
if [[ "$refusals" != 3 ]]; then
    echo "== server-smoke: expected 3 'recording is off' refusals, got $refusals" >&2
    exit 1
fi

echo "== server-smoke: shutting the cluster down"
"$ADMIN" --bootstrap "$BOOTSTRAP" shutdown
for pid in "${PIDS[@]}"; do
    wait "$pid"
done
PIDS=()

echo "== server-smoke: transport-parity suite (wire == simulation)"
cargo test --release -p star-serverd --test parity

echo "== server-smoke: OK"
