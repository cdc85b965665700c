#!/usr/bin/env bash
# Sharded-cluster smoke test: a router in front of two shards, each a
# primary ada_server replicating to a follower. Two fault runs:
#   1. real SIGKILL — a shard primary is killed mid-workload;
#   2. failpoint kill — ADA_FAILPOINTS=service.shard.kill makes a
#      primary _Exit(137) mid-request, the way a crash bug would;
# and in both the invariant is the same: every submitted job completes
# exactly once through the router (all clients exit 0, the router's
# completed counter equals its submitted counter), the follower is
# promoted (failovers >= 1), and the cross-shard `stats` totals equal
# the per-shard sum. In the SIGKILL run a CSV upload finishes before the
# kill, on the shard that is then killed; after failover its `result`
# still answers done, as a cache hit, with the same report: the router
# re-drove it by fingerprint alone (it no longer holds the upload).
# After failover, a CSV upload submitted twice is a cache hit in the
# second submit reply, and a client line carrying the cluster-internal
# route_fingerprint is rejected at the router. Before the workload, 50
# idle connections must not grow the router's thread count. Last, a
# fresh router in front of one shard is sent a CSV upload over 16 KiB
# twice: the repeat is answered from the router's upload memo (its
# memo_hits counter reads 1) as a cache hit, and apart from its job_id
# and cache_hit lines the reply is byte-identical to the first.
#
# Usage: tools/shard_smoke.sh [BUILD_DIR]   (default: build)
# CI runs this under ASan+UBSan (the shard-smoke job).
set -euo pipefail

BUILD_DIR="${1:-build}"
SERVER="${BUILD_DIR}/tools/ada_server"
CLIENT="${BUILD_DIR}/tools/ada_client"
ROUTER="${BUILD_DIR}/tools/ada_router"
LOG_DIR="$(mktemp -d /tmp/ada_shard_smoke.XXXXXX)"
ALL_PIDS=()

for binary in "${SERVER}" "${CLIENT}" "${ROUTER}"; do
  if [[ ! -x "${binary}" ]]; then
    echo "shard_smoke: missing ${binary}; build the ada_server," \
         "ada_client and ada_router targets first" >&2
    exit 2
  fi
done

cleanup() {
  for pid in "${ALL_PIDS[@]:-}"; do
    kill -9 "${pid}" 2>/dev/null || true
  done
  for pid in "${ALL_PIDS[@]:-}"; do
    wait "${pid}" 2>/dev/null || true
  done
  rm -rf "${LOG_DIR}"
}
trap cleanup EXIT

fail() {
  echo "shard_smoke: FAIL: $*" >&2
  for log in "${LOG_DIR}"/*.log; do
    echo "--- ${log} ---" >&2
    cat "${log}" >&2 || true
  done
  exit 1
}

# Starts a process whose stdout announces "listening on port N"; sets
# LAST_PID and LAST_PORT. Usage: start_proc NAME BINARY [ARGS...]
start_proc() {
  local name="$1"
  shift
  local log="${LOG_DIR}/${name}.log"
  # Create the log first: the poll below may read it before the child's
  # redirection has, and a missing file would end the script (set -e).
  : >"${log}"
  "$@" >"${log}" 2>&1 &
  LAST_PID=$!
  ALL_PIDS+=("${LAST_PID}")
  LAST_PORT=""
  for _ in $(seq 1 100); do
    LAST_PORT="$(sed -n 's/.*listening on port \([0-9]*\).*/\1/p' \
        "${log}" | head -1)"
    [[ -n "${LAST_PORT}" ]] && break
    kill -0 "${LAST_PID}" 2>/dev/null \
      || fail "${name} exited during startup"
    sleep 0.1
  done
  [[ -n "${LAST_PORT}" ]] || fail "${name} never reported its port"
  echo "shard_smoke: ${name} up on port ${LAST_PORT} (pid ${LAST_PID})"
}

wait_for_exit() {
  local pid="$1" name="$2"
  for _ in $(seq 1 100); do
    kill -0 "${pid}" 2>/dev/null || return 0
    sleep 0.1
  done
  fail "${name} still running"
}

# Asserts the cluster invariant after a fault run. Arguments: the
# router port, the number of jobs submitted in the run.
check_cluster_stats() {
  local port="$1" jobs="$2"
  local stats
  stats="$("${CLIENT}" --router "${port}" stats)" \
    || fail "stats verb failed"
  python3 - "${stats}" "${jobs}" <<'EOF' || fail "cluster stats off"
import json, sys
stats = json.loads(sys.argv[1])
jobs = int(sys.argv[2])
router = stats["router"]
bad = {}
if router["submitted"] != jobs:
    bad["router.submitted"] = (router["submitted"], jobs)
# Exactly-once: every client-visible job id reached a terminal state
# exactly once (the counter only fires on a route's first terminal
# sighting, so a double-completion cannot hide here).
if router["completed"] != jobs:
    bad["router.completed"] = (router["completed"], jobs)
if router["failovers"] != 1:
    bad["router.failovers"] = (router["failovers"], 1)
if router["dead_shards"] != 0:
    bad["router.dead_shards"] = (router["dead_shards"], 0)
# Cross-shard aggregation: the totals roll-up must equal the sum of
# the per-shard integers it claims to aggregate.
for key in ("jobs_submitted", "jobs_completed", "sessions_executed"):
    per_shard = sum(e["stats"].get(key, 0)
                    for e in stats["shards"] if "stats" in e)
    if stats["totals"].get(key, 0) != per_shard:
        bad[f"totals.{key}"] = (stats["totals"].get(key), per_shard)
# No shard may be lost: both survived via follower promotion.
alive = sum(1 for e in stats["shards"] if e["alive"])
if alive != 2:
    bad["alive shards"] = (alive, 2)
if bad:
    print(f"stat mismatches (got, want): {bad}", file=sys.stderr)
    sys.exit(1)
EOF
}

# One complete cluster lifecycle with a fault injected mid-workload.
# Usage: run_cluster NAME KILL_MODE   (KILL_MODE: sigkill | failpoint)
run_cluster() {
  local name="$1" kill_mode="$2"
  echo "== cluster '${name}' (${kill_mode}) =="

  start_proc "${name}-follower-a" "${SERVER}" --port 0 --role follower \
      --workers 2
  local fa_port="${LAST_PORT}"
  start_proc "${name}-follower-b" "${SERVER}" --port 0 --role follower \
      --workers 2
  local fb_port="${LAST_PORT}"

  # In failpoint mode shard A's primary dies the way a crash bug
  # would: mid-request, no flush, exit 137. The 12th request line it
  # sees (forwards and probes both count) pulls the trigger.
  local -a primary_a_env=()
  if [[ "${kill_mode}" == "failpoint" ]]; then
    primary_a_env=(env "ADA_FAILPOINTS=service.shard.kill=error(UNAVAILABLE)*1@12")
  fi
  start_proc "${name}-primary-a" \
      ${primary_a_env[@]+"${primary_a_env[@]}"} "${SERVER}" \
      --port 0 --workers 2 --replicate-to "${fa_port}"
  local pa_pid="${LAST_PID}" pa_port="${LAST_PORT}"
  start_proc "${name}-primary-b" "${SERVER}" --port 0 --workers 2 \
      --replicate-to "${fb_port}"
  local pb_pid="${LAST_PID}" pb_port="${LAST_PORT}"

  start_proc "${name}-router" "${ROUTER}" --port 0 \
      --shard "${pa_port}:${fa_port}" --shard "${pb_port}:${fb_port}" \
      --probe-interval-ms 100 --probe-failures 2
  local router_pid="${LAST_PID}" router_port="${LAST_PORT}"

  # One connection model: 50 idle clients cost the router no thread,
  # and a fresh client is still answered.
  python3 - "${router_pid}" "${router_port}" "${CLIENT}" <<'EOF' \
    || fail "idle clients grew the router's thread count or blocked ping"
import socket, subprocess, sys
pid, port, client = sys.argv[1], int(sys.argv[2]), sys.argv[3]
def threads():
    with open(f"/proc/{pid}/status") as status:
        return next(int(line.split()[1]) for line in status
                    if line.startswith("Threads:"))
before = threads()
idle = [socket.create_connection(("127.0.0.1", port), timeout=10)
        for _ in range(50)]
subprocess.run([client, "--router", str(port), "ping"], check=True,
               stdout=subprocess.DEVNULL, timeout=30)
after = threads()
for conn in idle:
    conn.close()
if after > before:
    print(f"router threads {before} -> {after} with 50 idle clients",
          file=sys.stderr)
    sys.exit(1)
EOF

  local csv="${LOG_DIR}/${name}-upload.csv"
  python3 - "${csv}" <<'EOF' || fail "could not write the CSV upload"
import random, sys
rng = random.Random(7)
with open(sys.argv[1], "w") as out:
    out.write("patient_id,exam_type,day\n")
    for patient in range(120):
        for _ in range(rng.randint(3, 12)):
            out.write(f"{patient},exam{rng.randint(0, 19)},{rng.randint(0, 364)}\n")
EOF

  # SIGKILL run: the CSV upload finishes first, and the primary of the
  # shard that owns it is the one killed, once its follower holds the
  # replicated result.
  local jobs=8 killed_pid="${pa_pid}" csv_job=""
  if [[ "${kill_mode}" == "sigkill" ]]; then
    "${CLIENT}" --router "${router_port}" submit --csv "${csv}" \
        --dataset-id "${name}-csv" --fast --wait --report \
        >"${LOG_DIR}/${name}-csv-before.log" 2>&1 \
      || fail "CSV submit before the kill failed"
    csv_job="$(sed -n 's/^job_id: //p' "${LOG_DIR}/${name}-csv-before.log")"
    jobs=9
    local owner
    owner="$("${CLIENT}" --router "${router_port}" stats | python3 -c '
import json, sys
shards = json.load(sys.stdin)["shards"]
print(next(e["shard"] for e in shards if e["stats"]["jobs_submitted"] == 1))
')" || fail "could not find the CSV job's shard"
    local owner_follower="${fa_port}"
    if [[ "${owner}" == "1" ]]; then
      killed_pid="${pb_pid}"
      owner_follower="${fb_port}"
    fi
    local replicated=""
    for _ in $(seq 1 100); do
      replicated="$("${CLIENT}" --port "${owner_follower}" stats \
          | python3 -c 'import json,sys; print(json.load(sys.stdin)["cache"]["entries"])')" \
        || fail "follower stats failed"
      [[ "${replicated}" -ge 1 ]] && break
      sleep 0.1
    done
    [[ "${replicated}" -ge 1 ]] \
      || fail "the CSV result never reached shard ${owner}'s follower"
  fi

  # Eight distinct jobs ride the ring in parallel; each client waits
  # for its result through the router and must exit 0 even though a
  # primary dies underneath it.
  local -a client_pids=()
  for seed in $(seq 1 8); do
    "${CLIENT}" --router "${router_port}" --connect-retries 3 \
        submit --patients 100 --exam-types 20 --seed "${seed}" \
        --dataset-id "${name}" --fast --wait \
        >"${LOG_DIR}/${name}-client-${seed}.log" 2>&1 &
    client_pids+=($!)
  done

  if [[ "${kill_mode}" == "sigkill" ]]; then
    sleep 0.3  # Let the workload get in flight first.
    echo "shard_smoke: SIGKILL the CSV job's primary (pid ${killed_pid})"
    kill -9 "${killed_pid}"
  fi

  local failed=0
  for pid in "${client_pids[@]}"; do
    wait "${pid}" || failed=$((failed + 1))
  done
  [[ "${failed}" -eq 0 ]] \
    || fail "${failed}/8 clients failed during the ${kill_mode} run"
  for seed in $(seq 1 8); do
    grep -q '^state: done$' "${LOG_DIR}/${name}-client-${seed}.log" \
      || fail "client ${seed} did not reach state done"
  done
  # The killed primary must actually be gone. In failpoint mode the
  # trigger may fire on a health probe after the workload drained;
  # probes keep arriving every 100 ms, so this converges fast.
  wait_for_exit "${killed_pid}" "${name}'s killed primary"

  # Give the prober time to notice and promote: when the workload beat
  # the kill, no forward ever failed, and failover happens on probe
  # failures alone.
  local promoted=""
  for _ in $(seq 1 100); do
    promoted="$("${CLIENT}" --router "${router_port}" health \
        | python3 -c 'import json,sys; print(json.load(sys.stdin)["failovers"])')" \
      || fail "health poll failed"
    [[ "${promoted}" == "1" ]] && break
    sleep 0.1
  done
  [[ "${promoted}" == "1" ]] \
    || fail "router never promoted the follower (failovers=${promoted})"

  check_cluster_stats "${router_port}" "${jobs}"

  # Failover visible in health, and the promoted follower serves a
  # fresh job for its shard.
  local health
  health="$("${CLIENT}" --router "${router_port}" health)" \
    || fail "health verb failed"
  python3 - "${health}" <<'EOF' || fail "router health off"
import json, sys
health = json.loads(sys.argv[1])
assert health["role"] == "router", health
assert health["failovers"] == 1, health
promoted = [s for s in health["shards"] if s["using_follower"]]
assert len(promoted) == 1, health
assert all(s["alive"] for s in health["shards"]), health
EOF
  "${CLIENT}" --router "${router_port}" submit --patients 100 \
      --exam-types 20 --seed 99 --dataset-id "${name}-post" --fast --wait \
      >/dev/null || fail "post-failover submit failed"

  # The CSV job that finished before the kill: the promoted follower
  # answers it from the replicated cache, and apart from cache_hit the
  # reply is byte-identical to the one read before the kill.
  if [[ -n "${csv_job}" ]]; then
    "${CLIENT}" --router "${router_port}" result --job "${csv_job}" \
        --report >"${LOG_DIR}/${name}-csv-after.log" 2>&1 \
      || fail "result of CSV job ${csv_job} after failover failed"
    grep -q '^state: done$' "${LOG_DIR}/${name}-csv-after.log" \
      && grep -q '^cache_hit: true$' "${LOG_DIR}/${name}-csv-after.log" \
      || fail "CSV job ${csv_job} was not served from the replicated cache"
    cmp -s <(grep -v '^cache_hit: ' "${LOG_DIR}/${name}-csv-before.log") \
        <(grep -v '^cache_hit: ' "${LOG_DIR}/${name}-csv-after.log") \
      || fail "CSV job ${csv_job}'s report changed across the failover"
  fi

  # Parse once per cluster: the router forwards the fingerprint it
  # routed a CSV upload on, so the upload's repeat is answered at
  # admission, already done in the submit reply; and a client cannot
  # forge that cluster-internal field.
  "${CLIENT}" --router "${router_port}" submit --csv "${csv}" \
      --dataset-id "${name}-csv" --fast --wait \
      >"${LOG_DIR}/${name}-csv-first.log" 2>&1 \
    || fail "first CSV submit failed"
  "${CLIENT}" --router "${router_port}" submit --csv "${csv}" \
      --dataset-id "${name}-csv" --fast \
      >"${LOG_DIR}/${name}-csv-repeat.log" 2>&1 \
    || fail "repeat CSV submit failed"
  grep -q '^state: done$' "${LOG_DIR}/${name}-csv-repeat.log" \
    && grep -q '^cache_hit: true$' "${LOG_DIR}/${name}-csv-repeat.log" \
    || fail "the repeat CSV submit was not answered as a cache hit"
  python3 - "${router_port}" <<'EOF' \
    || fail "the router accepted a client-supplied route_fingerprint"
import json, socket, sys
with socket.create_connection(("127.0.0.1", int(sys.argv[1])), timeout=10) as conn:
    conn.sendall(b'{"verb":"ping","route_fingerprint":"0123456789abcdef"}\n')
    reply = json.loads(conn.makefile().readline())
sys.exit(0 if reply.get("error", {}).get("code") == "INVALID_ARGUMENT" else 1)
EOF

  # Shutdown cascades from the router to every live shard endpoint.
  "${CLIENT}" --router "${router_port}" shutdown >/dev/null \
    || fail "router shutdown failed"
  wait_for_exit "${router_pid}" "${name}-router"
  for pid in "${ALL_PIDS[@]}"; do
    wait_for_exit "${pid}" "cluster '${name}' process ${pid}"
  done
  ALL_PIDS=()
  echo "shard_smoke: cluster '${name}' PASS"
}

# The router's upload memo, through real processes.
run_upload_memo() {
  echo "== upload memo =="
  start_proc memo-shard "${SERVER}" --port 0 --workers 2
  local shard_port="${LAST_PORT}"
  start_proc memo-router "${ROUTER}" --port 0 --shard "${shard_port}"
  local router_pid="${LAST_PID}" router_port="${LAST_PORT}"

  local csv="${LOG_DIR}/memo-upload.csv"
  python3 - "${csv}" <<'EOF' || fail "could not write the memo CSV upload"
import random, sys
rng = random.Random(26)
with open(sys.argv[1], "w") as out:
    out.write("patient_id,exam_type,day\n")
    for patient in range(400):
        for _ in range(rng.randint(3, 12)):
            out.write(f"{patient},exam{rng.randint(0, 19)},{rng.randint(0, 364)}\n")
EOF
  [[ "$(wc -c <"${csv}")" -gt 16384 ]] \
    || fail "the memo CSV upload is not over 16 KiB"
  local run
  for run in first repeat; do
    "${CLIENT}" --router "${router_port}" submit --csv "${csv}" \
        --dataset-id memo --fast --wait --report \
        >"${LOG_DIR}/memo-${run}.log" 2>&1 \
      || fail "${run} memo CSV submit failed"
  done
  grep -q '^cache_hit: true$' "${LOG_DIR}/memo-repeat.log" \
    || fail "the repeated upload was not a cache hit"
  cmp -s <(grep -v -e '^cache_hit: ' -e '^job_id: ' "${LOG_DIR}/memo-first.log") \
      <(grep -v -e '^cache_hit: ' -e '^job_id: ' "${LOG_DIR}/memo-repeat.log") \
    || fail "the repeated upload's reply differs from the first"
  local hits
  hits="$("${CLIENT}" --router "${router_port}" stats \
      | python3 -c 'import json,sys; print(json.load(sys.stdin)["router"]["memo_hits"])')" \
    || fail "router stats failed"
  [[ "${hits}" == "1" ]] || fail "router memo_hits is ${hits}, not 1"

  "${CLIENT}" --router "${router_port}" shutdown >/dev/null \
    || fail "memo router shutdown failed"
  wait_for_exit "${router_pid}" memo-router
  for pid in "${ALL_PIDS[@]}"; do
    wait_for_exit "${pid}" "memo process ${pid}"
  done
  ALL_PIDS=()
  echo "shard_smoke: upload memo PASS"
}

run_cluster sigkill-run sigkill
run_cluster failpoint-run failpoint
run_upload_memo

echo "shard_smoke: PASS"
