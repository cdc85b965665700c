#!/usr/bin/env bash
# End-to-end smoke test of the analysis service over a real loopback
# socket: starts ada_server, drives it with ada_client, and asserts the
# three behaviors the service exists for —
#   1. a cold job runs a session and reports done (exit 0);
#   2. the identical repeat submission is a fingerprint-cache hit;
#   3. a queued job whose must-start deadline passes while the single
#      worker is busy is shed as expired (exit 6);
# then cross-checks the scheduler/cache counters via the stats verb,
# runs a multi-client exchange (pipelined ping batches and cache-served
# submits in parallel — a serial accept-handle-close server would
# deadlock here), and stops the server with the shutdown verb. Last, a
# server with --cohort-dir is killed with SIGKILL after three guarded
# ingests and restarted over the same directory: the store log must
# bring back generation 3 exactly. Then a server with --cache-dir is
# killed with SIGKILL right after its first job reaches done, and the
# restarted server must answer the resubmit from its replayed cache.
#
# Usage: tools/service_smoke.sh [BUILD_DIR]   (default: build)
# CI runs this under ASan+UBSan (the service-smoke job).
set -euo pipefail

BUILD_DIR="${1:-build}"
SERVER="${BUILD_DIR}/tools/ada_server"
CLIENT="${BUILD_DIR}/tools/ada_client"
LOG="$(mktemp /tmp/ada_server_smoke.XXXXXX.log)"
COHORT_DIR="$(mktemp -d /tmp/ada_cohort_smoke.XXXXXX)"
CACHE_DIR="$(mktemp -d /tmp/ada_cache_smoke.XXXXXX)"
SERVER_PID=""

for binary in "${SERVER}" "${CLIENT}"; do
  if [[ ! -x "${binary}" ]]; then
    echo "service_smoke: missing ${binary}; build the ada_server and" \
         "ada_client targets first" >&2
    exit 2
  fi
done

cleanup() {
  if [[ -n "${SERVER_PID}" ]] && kill -0 "${SERVER_PID}" 2>/dev/null; then
    kill "${SERVER_PID}" 2>/dev/null || true
    wait "${SERVER_PID}" 2>/dev/null || true
  fi
  rm -f "${LOG}"
  rm -rf "${COHORT_DIR}" "${CACHE_DIR}"
}
trap cleanup EXIT

fail() {
  echo "service_smoke: FAIL: $*" >&2
  echo "--- server log ---" >&2
  cat "${LOG}" >&2 || true
  exit 1
}

# One worker makes the deadline scenario deterministic: the queue can
# only drain one job at a time. The worker's second session hit is the
# busy job's (the cold job is the first; the cache-hit repeat is
# answered at admission and runs no session), and the failpoint holds
# it for 2 s, so the 1 ms-deadline job behind it always expires however
# fast the busy job's session runs.
wait_for_port() {  # Sets PORT from the log of the server at SERVER_PID.
  PORT=""
  for _ in $(seq 1 100); do
    PORT="$(sed -n 's/.*listening on port \([0-9]*\).*/\1/p' "${LOG}" | head -1)"
    [[ -n "${PORT}" ]] && break
    kill -0 "${SERVER_PID}" 2>/dev/null || fail "server exited during startup"
    sleep 0.1
  done
  [[ -n "${PORT}" ]] || fail "server never reported its port"
  echo "service_smoke: server up on port ${PORT} (pid ${SERVER_PID})"
}

start_server() {  # start_server [ARGS...]: one-worker server at SERVER_PID.
  : >"${LOG}"  # A previous server's port line must not be read.
  "${SERVER}" --port 0 --workers 1 "$@" >"${LOG}" 2>&1 &
  SERVER_PID=$!
  wait_for_port
}

kill_server() {  # SIGKILL: no drain, no shutdown path.
  kill -9 "${SERVER_PID}"
  wait "${SERVER_PID}" 2>/dev/null || true
}

ADA_FAILPOINTS='service.worker.session=delay(2000)*1@2' start_server

client() { "${CLIENT}" --port "${PORT}" "$@"; }

echo "== cold job =="
COLD_OUT="$(client submit --patients 100 --exam-types 20 --seed 7 \
    --dataset-id smoke-cold --fast --wait)" \
  || fail "cold job exited $? (want 0)"
grep -q '^state: done$' <<<"${COLD_OUT}" || fail "cold job not done"
grep -q '^cache_hit: false$' <<<"${COLD_OUT}" \
  || fail "cold job unexpectedly served from cache"

echo "== identical repeat (cache hit) =="
REPEAT_OUT="$(client submit --patients 100 --exam-types 20 --seed 7 \
    --dataset-id smoke-cold --fast --wait)" \
  || fail "repeat job exited $? (want 0)"
grep -q '^state: done$' <<<"${REPEAT_OUT}" || fail "repeat job not done"
grep -q '^cache_hit: true$' <<<"${REPEAT_OUT}" \
  || fail "repeat submission missed the fingerprint cache"

echo "== past-deadline job (worker busy) =="
# Occupy the single worker with a distinct cold job (held by the
# failpoint above), then submit a job that must start within 1 ms — it
# expires in the queue.
BUSY_OUT="$(client submit --patients 200 --exam-types 20 --seed 11 \
    --dataset-id smoke-busy --fast)" || fail "busy submit failed"
BUSY_ID="$(sed -n 's/^job_id: //p' <<<"${BUSY_OUT}")"
[[ -n "${BUSY_ID}" ]] || fail "no job_id in busy submit output"
set +e
client submit --patients 60 --exam-types 20 --seed 13 \
    --dataset-id smoke-expired --fast --deadline-ms 1 --wait
EXPIRED_CODE=$?
set -e
[[ "${EXPIRED_CODE}" -eq 6 ]] \
  || fail "past-deadline job exited ${EXPIRED_CODE} (want 6 = expired)"

# Let the busy job finish so the completed counter is settled.
client result --job "${BUSY_ID}" >/dev/null \
  || fail "busy job did not complete"

echo "== stats counters =="
STATS="$(client stats)" || fail "stats verb failed"
python3 - "${STATS}" <<'EOF' || fail "stats counters off"
import json, sys
stats = json.loads(sys.argv[1])
expect = {
    "jobs_submitted": 4,
    "jobs_completed": 3,   # cold + cache-hit repeat + busy
    "jobs_expired": 1,
    "jobs_failed": 0,
    "jobs_shed": 0,
    "sessions_executed": 2,  # cold + busy; the repeat never ran
    "cache_served": 1,
}
bad = {k: (stats.get(k), want) for k, want in expect.items()
       if stats.get(k) != want}
if stats["cache"]["hits"] != 1:
    bad["cache.hits"] = (stats["cache"]["hits"], 1)
if bad:
    print(f"counter mismatches (got, want): {bad}", file=sys.stderr)
    sys.exit(1)
EOF

echo "== streaming cohort: ingest -> delta job -> cache supersede =="
# Grow a cohort over two ingest batches. The first generation's job is
# a cold run; repeating it is a cache hit on the versioned fingerprint
# (<cohort>@<generation>/<hash>); the second batch advances the
# generation, so the next job re-analyzes (no stale cache answer) and
# its cached entry supersedes generation 1 exactly once.
# Three clean clinical profiles, ten patients each: enough members per
# cluster for the optimizer's stratified CV at K in {2,3}.
ndjson_batch() {  # ndjson_batch FIRST_PATIENT COUNT
  python3 - "$1" "$2" <<'PYEOF'
import sys
first, count = int(sys.argv[1]), int(sys.argv[2])
groups = [["hba1c", "lipid"], ["fundus", "retina"],
          ["creatinine", "urine"]]
for p in range(first, first + count):
    exams = groups[p % 3] * 2
    for day, exam in enumerate(exams, start=1):
        print('{"patient": %d, "exam_type": "%s", "day": %d}'
              % (p, exam, day))
PYEOF
}

INGEST1_OUT="$(ndjson_batch 0 30 | client ingest --cohort smoke-ward)" \
  || fail "first ingest batch failed"
grep -q '^generation: 1$' <<<"${INGEST1_OUT}" \
  || fail "first ingest batch did not commit generation 1"
grep -q '^total_records: 120$' <<<"${INGEST1_OUT}" \
  || fail "first ingest batch record count off"

COHORT_ARGS=(submit --cohort smoke-ward --dataset-id smoke-ward \
    --candidate-ks 2,3 --cv-folds 3 --fast --wait)
GEN1_OUT="$(client "${COHORT_ARGS[@]}")" || fail "generation-1 job failed"
grep -q '^state: done$' <<<"${GEN1_OUT}" || fail "generation-1 job not done"
grep -q '^cache_hit: false$' <<<"${GEN1_OUT}" \
  || fail "generation-1 job unexpectedly served from cache"
grep -q '^fingerprint: smoke-ward@1/' <<<"${GEN1_OUT}" \
  || fail "generation-1 fingerprint not versioned as smoke-ward@1/..."

GEN1_REPEAT="$(client "${COHORT_ARGS[@]}")" \
  || fail "generation-1 repeat failed"
grep -q '^cache_hit: true$' <<<"${GEN1_REPEAT}" \
  || fail "generation-1 repeat missed the versioned-fingerprint cache"

INGEST2_OUT="$(ndjson_batch 30 6 | client ingest --cohort smoke-ward)" \
  || fail "second ingest batch failed"
grep -q '^generation: 2$' <<<"${INGEST2_OUT}" \
  || fail "second ingest batch did not advance to generation 2"
grep -q '^total_records: 144$' <<<"${INGEST2_OUT}" \
  || fail "second ingest batch accumulation off"

GEN2_OUT="$(client "${COHORT_ARGS[@]}")" || fail "generation-2 job failed"
grep -q '^state: done$' <<<"${GEN2_OUT}" || fail "generation-2 job not done"
grep -q '^cache_hit: false$' <<<"${GEN2_OUT}" \
  || fail "generation-2 job answered from a stale generation's cache"
grep -q '^fingerprint: smoke-ward@2/' <<<"${GEN2_OUT}" \
  || fail "generation-2 fingerprint not versioned as smoke-ward@2/..."

INGEST_STATS="$(client stats)" || fail "stats verb failed after ingest"
python3 - "${INGEST_STATS}" <<'EOF' || fail "ingest/supersede counters off"
import json, sys
stats = json.loads(sys.argv[1])
ingest = stats["ingest"]
bad = {}
for key, want in {"batches": 2, "records": 144, "cohorts": 1,
                  "generations": 2}.items():
    if ingest.get(key) != want:
        bad[f"ingest.{key}"] = (ingest.get(key), want)
# Generation 2's cached entry evicted generation 1's exactly once.
if stats["cache"]["superseded"] != 1:
    bad["cache.superseded"] = (stats["cache"]["superseded"], 1)
if bad:
    print(f"counter mismatches (got, want): {bad}", file=sys.stderr)
    sys.exit(1)
EOF

echo "== concurrent pipelined clients =="
# Six clients at once against the one event loop: four pipelined
# ping batches plus two submit --wait clients (identical to the cold
# job, so they are cache hits and leave the counters above untouched).
CONCURRENT_PIDS=()
for _ in 1 2 3 4; do
  client ping --count 25 >/dev/null &
  CONCURRENT_PIDS+=($!)
done
for _ in 1 2; do
  client submit --patients 100 --exam-types 20 --seed 7 \
      --dataset-id smoke-cold --fast --wait >/dev/null &
  CONCURRENT_PIDS+=($!)
done
for pid in "${CONCURRENT_PIDS[@]}"; do
  wait "${pid}" || fail "concurrent client (pid ${pid}) failed"
done

echo "== shutdown verb =="
client shutdown >/dev/null || fail "shutdown verb failed"
for _ in $(seq 1 100); do
  kill -0 "${SERVER_PID}" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "${SERVER_PID}" 2>/dev/null; then
  fail "server still running after shutdown verb"
fi
wait "${SERVER_PID}" 2>/dev/null
SERVER_CODE=$?
SERVER_PID=""
[[ "${SERVER_CODE}" -eq 0 ]] \
  || fail "server exited ${SERVER_CODE} after shutdown (want 0)"

echo "== cohort store: SIGKILL and restart over --cohort-dir =="
# Each guarded batch commits one store-log entry before its reply, so
# a SIGKILL right after the third reply loses nothing: the restarted
# server replays generation 3, commits the next guarded batch as
# generation 4, and rejects a replay of it.
start_server --cohort-dir "${COHORT_DIR}"
for generation in 0 1 2; do
  OUT="$(ndjson_batch $((generation * 10)) 10 \
      | client ingest --cohort crash-ward --expect-generation "${generation}")" \
    || fail "guarded ingest at generation ${generation} failed"
  grep -q "^generation: $((generation + 1))$" <<<"${OUT}" \
    || fail "guarded ingest did not commit generation $((generation + 1))"
done
kill_server

start_server --cohort-dir "${COHORT_DIR}"
OUT="$(ndjson_batch 30 5 \
    | client ingest --cohort crash-ward --expect-generation 3)" \
  || fail "ingest after the restart failed"
grep -q '^generation: 4$' <<<"${OUT}" \
  || fail "ingest after the restart did not commit generation 4"
set +e
REPLAY="$(ndjson_batch 30 5 \
    | client ingest --cohort crash-ward --expect-generation 3 2>&1)"
REPLAY_CODE=$?
set -e
[[ "${REPLAY_CODE}" -eq 4 ]] \
  || fail "replayed batch exited ${REPLAY_CODE} (want 4 = server error)"
grep -q 'FAILED_PRECONDITION' <<<"${REPLAY}" \
  || fail "replayed batch was not refused with FAILED_PRECONDITION"
RESTART_STATS="$(client stats)" || fail "stats verb failed after restart"
python3 - "${RESTART_STATS}" <<'EOF' || fail "restarted ingest counters off"
import json, sys
ingest = json.loads(sys.argv[1])["ingest"]
# Three batches of 10 patients and one of 5, four records a patient.
want = {"batches": 4, "records": 140, "cohorts": 1, "generations": 4}
bad = {k: (ingest.get(k), v) for k, v in want.items() if ingest.get(k) != v}
if bad:
    print(f"counter mismatches (got, want): {bad}", file=sys.stderr)
    sys.exit(1)
EOF
client shutdown >/dev/null || fail "shutdown verb failed after restart"
wait "${SERVER_PID}" || fail "restarted server exited non-zero"
SERVER_PID=""

echo "== result cache: SIGKILL and restart over --cache-dir =="
# Each finished result is one fdatasync'd store-log entry before its job
# reads done, so a SIGKILL right after the first job loses nothing: the
# restarted server replays the entry and answers the resubmit from it.
start_server --cache-dir "${CACHE_DIR}"
CACHED_JOB=(submit --patients 80 --exam-types 20 --seed 5 \
    --dataset-id smoke-durable --fast --wait)
OUT="$(client "${CACHED_JOB[@]}")" || fail "job before the SIGKILL failed"
grep -q '^state: done$' <<<"${OUT}" || fail "job before the SIGKILL not done"
kill_server

start_server --cache-dir "${CACHE_DIR}"
OUT="$(client "${CACHED_JOB[@]}")" || fail "resubmit after the restart failed"
grep -q '^cache_hit: true$' <<<"${OUT}" \
  || fail "resubmit after the SIGKILL missed the replayed cache"
CACHE_STATS="$(client stats)" || fail "stats verb failed after cache restart"
python3 -c 'import json, sys
sys.exit(json.loads(sys.argv[1])["cache"]["entries"] != 1)' "${CACHE_STATS}" \
  || fail "replayed cache does not hold exactly 1 entry"
client shutdown >/dev/null || fail "shutdown verb failed after cache restart"
wait "${SERVER_PID}" || fail "restarted cache server exited non-zero"
SERVER_PID=""

echo "service_smoke: PASS"
