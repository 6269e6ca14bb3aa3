#!/usr/bin/env bash
# qmc_server end-to-end smoke test: queue three jobs (one running the
# single-precision policy on a double variant alias), SIGTERM the
# server mid-run, resume, and require (a) clean retirement of all jobs
# and (b) streamed "generation" records identical to an uninterrupted
# reference run -- the serving-path form of the exact-resume guarantee.
# A fourth job is SIGKILLed between two checkpoints and resumed; its
# stream must then equal the reference run's line for line, with no
# generation streamed twice. The reference run also serves a job whose
# file name holds double quotes. Stdin mode must run a job line longer
# than 64 KiB as one job. Every streamed line must parse as JSON, and
# the content checks run on the parsed records.
#
# Both waits on the running server poll for as long as its process is
# alive, with no fixed deadline, so a slow (Debug, sanitizer) build
# passes too; the CI job's timeout bounds a hung server.
#
#   usage: tools/ci/server_smoke.sh BUILD_DIR
set -euo pipefail

BUILD_DIR=${1:?usage: server_smoke.sh BUILD_DIR}
SERVER="$BUILD_DIR/qmc_server"
[ -x "$SERVER" ] || { echo "server_smoke: $SERVER not built" >&2; exit 2; }

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
SPOOL="$WORK/spool"
REF="$WORK/ref"
KILL="$WORK/kill"
mkdir -p "$SPOOL" "$REF"

# Job 1: a 12-step Graphite VMC chain, checkpointed every generation so
# the SIGTERM lands between checkpoints; it also turns estimators on so
# the named-observable stream (per-component energies, g(r)/S(k) bins)
# crosses the interrupt and must survive resume bitwise. Job 2: a short
# DMC chain, so branching state crosses the interrupt too. Job 3 drives
# the mixed-precision policy through the serving path: an explicit
# "precision": "single" on a double-precision variant alias, with the
# drift guard's knobs set, must run and stream drift telemetry.
JOB1='{ "workload": "Graphite", "variant": "current", "dmc": false, "estimators": true,
  "driver": { "steps": 12, "num_walkers": 3, "seed": 2017, "num_threads": 1,
              "crowd_size": 4, "checkpoint_every": 1 } }'
JOB2='{ "workload": "Graphite", "variant": "current", "dmc": true,
  "driver": { "steps": 4, "num_walkers": 3, "seed": 708, "num_threads": 1,
              "crowd_size": 4, "checkpoint_every": 1 } }'
JOB3='{ "workload": "Graphite", "variant": "currentdp", "precision": "single", "dmc": false,
  "driver": { "steps": 3, "num_walkers": 3, "seed": 42, "num_threads": 1,
              "crowd_size": 4, "checkpoint_every": 1,
              "drift_tolerance": 1e-3, "drift_sample_rows": 2 } }'
# Job 4 checkpoints every 4 generations. QMCDriver streams generation g
# before it checkpoints at g + 1, so a SIGKILL while the record count is
# not a multiple of 4 leaves records past the last snapshot.
EVERY=4
JOB4='{ "workload": "Graphite", "variant": "current", "dmc": true,
  "driver": { "steps": 12, "num_walkers": 4, "seed": 4242, "num_threads": 1,
              "crowd_size": 4, "checkpoint_every": '$EVERY' } }'
echo "$JOB1" > "$SPOOL/job1.json"
echo "$JOB2" > "$SPOOL/job2.json"
echo "$JOB3" > "$SPOOL/job3.json"
echo "$JOB1" > "$REF/job1.json"
echo "$JOB2" > "$REF/job2.json"
echo "$JOB3" > "$REF/job3.json"
echo "$JOB4" > "$REF/job4.json"
# The job name is the file stem, and it is streamed in every record.
QUOTED='say "hi"'
echo "$JOB3" > "$REF/$QUOTED.json"

echo "server_smoke: reference run"
"$SERVER" --spool "$REF" --once
[ -f "$REF/job1.json.done" ] && [ -f "$REF/job2.json.done" ] && [ -f "$REF/job3.json.done" ] \
  && [ -f "$REF/job4.json.done" ] && [ -f "$REF/$QUOTED.json.done" ] \
  || { echo "server_smoke: reference run did not retire all jobs" >&2; exit 1; }

echo "server_smoke: interrupted run"
"$SERVER" --spool "$SPOOL" &
SERVER_PID=$!
# Wait until job1 has streamed at least 2 generation records, then
# interrupt; the server must checkpoint and exit with code 3.
n=0
while kill -0 "$SERVER_PID" 2>/dev/null; do
  n=$(grep -c '"generation"' "$SPOOL/job1.json.stream" 2>/dev/null || true)
  [ "${n:-0}" -ge 2 ] && break
  sleep 0.05
done
[ "${n:-0}" -ge 2 ] || { echo "server_smoke: server exited before job1 streamed 2 records" >&2; exit 1; }
kill -TERM "$SERVER_PID"
rc=0; wait "$SERVER_PID" || rc=$?
[ "$rc" -eq 3 ] || { echo "server_smoke: expected exit code 3 on SIGTERM, got $rc" >&2; exit 1; }
[ -f "$SPOOL/job1.json.snap" ] || { echo "server_smoke: no checkpoint written" >&2; exit 1; }
[ -f "$SPOOL/job1.json" ] || { echo "server_smoke: interrupted job was retired early" >&2; exit 1; }

echo "server_smoke: resumed run"
"$SERVER" --spool "$SPOOL" --once
[ -f "$SPOOL/job1.json.done" ] && [ -f "$SPOOL/job2.json.done" ] && [ -f "$SPOOL/job3.json.done" ] \
  || { echo "server_smoke: resumed run did not retire all jobs" >&2; exit 1; }
[ ! -f "$SPOOL/job1.json.snap" ] \
  || { echo "server_smoke: checkpoint not cleaned up after completion" >&2; exit 1; }

# The streamed observables of interrupted + resumed must be identical
# to the uninterrupted reference, record for record.
for job in job1 job2 job3; do
  if ! diff <(grep '"generation"' "$SPOOL/$job.json.stream" | sort) \
            <(grep '"generation"' "$REF/$job.json.stream" | sort); then
    echo "server_smoke: $job streamed observables diverged after resume" >&2
    exit 1
  fi
done

echo "server_smoke: SIGKILL between checkpoints"
# Kill only while the record count is not a multiple of EVERY; a kill
# that races past a record boundary onto a checkpoint is retried from a
# fresh spool.
killed=0
for _ in 1 2 3 4 5; do
  rm -rf "$KILL"
  mkdir -p "$KILL"
  echo "$JOB4" > "$KILL/job4.json"
  "$SERVER" --spool "$KILL" --once &
  SERVER_PID=$!
  while kill -0 "$SERVER_PID" 2>/dev/null; do
    n=$(grep -c '"generation"' "$KILL/job4.json.stream" 2>/dev/null || true)
    if [ "${n:-0}" -gt "$EVERY" ] && [ $((n % EVERY)) -ne 0 ]; then
      kill -KILL "$SERVER_PID"
      break
    fi
    sleep 0.01
  done
  wait "$SERVER_PID" 2>/dev/null || true
  n=$(grep -c '"generation"' "$KILL/job4.json.stream" 2>/dev/null || true)
  if [ -f "$KILL/job4.json" ] && [ -f "$KILL/job4.json.snap" ] && [ $((n % EVERY)) -ne 0 ]; then
    killed=1
    break
  fi
done
[ "$killed" -eq 1 ] || { echo "server_smoke: could not SIGKILL job4 between checkpoints" >&2; exit 1; }
echo "server_smoke: killed job4 after $n streamed generations"
"$SERVER" --spool "$KILL" --once
[ -f "$KILL/job4.json.done" ] || { echo "server_smoke: job4 did not finish after SIGKILL" >&2; exit 1; }
if ! diff <(grep '"generation"' "$KILL/job4.json.stream") \
          <(grep '"generation"' "$REF/job4.json.stream"); then
  echo "server_smoke: job4's stream after SIGKILL + resume differs from the reference" >&2
  exit 1
fi

echo "server_smoke: stdin mode"
# One job per line. The first line is padded with spaces to over 64 KiB
# and must still run as one job; both jobs must complete.
STDIN_JOB='{ "workload": "Graphite", "driver": { "steps": 1, "num_walkers": 1, "seed": 7, "num_threads": 1 } }'
PAD=$(printf '%70000s' '')
{ echo "{$PAD${STDIN_JOB:1}"; echo "$STDIN_JOB"; } \
  | "$SERVER" --stdin > "$WORK/stdin.out" 2> "$WORK/stdin.err"
if grep -q 'failed' "$WORK/stdin.err"; then
  cat "$WORK/stdin.err" >&2
  echo "server_smoke: a stdin job failed" >&2; exit 1
fi

# Every streamed line is one JSON record naming its job, quotes in the
# file name included. The content checks read the parsed records:
# - job1 asked for estimators, so every generation record carries the
#   named observables, 32 finite gofr bins >= 0 and 6 finite sofk bins
#   in [0, 256] (S(k) = |rho_k|^2 / N of 256 electrons);
# - job2 did not, so none of its records has estimator bins;
# - every job3 record carries the drift-guard telemetry, and its
#   single-precision policy sampled rows in every generation;
# - stdin mode completed exactly its two jobs.
python3 - "$REF" "$SPOOL" "$KILL" "$WORK/stdin.out" <<'EOF'
import glob, json, math, os, sys

def records(path):
    with open(path, encoding="utf-8") as f:
        for n, line in enumerate(f, 1):
            try:
                yield n, json.loads(line)
            except ValueError as e:
                sys.exit(f"server_smoke: {path}:{n} is not valid JSON ({e})")

streams = {}
for d in sys.argv[1:4]:
    for path in sorted(glob.glob(os.path.join(d, "*.json.stream"))):
        job = os.path.basename(path)[:-len(".json.stream")]
        streams[path] = []
        for n, rec in records(path):
            if rec.get("job") != job:
                sys.exit(f"server_smoke: {path}:{n} names job {rec.get('job')!r}, not {job!r}")
            streams[path].append(rec)

def generations(job):
    path = os.path.join(sys.argv[1], job + ".json.stream")
    return [rec for rec in streams[path] if rec["type"] == "generation"]

def bins_ok(values, count, lo, hi):
    return isinstance(values, list) and len(values) == count and all(
        isinstance(v, (int, float)) and math.isfinite(v) and lo <= v <= hi for v in values)

for rec in generations("job1"):
    est = rec.get("estimators", {})
    if "observables" not in rec or "gofr" not in est or "sofk" not in est:
        sys.exit(f"server_smoke: job1 gen {rec['gen']} lacks observables or gofr/sofk bins")
    if not bins_ok(est["gofr"], 32, 0.0, math.inf):
        sys.exit(f"server_smoke: job1 gen {rec['gen']} gofr is not 32 finite bins >= 0: "
                 f"{est['gofr']}")
    if not bins_ok(est["sofk"], 6, 0.0, 256.0):
        sys.exit(f"server_smoke: job1 gen {rec['gen']} sofk is not 6 finite bins in [0, 256]: "
                 f"{est['sofk']}")
if any("estimators" in rec for rec in generations("job2")):
    sys.exit("server_smoke: job2 streamed estimator bins without asking")
for rec in generations("job3"):
    if "max_drift_residual" not in rec:
        sys.exit(f"server_smoke: job3 gen {rec['gen']} lacks drift telemetry")
    if not rec["drift_rows_sampled"] > 0:
        sys.exit(f"server_smoke: job3's drift guard sampled no rows at gen {rec['gen']}")

done = [rec["job"] for _, rec in records(sys.argv[4]) if rec["type"] == "job-complete"]
if done != ["stdin-0", "stdin-1"]:
    sys.exit(f"server_smoke: stdin mode completed {done}, expected stdin-0 and stdin-1")
EOF

echo "server_smoke: OK (SIGTERM and SIGKILL resume, streams bitwise-identical, stdin mode)"
