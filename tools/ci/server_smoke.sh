#!/usr/bin/env bash
# qmc_server end-to-end smoke test: queue three jobs (one running the
# single-precision policy on a double variant alias), SIGTERM the
# server mid-run, resume, and require (a) clean retirement of all jobs
# and (b) streamed "generation" records identical to an uninterrupted
# reference run -- the serving-path form of the exact-resume guarantee.
# A fourth job is SIGKILLed between two checkpoints and resumed; its
# stream must then equal the reference run's line for line, with no
# generation streamed twice. The reference run also serves a job whose
# file name holds double quotes, and every streamed line must parse as
# JSON.
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
for _ in $(seq 1 200); do
  n=$(grep -c '"generation"' "$SPOOL/job1.json.stream" 2>/dev/null || true)
  [ "${n:-0}" -ge 2 ] && break
  sleep 0.05
done
[ "${n:-0}" -ge 2 ] || { echo "server_smoke: job1 never streamed records" >&2; exit 1; }
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

# Job 1 asked for estimators: its generation records must carry the
# named-observable extension (per-component energies plus the gofr /
# sofk bin arrays) in every record.
n_gen=$(grep -c '"generation"' "$REF/job1.json.stream")
for key in '"observables"' '"gofr"' '"sofk"'; do
  n_key=$(grep '"generation"' "$REF/job1.json.stream" | grep -c "$key" || true)
  [ "$n_key" -eq "$n_gen" ] \
    || { echo "server_smoke: $key missing from job1 generation records ($n_key/$n_gen)" >&2; exit 1; }
done
# Job 2 did not: its records must stay in the pre-estimator form.
if grep '"generation"' "$REF/job2.json.stream" | grep -q '"estimators"'; then
  echo "server_smoke: job2 streamed estimator bins without asking" >&2; exit 1
fi

# Every generation record carries the drift-guard telemetry, and the
# single-precision policy job must have actually sampled rows.
n_gen3=$(grep -c '"generation"' "$REF/job3.json.stream")
n_drift=$(grep '"generation"' "$REF/job3.json.stream" | grep -c '"max_drift_residual"' || true)
[ "$n_drift" -eq "$n_gen3" ] \
  || { echo "server_smoke: drift telemetry missing from job3 records ($n_drift/$n_gen3)" >&2; exit 1; }
if grep '"generation"' "$REF/job3.json.stream" | grep -q '"drift_rows_sampled": 0,'; then
  echo "server_smoke: job3's drift guard never sampled despite precision=single" >&2; exit 1
fi

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
  for _ in $(seq 1 2000); do
    n=$(grep -c '"generation"' "$KILL/job4.json.stream" 2>/dev/null || true)
    if [ "${n:-0}" -gt "$EVERY" ] && [ $((n % EVERY)) -ne 0 ]; then
      kill -KILL "$SERVER_PID"
      break
    fi
    kill -0 "$SERVER_PID" 2>/dev/null || break
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

# Every streamed line is one JSON record naming its job, quotes in the
# file name included.
python3 - "$REF" "$SPOOL" "$KILL" <<'EOF'
import glob, json, os, sys
for d in sys.argv[1:]:
    for path in sorted(glob.glob(os.path.join(d, "*.json.stream"))):
        job = os.path.basename(path)[:-len(".json.stream")]
        with open(path, encoding="utf-8") as f:
            for n, line in enumerate(f, 1):
                try:
                    rec = json.loads(line)
                except ValueError as e:
                    sys.exit(f"server_smoke: {path}:{n} is not valid JSON ({e})")
                if rec.get("job") != job:
                    sys.exit(f"server_smoke: {path}:{n} names job {rec.get('job')!r}, not {job!r}")
EOF

echo "server_smoke: OK (SIGTERM and SIGKILL resume, streams bitwise-identical)"
