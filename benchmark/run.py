#!/usr/bin/env python3
"""The qmcxx benchmark: end-to-end throughput, set-up time and memory on
four DMC/VMC workloads, and a per-layer trace of the same chains.

    python3 benchmark/run.py                  # all four workloads, untraced
    python3 benchmark/run.py --trace          # per-layer metrics instead
    python3 benchmark/run.py --workload nio32-vmc --seed 7 --seconds 20 --trace 0
    python3 benchmark/run.py --runs 10 --json base.json   # interleaved repeats
    python3 benchmark/run.py --quick          # 3 generations, checks only

It builds benchmark/build/qmcxx_bench from the checked-out sources, runs
each workload in its own process, checks the outputs, prints one
`workload metric value unit` line per metric and, as the last line of
stdout, one JSON object with the keys correct, attempted, failed and
metrics. Metric names, units and bounds, and the run length, come from
BENCHMARK.json at the repo root. Exit status is 0 when every check passed.
"""
import argparse
import collections
import datetime
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(HERE, "build")
BIN = os.path.join(BUILD, "qmcxx_bench")
DEFAULT_SEED = 20170708
WARMUP = 2          # generations run before the timed region
SERVE_PRERUN = 2    # untimed generations that write the serve snapshot
RUN_TIMEOUT = 170   # seconds for all processes of one run; a run must end within 180
TAIL_BEYOND = 10    # the tail percentile reported has this many generations beyond it
MIB = 1024.0 * 1024.0

# setup_reps: set-ups per untraced run, setup_s is their median. Each
# costs one set-up time (about 1.3 s, 1.4 s, 3.9 s and 0.2 s), so the
# cheap set-ups are repeated more.
Workload = collections.namedtuple(
    "Workload", "spec dmc precision walkers crowd threads serve setup_reps")

# Why each workload is here: benchmark/README.md. The DMC workload keeps
# the driver's default trial-energy feedback (0.1).
WORKLOADS = {
    "graphite-dmc": Workload("graphite.json", True, "single", 16, 2, 4, False, 5),
    "nio32-vmc": Workload("nio32.json", False, "single", 16, 4, 4, False, 5),
    "nio64-vmc-dp": Workload("nio64.json", False, "double", 8, 2, 4, False, 3),
    "graphite-vmc-serve": Workload("graphite.json", False, "single", 4, 4, 1, True, 9),
}

# Per-layer span names (the "<layer>." prefix is the src/ module).
LAYERS = {
    "particle": ["particle.mw_prepare_move", "particle.mw_make_move", "particle.mw_update"],
    "wavefunction": ["wavefunction.mw_eval_grad", "wavefunction.mw_ratio_grad",
                     "wavefunction.mw_accept_reject", "wavefunction.monitor_inverse_drift"],
    "hamiltonian": ["hamiltonian.mw_evaluate"],
    "estimators": ["estimators.evaluate_all"],
    "io": ["io.capture_snapshot", "io.write_snapshot"],
    "drivers": ["drivers.crowd_acquire", "drivers.crowd_release", "drivers.sweep_self",
                "drivers.barrier", "drivers.branch_walkers"],
}
BARRIER_SPANS = ["drivers.barrier", "drivers.branch_walkers", "io.capture_snapshot",
                 "io.write_snapshot"]
CROWD_TASK = "drivers.sweep"


class RunError(Exception):
    pass


# ---- build ---------------------------------------------------------------

def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.stderr.write("run.py: the qmcxx sources (CMakeLists.txt, src/) are not next to "
                         "benchmark/; run it from a full checkout\n")
        sys.exit(2)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = [["cmake", "--build", BUILD, "--target", "qmcxx_bench",
              "-j", str(os.cpu_count() or 1)]]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("run.py: build failed (log: %s)\n" % log_path)
                sys.exit(2)


# ---- one run -------------------------------------------------------------

def job_file(path, w, seed, steps, checkpoint_every=0):
    job = {
        "spec_path": os.path.join("specs", w.spec),
        "precision": w.precision,
        "dmc": w.dmc,
        "estimators": w.serve,
        "driver": {
            "tau": 0.02,
            "num_walkers": w.walkers,
            "crowd_size": w.crowd,
            "num_threads": min(w.threads, os.cpu_count() or 1),
            "seed": seed,
            "steps": steps,
            "checkpoint_every": checkpoint_every,
        },
    }
    # The seed is padded so the file has one length for every seed (see
    # measure()).
    with open(path, "w") as f:
        f.write(json.dumps(job, indent=1).replace('"seed": %d,' % seed, '"seed": %20d,' % seed))


def run_program(args, deadline):
    """Run qmcxx_bench in the repo root; it is killed (and waited for) at
    `deadline`."""
    try:
        p = subprocess.run([BIN] + args, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, universal_newlines=True,
                           timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RunError("the run took longer than %d s" % RUN_TIMEOUT)
    if p.returncode != 0:
        raise RunError("qmcxx_bench failed: " + p.stderr.strip())


def measure(name, seed, seconds, trace, quick):
    """Run one workload in its own process; returns the program's JSON.

    A traced run spends half of `seconds` on the untraced chain and about
    as long again on the traced one, so every run measures about as long.
    """
    w = WORKLOADS[name]
    deadline = time.monotonic() + RUN_TIMEOUT
    # The program sees the same path strings in every checkout: relative
    # to the repo root, in a run directory of fixed width. Their lengths
    # shift the heap layout, which moved the serve workload's set-up peak
    # RSS by up to 10% between checkout paths.
    rel = os.path.join("benchmark", "build", "runs", "%s-%08d" % (name, os.getpid()))
    rundir = os.path.join(ROOT, rel)
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    try:
        start = 0
        extra = []
        if w.serve:
            # The serving path resumes a checkpoint and writes one every
            # generation; the snapshot it resumes is written here, untimed.
            start = SERVE_PRERUN
            snap = os.path.join(rel, "resume.qsnp")
            job_file(os.path.join(rundir, "prerun.json"), w, seed, SERVE_PRERUN, SERVE_PRERUN)
            run_program(["--job", os.path.join(rel, "prerun.json"),
                         "--out", os.path.join(rel, "prerun-out.json"),
                         "--warmup", "1", "--checkpoint", snap], deadline)
            extra = ["--resume", snap, "--checkpoint", os.path.join(rel, "ck.qsnp")]
        steps = start + WARMUP + (1 if quick else 10 ** 6)
        job_file(os.path.join(rundir, "job.json"), w, seed, steps, 1 if w.serve else 0)
        run_program(["--job", os.path.join(rel, "job.json"), "--out", os.path.join(rel, "out.json"),
                     "--seconds", "0" if quick else repr(seconds / 2 if trace else seconds),
                     "--warmup", str(WARMUP),
                     "--setup-reps", "1" if (quick or trace) else str(w.setup_reps)]
                    + extra + (["--trace"] if trace else []), deadline)
        with open(os.path.join(rundir, "out.json")) as f:
            return json.load(f)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


# ---- checks --------------------------------------------------------------

def finite(x):
    return isinstance(x, (int, float)) and math.isfinite(x)


def check(name, seed, d, reference):
    """Correctness problems of one run (empty list = correct), and notes."""
    w = WORKLOADS[name]
    gens = d["generations"]
    problems, notes = [], []
    for g in gens:
        if not (finite(g["energy"]) and finite(g["weight"])):
            problems.append("generation %d: non-finite energy or weight" % g["gen"])
        if not 0.5 <= g["acceptance"] <= 1.0:
            problems.append("generation %d: acceptance %.4f outside [0.5, 1]"
                            % (g["gen"], g["acceptance"]))
        if w.dmc and not max(1, w.walkers // 2) <= g["walkers"] <= 2 * w.walkers:
            problems.append("generation %d: population %d outside [%d, %d]"
                            % (g["gen"], g["walkers"], w.walkers // 2, 2 * w.walkers))
    ref = reference.get(str(seed), {}).get(name)
    first = gens[0]
    if ref is None:
        notes.append("no reference energy for seed %d: reference check skipped" % seed)
    elif finite(first["energy"]) and finite(first["variance"]):
        tol = 3.0 * math.sqrt(first["variance"]) / math.sqrt(first["walkers"])
        if abs(first["energy"] - ref) > tol:
            problems.append("first-generation energy %.10g is %.3g from the reference %.10g "
                            "(tolerance 3 sigma/sqrt(Nw) = %.3g)"
                            % (first["energy"], abs(first["energy"] - ref), ref, tol))
    if "trace" in d:
        traced = d["trace"]["generations"]
        same = len(traced) == len(gens) and all(
            a["gen"] == b["gen"] and a["energy"] == b["energy"] and a["walkers"] == b["walkers"]
            for a, b in zip(gens, traced))
        if not same:
            problems.append("the traced chain differs from the untraced chain")
    return problems, notes


# ---- metrics -------------------------------------------------------------

def samples_per_s(gens, ends):
    """Median over the timed generations of walkers / generation wall time
    (ends[i] is when generation i finished). A stall that hits fewer than
    half of the generations does not move it."""
    return statistics.median(g["walkers"] / (ends[i] - ends[i - 1])
                             for i, g in enumerate(gens) if i >= WARMUP)


def generation_seconds(gens):
    """Wall time of each timed generation of the untraced chain: its count,
    median and the highest percentile with TAIL_BEYOND generations beyond
    it (no tail below TAIL_BEYOND + 1 generations)."""
    times = sorted(gens[i]["t"] - gens[i - 1]["t"] for i in range(WARMUP, len(gens)))
    n = len(times)
    rec = {"n": n, "median": statistics.median(times)}
    if n > TAIL_BEYOND:
        rec["tail_percentile"] = 100.0 * (n - TAIL_BEYOND) / n
        rec["tail"] = times[n - TAIL_BEYOND - 1]
    return rec


def end_to_end(d):
    gens = d["generations"]
    return {
        "samples_per_s": samples_per_s(gens, [g["t"] for g in gens]),
        "setup_s": statistics.median(d["setup_s"]),
        "setup_maxrss_mib": d["setup_maxrss_mib"],
    }


def per_layer(d):
    tr = d["trace"]
    n = tr["threads"]
    gens = tr["generations"]
    first = gens[WARMUP]["gen"]
    timed = gens[WARMUP:]
    sec = collections.defaultdict(float)
    setup = {}
    wall, gen_end, tasks = {}, {}, collections.defaultdict(list)
    # A span's id is (thread, index in that thread's log); the program
    # writes each thread's log in order.
    seen = collections.Counter()
    task_ids, children = set(), 0.0
    for name, thread, start, end, pthread, pindex, gen in tr["spans"]:
        span_id = (thread, seen[thread])
        seen[thread] += 1
        if name == CROWD_TASK:
            task_ids.add(span_id)
        elif (pthread, pindex) in task_ids and gen >= first:
            children += end - start
        if gen < 0:
            setup[name] = end - start
            continue
        if name == "generation":
            gen_end[gen] = end
            if gen >= first:
                wall[gen] = end - start
            continue
        if gen < first:
            continue
        sec[name] += end - start
        if name == CROWD_TASK:
            tasks[gen].append((thread, start, end))
    for name, thread, index, gen, count, seconds in tr["leaves"]:
        if gen >= first:
            sec[name] += seconds
            children += seconds
    sec["drivers.sweep_self"] = sec[CROWD_TASK] - children

    ngen = len(wall)
    total_wall = sum(wall.values())
    threaded = n * total_wall
    idle, imbalance = 0.0, []
    for gen, g_wall in wall.items():
        spans = tasks[gen]
        window = max(e for _, _, e in spans) - min(s for _, s, _ in spans)
        busy = [0.0] * n
        for t, s, e in spans:
            busy[t] += e - s
        idle += sum(window - b for b in busy) + (n - 1) * (g_wall - window)
        imbalance.append(max(busy) / (sum(busy) / n) - 1.0)

    m = {}
    for layer, names in LAYERS.items():
        for s in names:
            m[s + ".ms_per_gen"] = 1000.0 * sec[s] / ngen
        m[layer + ".share"] = sum(sec[s] for s in names) / threaded
    for k, v in tr["kernels"].items():
        m["kernel.%s.share" % k] = v / threaded
    m["concurrency.idle_frac"] = idle / threaded
    m["concurrency.imbalance"] = statistics.mean(imbalance)
    m["concurrency.serial_frac"] = sum(sec[s] for s in BARRIER_SPANS) / total_wall
    m["unattributed.share"] = (1.0 - sum(m[l + ".share"] for l in LAYERS)
                               - m["concurrency.idle_frac"])

    mean = lambda key: statistics.mean(g[key] for g in timed)
    m["wavefunction.acceptance"] = mean("acceptance")
    m["wavefunction.drift_refreshes"] = mean("drift_refreshes")
    m["wavefunction.drift_rows_sampled"] = mean("drift_rows_sampled")
    m["drivers.births_per_gen"] = mean("births")
    m["drivers.deaths_per_gen"] = mean("deaths")
    m["drivers.walkers_mean"] = mean("walkers")

    b = tr["bytes"]
    m["particle.dist_table_mib"] = b["dist_table"] / MIB
    m["wavefunction.spline_mib"] = b["spline"] / MIB
    m["drivers.walker_mib"] = b["walkers"] / MIB
    m["instrument.tracked_footprint_mib"] = b["tracked_footprint"] / MIB
    m["instrument.tracked_peak_mib"] = b["tracked_peak"] / MIB
    m["workloads.build_system_s"] = setup["workloads.build_system"]
    m["drivers.initialize_population_s"] = setup["drivers.initialize_population"]
    m["io.read_snapshot_s"] = setup["io.read_snapshot"]
    written = [g["checkpoint_bytes"] for g in timed if g["checkpoint_bytes"] > 0]
    m["io.snapshot_mib"] = statistics.mean(written) / MIB if written else 0.0
    m["io.write_mib_per_s"] = (sum(written) / MIB / sec["io.write_snapshot"]) if written else 0.0
    m["io.read_mib_per_s"] = (b["snapshot_read"] / MIB / setup["io.read_snapshot"]
                              if b["snapshot_read"] else 0.0)

    untraced = d["generations"]
    m["instrument.trace_overhead"] = 1.0 - (
        samples_per_s(gens, [gen_end[g["gen"]] for g in gens])
        / samples_per_s(untraced, [g["t"] for g in untraced]))
    return m


# ---- provenance ----------------------------------------------------------

def git_sha():
    """HEAD of the checkout, read from .git directly ("unknown" outside git)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def provenance(args, program):
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "compiler": program.get("compiler"),
        "flags": program.get("flags"),
        "build_type": program.get("build_type"),
        "git_sha": git_sha(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
        "utc": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
    }


# ---- main ----------------------------------------------------------------

def summarize(values):
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values)}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        contract = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                    help="repeatable; default: all four")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="driver seed; run r of --runs uses seed + r")
    ap.add_argument("--seconds", type=float, default=contract["run_seconds"],
                    help="timed region per run, after %d warm-up generations; must equal "
                    "run_seconds of BENCHMARK.json, which fixes the run length" % WARMUP)
    ap.add_argument("--trace", nargs="?", const=1, default=0, type=int, choices=[0, 1],
                    help="report the per-layer metrics from a traced run")
    ap.add_argument("--runs", type=int, default=1, help="interleaved repeats per workload")
    ap.add_argument("--quick", action="store_true",
                    help="%d generations per workload, all checks, no metric claims"
                    % (WARMUP + 1))
    ap.add_argument("--json", help="result file (default: benchmark/build/results/)")
    args = ap.parse_args()
    names = args.workload or list(WORKLOADS)
    if args.runs < 1:
        ap.error("--runs must be >= 1")
    if args.seconds != contract["run_seconds"]:
        ap.error("--seconds %g: the run length is run_seconds of BENCHMARK.json (%g)"
                 % (args.seconds, contract["run_seconds"]))

    build()
    with open(os.path.join(HERE, "reference.json")) as f:
        reference = json.load(f)["first_generation_energy"]
    declared = contract["per_layer"] if args.trace else contract["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    runs, program = [], {}
    for r in range(args.runs):
        seed = args.seed + r
        for name in names:
            rec = {"workload": name, "seed": seed, "attempted": 0, "failed": 0, "metrics": {}}
            try:
                d = measure(name, seed, args.seconds, args.trace, args.quick)
                program = d
                problems, notes = check(name, seed, d, reference)
                gens = d["generations"]
                rec["first_energy"] = gens[0]["energy"]
                rec["generations"] = [[g["gen"], g["walkers"], g["t"]] for g in gens]
                rec["attempted"] = sum(g["walkers"] for g in gens[WARMUP:])
                if not args.quick:
                    rec["generation_s"] = generation_seconds(gens)
                if not args.quick and not problems:
                    computed = per_layer(d) if args.trace else end_to_end(d)
                    missing = sorted(set(units) - set(computed))
                    if missing:
                        raise RunError("metrics declared but not measured: " + ", ".join(missing))
                    rec["metrics"] = {k: computed[k] for k in units}
            except RunError as e:
                problems, notes = [str(e)], []
            rec["problems"], rec["notes"] = problems, notes
            if problems:
                # A non-finite generation is itself a failed check, so
                # every sample of a failing run counts as failed.
                rec["attempted"] = rec["failed"] = max(rec["attempted"], 1)
            for p in problems:
                print("%s seed %d CHECK FAILED: %s" % (name, seed, p))
            for note in notes:
                print("%s seed %d note: %s" % (name, seed, note))
            for k, v in rec["metrics"].items():
                print("%s %s %.6g %s" % (name, k, v, units[k]))
            gs = rec.get("generation_s")
            if gs:
                tail = (", p%.3g %.4g s" % (gs["tail_percentile"], gs["tail"])
                        if "tail" in gs else "")
                print("%s generation time: median %.4g s%s, %d timed generations"
                      % (name, gs["median"], tail, gs["n"]))
            sys.stdout.flush()
            runs.append(rec)

    summary = {}
    for name in names:
        mine = [r for r in runs if r["workload"] == name and r["metrics"]]
        summary[name] = {k: dict(summarize([r["metrics"][k] for r in mine]), unit=units[k])
                         for k in (mine[0]["metrics"] if mine else {})}
    result = {"schema": "qmcxx-benchmark-v1", "provenance": provenance(args, program),
              "runs": runs, "summary": summary}
    path = args.json or os.path.join(
        BUILD, "results",
        "result-%s-%d.json" % (result["provenance"]["utc"].replace(":", ""), os.getpid()))
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as f:
        json.dump(result, f, indent=1)
    sys.stderr.write("run.py: results in %s\n" % path)

    correct = all(not r["problems"] for r in runs)
    metrics = {}
    for name in names:
        for k, s in summary[name].items():
            key = k if len(names) == 1 else "%s.%s" % (name, k)
            metrics[key] = {"value": s["median"], "unit": s["unit"]}
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in runs),
                      "failed": sum(r["failed"] for r in runs),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
