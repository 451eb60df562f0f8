#!/usr/bin/env python3
"""astribench driver: build, run, check and summarise the benchmark.

Builds the repository's libraries and the astribench program under
.bench_build/, then runs every repetition as a fresh child process,
checks that the simulation is correct and deterministic, and prints each
metric by name and unit as the median over repetitions. The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}.

  python3 bench/astribench/run.py                       # all workloads, 3 rounds
  python3 bench/astribench/run.py --workload tpcc_1pct_zns --seed 3 --seconds 30
  python3 bench/astribench/run.py --workload tatp_256c --trace 1
  python3 bench/astribench/run.py --smoke               # 1/50 size, self-checks on
  python3 bench/astribench/run.py --self-test           # the gate catches faults

Exit status: 0 when every repetition ran and every check passed; 1 when a
repetition failed or a check did not hold; 2 on bad arguments or when the
repository sources are missing.
"""

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parents[1]
BUILD = ROOT / ".bench_build"
LIB_BUILD = BUILD / "astri"
BENCH_BUILD = BUILD / "astribench"
BINARY = BENCH_BUILD / "astribench"
LAYERS = BENCH_DIR / "layers.txt"
LIB_TARGETS = ["astri_sim", "astri_mem", "astri_flash", "astri_cpu",
               "astri_workload", "astri_os", "astri_core"]

# Repetitions per workload before --seconds may end the run.
MIN_REPS = 3
# A run must end within this many seconds of the build finishing.
DEADLINE_S = 170
# The ledger must explain at least this share of run()'s samples.
MAX_UNATTRIBUTED = 0.10
# The determinism gate compares this workload against tatp_256c.
HJ4, HJ1 = "tatp_256c_hj4", "tatp_256c"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    # Printed in the tables but not part of the result line.
    units = {"run_s": "s", "run_cpu_s": "s", "run_min_s": "s",
             "host.clock_ghz": "GHz"}
    units.update({m["name"]: m["unit"]
                  for m in spec["end_to_end"] + spec["per_layer"]})
    return spec, units


def build():
    """Configure and build on first use; later calls are no-op checks."""
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        log(f"astribench: no repository sources in {ROOT}")
        sys.exit(2)
    jobs = str(min(4, os.cpu_count() or 1))
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = []
    if not (LIB_BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT), "-B", str(LIB_BUILD), *gen])
    steps.append(["cmake", "--build", str(LIB_BUILD), "-j", jobs,
                  "--target", *LIB_TARGETS])
    if not (BENCH_BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BENCH_BUILD),
                      *gen, f"-DASTRI_BUILD={LIB_BUILD}"])
    steps.append(["cmake", "--build", str(BENCH_BUILD), "-j", jobs])
    BUILD.mkdir(exist_ok=True)
    build_log = BUILD / "build.log"
    with open(build_log, "w") as out:
        for cmd in steps:
            # Own process group, so a timeout also stops the compilers.
            proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT,
                                    start_new_session=True)
            ok = False
            try:
                ok = proc.wait(timeout=840) == 0
            except subprocess.TimeoutExpired:
                pass
            finally:
                if proc.poll() is None:
                    os.killpg(proc.pid, signal.SIGKILL)
                    proc.wait()
            if not ok:
                break
        else:
            return
    log("astribench: build failed:\n" +
        "\n".join(build_log.read_text().splitlines()[-30:]))
    sys.exit(1)


class Rep:
    """One child process: its parsed output, or why it failed."""

    def __init__(self, workload, seed, traced, data=None, error=None):
        self.workload, self.seed, self.traced = workload, seed, traced
        self.data, self.error = data, error

    @property
    def ok(self):
        return self.error is None

    def metric(self, name):
        return self.data["metrics"][name]


def run_child(workload, seed, deadline, traced=False, smoke=False,
              trace_dir=None, crash=False):
    cmd = [str(BINARY), f"--workload={workload}", f"--seed={seed}"]
    if smoke:
        cmd.append("--smoke")
    if traced:
        cmd += [f"--trace-dir={trace_dir}", f"--layers={LAYERS}"]
    no_core = (lambda: resource.setrlimit(resource.RLIMIT_CORE, (0, 0)))
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            preexec_fn=no_core)
    if crash:
        proc.send_signal(signal.SIGSEGV)
    try:
        out, err = proc.communicate(
            timeout=max(5.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return Rep(workload, seed, traced, error="timed out")
    finally:
        # Also reached when SIGTERM ends the driver (see main).
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    data = None
    lines = out.strip().splitlines()
    if lines:
        try:
            data = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    if proc.returncode != 0 or data is None:
        why = (f"killed by signal {-proc.returncode}" if proc.returncode < 0
               else f"exit {proc.returncode}")
        if data and data.get("errors"):
            why += ": " + "; ".join(data["errors"])
        elif err.strip():
            why += ": " + err.strip().splitlines()[-1]
        return Rep(workload, seed, traced, data, error=why)
    return Rep(workload, seed, traced, data)


def gate(workload, reps, reference=None, smoke=False):
    """Correctness problems of one workload's repetitions ([] if none).

    Every repetition must have run cleanly and measured exactly the jobs
    it asked for, and all of them (traced and untraced) must produce the
    same stats digest; tatp_256c_hj4 must also match tatp_256c's digest
    (@p reference) for the same seed.
    """
    problems = [f"{workload} seed {r.seed}: {r.error}"
                for r in reps if not r.ok]
    good = [r for r in reps if r.ok]
    for r in good:
        if r.data["measured_jobs"] != r.data["requested_jobs"]:
            problems.append(f"{workload}: measured {r.data['measured_jobs']}"
                            f" of {r.data['requested_jobs']} jobs")
        if smoke and r.data["invariant_checks"] == 0:
            problems.append(f"{workload}: smoke run evaluated no invariants")
        if r.traced:
            share = r.data["run_unattributed"] / max(1, r.data["run_samples"])
            if share >= MAX_UNATTRIBUTED:
                problems.append(f"{workload}: {share:.1%} of run() samples "
                                f"unattributed")
    digests = {(r.seed, r.data["digest"]) for r in good}
    if len({d for _, d in digests}) > 1:
        problems.append(f"{workload}: stats digest differs across "
                        f"repetitions: {sorted(digests)}")
    counts = {len(r.data["segments"]["wall_s"]) for r in good
              if not r.traced}
    if len(counts) > 1:
        problems.append(f"{workload}: run() segment counts differ across "
                        f"repetitions: {sorted(counts)}")
    if reference is not None and not reference.ok:
        problems.append(f"{reference.workload} reference: {reference.error}")
    elif reference is not None and good and \
            good[0].data["digest"] != reference.data["digest"]:
        problems.append(f"{workload}: digest {good[0].data['digest']} != "
                        f"{reference.workload} {reference.data['digest']}")
    return problems


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def segment_min(reps, clock):
    """run()'s cost with host interference left out: each repetition
    times run() in the same segments of job draws (see astribench.cpp);
    this sums, over the segments, the cheapest repetition's cost."""
    per_rep = [r.data["segments"][clock] for r in reps]
    return sum(min(costs) for costs in zip(*per_rep))


# Segment-minimum metrics and the per-segment cost each one sums.
SEGMENT_METRICS = {"run_gcycles": "wall_gcycles",
                   "run_cpu_gcycles": "cpu_gcycles",
                   "run_min_s": "wall_s"}


def summarise(spec, reps):
    """Per-repetition values of every metric: end-to-end metrics from
    untraced repetitions, the rest from traced ones when there are any.
    The SEGMENT_METRICS have one value, the segment minimum over all
    untraced repetitions."""
    plain = [r for r in reps if r.ok and not r.traced]
    traced = [r for r in reps if r.ok and r.traced]
    out = {}
    if plain:
        out = {name: [r.metric(name) for r in plain]
               for name in plain[0].data["metrics"]}
        for name, cost in SEGMENT_METRICS.items():
            out[name] = [segment_min(plain, cost)]
    if not traced:
        return out
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    for name in traced[0].data["metrics"]:
        if name not in end_to_end or not plain:
            out[name] = [r.metric(name) for r in traced]
    # Self time per layer: the layer's share of all profile samples,
    # pooled over the traced repetitions, times the median wall time of
    # the profiled calls (System::System + System::run).
    total = sum(sum(r.data["samples"].values()) for r in traced)
    wall = statistics.median(r.metric("setup_s") + r.metric("run_s")
                             for r in traced)
    for layer in traced[0].data["samples"]:
        n = sum(r.data["samples"][layer] for r in traced)
        out[f"self_s.{layer}"] = [n / max(1, total) * wall]
    if plain:
        # Whole-repetition times on both sides: traced runs are not
        # segmented.
        overhead = (statistics.median(r.metric("run_s") for r in traced) /
                    statistics.median(r.metric("run_s") for r in plain) - 1)
        out["trace_overhead_pct"] = [100 * overhead]
    return out


def print_table(workload, reps, values, units, problems):
    ok = [r for r in reps if r.ok]
    digest = ok[0].data["digest"] if ok else "-"
    print(f"== {workload}  seed={reps[0].seed}  reps={len(reps)} "
          f"(traced {sum(r.traced for r in reps)})  digest={digest}  "
          f"{'ok' if not problems else 'FAILED'}")
    for p in problems:
        print(f"   ! {p}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, q3 = quartiles(vals)
        unit = units.get(name, "s" if name.startswith("self_s.") else "")
        print(f"   {name:44s} {med:14.6g} {unit:7s}"
              f" q1 {q1:.6g}  q3 {q3:.6g}  n={len(vals)}")


def measure(args, workloads, trace_dir):
    """Round-robin repetitions over @p workloads until --seconds has
    passed (at least MIN_REPS rounds, or one untraced + traced pair).
    Returns {workload: [Rep]} and the tatp_256c repetition the
    determinism gate compares tatp_256c_hj4 against."""
    start = time.monotonic()
    deadline = start + DEADLINE_S
    reps = {w: [] for w in workloads}
    reference = None
    if HJ4 in workloads and HJ1 not in workloads:
        reference = run_child(HJ1, args.seed, deadline, smoke=args.smoke)
    rounds = 0
    min_rounds = 1 if args.trace else MIN_REPS
    while True:
        t0 = time.monotonic()
        for w in workloads:
            if args.trace:
                reps[w].append(run_child(w, args.seed, deadline,
                                         smoke=args.smoke))
            reps[w].append(run_child(w, args.seed, deadline,
                                     traced=bool(args.trace),
                                     smoke=args.smoke, trace_dir=trace_dir))
        rounds += 1
        now = time.monotonic()
        if any(not r.ok for rs in reps.values() for r in rs):
            break
        if rounds >= min_rounds and now + (now - t0) > start + args.seconds:
            break
    if HJ1 in workloads:
        reference = reps[HJ1][0]
    return reps, reference


def main():
    spec, units = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=0,
                    help="keep starting repetitions until this many "
                         "seconds have passed")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0,
                    help="1: traced repetitions, print per-layer metrics")
    ap.add_argument("--trace-dir", type=Path,
                    default=BUILD / "astribench-trace",
                    help="where traced runs write spans and profiles")
    ap.add_argument("--smoke", action="store_true",
                    help="1/50 of the jobs with simulator self-checks on")
    ap.add_argument("--self-test", action="store_true",
                    help="inject a seed mismatch and a crashing child, "
                         "and check that the gate catches both")
    ap.add_argument("--out", type=Path,
                    help="write every repetition's values to this file "
                         "(input of compare.py)")
    args = ap.parse_args()
    # Unwind on SIGTERM, so the finally blocks stop the running child.
    signal.signal(signal.SIGTERM,
                  lambda *_: sys.exit(128 + signal.SIGTERM))

    build()
    if args.self_test:
        sys.exit(self_test())

    workloads = names if args.workload == "all" else [args.workload]
    args.trace_dir.mkdir(parents=True, exist_ok=True)
    reps, reference = measure(args, workloads, args.trace_dir.resolve())

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics, problems, record = {}, [], {}
    children = [r for rs in reps.values() for r in rs]
    if reference is not None and HJ1 not in workloads:
        children.append(reference)
    for w in workloads:
        values = summarise(spec, reps[w])
        wp = gate(w, reps[w], reference if w == HJ4 else None, args.smoke)
        problems += wp
        print_table(w, reps[w], values, units, wp)
        prefix = "" if len(workloads) == 1 else f"{w}/"
        for m in wanted:
            if m["name"] in values:
                metrics[prefix + m["name"]] = {
                    "value": statistics.median(values[m["name"]]),
                    "unit": m["unit"]}
        record[w] = {"seed": args.seed, "values": values,
                     "digest": [r.data["digest"] for r in reps[w] if r.ok]}
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": len(children),
                      "failed": sum(not r.ok for r in children),
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


def self_test():
    """The gate must flag a repetition run with another seed and a
    child that crashes."""
    w = "tatp_open_16c"
    deadline = time.monotonic() + DEADLINE_S
    mismatch = [run_child(w, 1, deadline, smoke=True),
                run_child(w, 2, deadline, smoke=True)]
    crash = [run_child(w, 1, deadline, smoke=True, crash=True)]
    caught = {
        "seed mismatch": gate(w, mismatch, smoke=True),
        "crashing child": gate(w, crash, smoke=True),
    }
    for what, problems in caught.items():
        print(f"self-test: {what}: "
              f"{'caught: ' + problems[0] if problems else 'NOT CAUGHT'}")
    clean = gate(w, mismatch[:1], smoke=True)
    print(f"self-test: clean repetition: "
          f"{'passes' if not clean else 'FLAGGED: ' + clean[0]}")
    return 0 if all(caught.values()) and not clean else 1


if __name__ == "__main__":
    main()
