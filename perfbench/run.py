"""infotrap benchmark: one closed-loop client, one op at a time, one workload per process.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run is pinned to one CPU. A fixed kernel is timed before and after every
op and every set-up, and end-to-end times are reported at the kernel's
reference speed (see ``speed.py``); the raw wall figures go to the run record.
Set-up (a fresh interpreter importing the package, parsing the generated
scenario file and warming up) is timed five times in child processes. Then
ops run back to back, in whole rounds, until their summed latency at the
reference speed reaches ``--seconds``. Outputs are checked after the timed
loop. With ``--trace 1`` the loop runs with layer wrappers installed, and
every fourth round is replayed at once without them, which gives the tracing
overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
name every metric with its unit and give the run record.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from itertools import count
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
SETUP_KERNELS = 10  # kernel samples on each side of a set-up probe
# Fixed, so that a faster program, which completes more ops, reports the same
# percentile as its parent. Every listed workload completes well over 100 ops.
TAIL_PCT = 90.0
TAIL_BEYOND = 10  # ops a tail percentile must leave above it
WALL_CAP = 2.0  # longest wall time of a run's ops, in units of --seconds
REPLAY_EVERY = 4  # in a traced run, rounds per round replayed untraced
THREAD_VARS = (
    "INFOTRAP_THREADS",
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
)


def pin_cpu() -> int:
    """Pin this process, and the children it starts, to one CPU; returns the CPU.

    The speed kernel and the ops it brackets then run on the same vCPU.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def cap_threads() -> int:
    """Cap the package's and BLAS's thread counts at the CPUs this process may use; returns them."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(max(1, min(wanted, nproc)))
    return nproc


def run_record(nproc: int, cpu: int, args) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:  # glibc reads cache sizes from the CPU itself
        listing = subprocess.run(["getconf", "-a"], capture_output=True, text=True, timeout=10).stdout
    except OSError:
        listing = ""
    caches = {}
    for line in listing.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0].endswith("CACHE_SIZE") and parts[1].isdigit():
            caches[parts[0].lower()] = int(parts[1])
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "host_cpus": os.cpu_count(),
        "pinned_cpu": cpu,
        "nproc": nproc,
        "caches_bytes": caches,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def measure_setup(inputs: Path, work: Path) -> list[dict]:
    """Time SETUP_REPEATS fresh interpreters doing the set-up; wall time includes start-up."""
    from speed import bracket

    probes = []
    for _ in range(SETUP_REPEATS):
        out = {}

        def probe() -> float:
            start = time.perf_counter()
            out["proc"] = subprocess.run(
                [sys.executable, str(HERE / "probe_setup.py"), str(SRC), str(inputs), str(work)],
                capture_output=True,
                text=True,
                timeout=120,
            )
            return time.perf_counter() - start

        wall, ref = bracket(probe, SETUP_KERNELS)
        proc = out["proc"]
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["wall_s"] = wall
        result["ref_s"] = ref
        probes.append(result)
    return probes


def tail_percentile(wanted: float, n: int) -> float:
    """``wanted``, or lower when fewer than TAIL_BEYOND ops would lie above it."""
    for pct in (wanted, 75.0, 50.0):
        if n * (1 - pct / 100) >= TAIL_BEYOND:
            return pct
    return 50.0


class Loop:
    """Closed-loop client: runs ops one at a time and keeps their outputs for checking."""

    def __init__(self, workloads_mod, scenarios_mod, work: Path, tracer=None):
        self.w = workloads_mod
        self.scenarios = scenarios_mod
        self.work = work
        self.tracer = tracer
        from speed import bracket

        self.bracket = bracket
        # (item, wall latency s, reference latency s, summary, (error type, message));
        # summary or error is None
        self.done: list[tuple] = []

    def one(self, item) -> float:
        """Run one op; returns its latency at the reference speed."""
        scenario = self.scenarios.parse_scenario(item.doc)  # untimed: a fresh, uncached input
        if self.tracer is not None:
            self.tracer.op = len(self.done)
        out = {}

        def op() -> float:
            start = time.perf_counter()
            try:
                out["result"] = self.w.run_op(item, scenario, self.work)
            except Exception as exc:  # the op failed; counted and reported, the run goes on
                out["error"] = (type(exc).__name__, str(exc))
            return time.perf_counter() - start

        wall, ref = self.bracket(op)
        error = out.get("error")
        if self.tracer is not None:
            self.tracer.op = None
        summary = None if error else self.w.summarize(item, out["result"], self.work)
        self.done.append((item, wall, ref, summary, error))
        return ref

    def run_rounds(self, seq, seconds: float, round_len: int) -> None:
        """Run whole rounds until the summed latency, at the reference speed, reaches ``seconds``.

        Counting reference time makes the inputs a run reaches independent of
        the host's speed. Where the run stops inside a stratum's cycle of
        sizes decides how many of the largest inputs it holds; letting the
        host's speed decide that spread ``op_tail_ms`` of ``exact_design`` by
        9% in a simulation from fixed per-input costs. The wall time
        is capped at WALL_CAP times ``seconds`` for hosts far slower than the
        reference.
        """
        busy = wall = 0.0
        while len(self.done) % round_len or (busy < seconds and wall < WALL_CAP * seconds):
            busy += self.one(next(seq))
            wall += self.done[-1][1]


def traced_rounds(traced: Loop, replay: Loop, tracer, seq, seconds: float, round_len: int) -> float:
    """Run whole traced rounds for ``seconds`` at the reference speed; returns the tracing overhead.

    Every REPLAY_EVERY-th round is run again at once with the wrappers off, so
    that traced and untraced times of the same ops are taken side by side.
    """
    busy = traced_s = untraced_s = 0.0
    for r in count():
        if busy >= seconds:
            return traced_s / untraced_s
        items = [next(seq) for _ in range(round_len)]
        spent = sum(traced.one(item) for item in items)
        busy += spent
        if r % REPLAY_EVERY == 0:
            tracer.detach()
            try:
                untraced_s += sum(replay.one(item) for item in items)
            finally:
                tracer.attach()
            traced_s += spent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "infotrap" / "__init__.py").is_file():
        print(f"error: no infotrap package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    cpu = pin_cpu()
    nproc = cap_threads()  # before numpy is imported, so BLAS reads the caps
    sys.path.insert(0, str(SRC))

    import workloads
    from checks import Checker
    from infotrap import scenarios

    if args.workload not in workloads.BUILDERS:
        parser.error(f"--workload must be one of {sorted(workloads.BUILDERS)}")
    workload = workloads.BUILDERS[args.workload]()
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    checker = Checker(reference["workloads"][args.workload])
    record = run_record(nproc, cpu, args)

    state = ROOT / ".perfbench"
    state.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=state, prefix="work-") as tmp:
        work = Path(tmp)
        inputs = work / "inputs.json"
        workloads.write_inputs(workload, args.seed, inputs)
        probes = measure_setup(inputs, work)
        scenarios.parse_scenario_file(inputs)
        workloads.warm_up(work)

        seq = workload.sequence(args.seed)
        if args.trace:
            import tracing

            tracer = tracing.install()
            try:
                loop = Loop(workloads, scenarios, work, tracer)
                replay = Loop(workloads, scenarios, work)
                overhead = traced_rounds(
                    loop, replay, tracer, seq, args.seconds, workload.round_len
                )
            finally:
                tracer.detach()
            tracer.write(state / f"trace-{args.workload}-seed{args.seed}.json")
        else:
            loop = Loop(workloads, scenarios, work)
            loop.run_rounds(seq, args.seconds, workload.round_len)

    failed = 0
    correct = True
    for item, _, _, summary, error in loop.done:
        if error is not None:
            failed += 1
            kind, message = error
            # A failure the reference records (ConvergenceError on a known
            # input) is counted but is not a wrong answer.
            if checker.expected_error(item) != kind:
                correct = False
                print(f"FAIL {item.name}: raised {kind}: {message}", file=sys.stderr)
            continue
        problems = checker.check(item, summary)
        if problems:
            failed += 1
            correct = False
            print(f"FAIL {item.name}: " + "; ".join(problems), file=sys.stderr)

    walls = [d[1] for d in loop.done]
    latencies = [d[2] for d in loop.done]  # at the reference speed
    attempted = len(latencies)
    pct = tail_percentile(TAIL_PCT, attempted)
    if args.trace:
        from tracing import PER_LAYER_UNITS, layer_metrics

        values = layer_metrics(tracer, attempted)
        values["cli.import_s"] = statistics.median(p["import_s"] for p in probes)
        values["scenarios.parse_s"] = statistics.median(p["parse_s"] for p in probes)
        values["trace.overhead"] = overhead
        units = PER_LAYER_UNITS
    else:
        cut = sorted(latencies)
        values = {
            "ops_per_s": attempted / sum(latencies),
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "op_tail_ms": cut[min(len(cut) - 1, int(len(cut) * pct / 100))] * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(p["ref_s"] for p in probes),
        }
        units = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
                 "peak_rss_mb": "MB", "setup_s": "s"}

    record.update(
        ops=attempted,
        failed=failed,
        error_rate=failed / attempted,
        tail_percentile=pct,
        setup_probes=probes,
        wall={"ops_per_s": attempted / sum(walls),
              "op_p50_ms": statistics.median(walls) * 1e3,
              "setup_s": statistics.median(p["wall_s"] for p in probes)},
        latencies_ms=[round(x * 1e3, 3) for x in latencies],
        wall_latencies_ms=[round(x * 1e3, 3) for x in walls],
    )
    for name in sorted(values):
        print(f"{args.workload} {name} = {values[name]:.6g} {units[name]}")
    print(f"{args.workload} error_rate = {failed / attempted:.6g} ({failed} of {attempted} ops)"
          f"; op_tail_ms is p{pct:g}")
    print(json.dumps({"run_record": record}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
