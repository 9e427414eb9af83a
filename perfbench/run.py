"""Benchmark of the hypcatenoid package in ./src, run from the repository root.

    python3 perfbench/run.py --workload bundle_cold --seed 1 --seconds 20 --trace 0

Each run is a closed loop with one client in this process: the next op
starts when the previous one has returned, and no threads are used (the
cli workload runs one child process at a time).  Every result is checked
against reference.json outside the timed region.  The last line of stdout
is one JSON object: with --trace 0 the end-to-end metrics, with --trace 1
the per-layer metrics of a traced run, whose spans are written to
.bench_out/.  The lines before it print the same metrics as a table, the
sample counts and every failed op with its inputs.

Times are taken at a reference machine speed.  On a shared virtual
machine the speed at which this process runs changes by up to 1.8x from
one second to the next, and run medians of raw op times moved by a third
between runs of the same code.  So before every op the run times a fixed
pure-Python kernel (speed_kernel), and each op's CPU time (this process
plus the children it has reaped) is scaled by KERNEL_REF_S over the median
kernel time of the SPEED_WINDOW ops on either side of it: the op time on a
machine where the kernel takes KERNEL_REF_S, the kernel's fastest time on
the 2.1 GHz Xeon vCPU of the recorded baseline.  The ops, like the kernel,
are single-threaded and CPU-bound, and the run keeps itself and its
children on one CPU (pin_to_one_cpu).  The table also prints the raw
CPU-time and wall-clock figures and the kernel's median time.

End-to-end metrics (--trace 0):
  setup_s      median over 10 fresh processes (5 before the ops, 5 after) of
               the CPU time from process start to the first op (interpreter,
               imports, reference, inputs and the workload's warm-up), each
               scaled by the kernel timed just before it
  ops_per_s    ops completed per second of op time
  op_p50_ms    median op time
  op_p90_ms    90th-percentile op time
  ok_ratio     ops that neither raised nor failed their check, over ops
               attempted (1 - fail_ratio; fail_ratio itself is 0 on a good
               run and is printed in the table)
  peak_rss_mb  peak resident memory of the process running the ops (for cli,
               the largest child)

A traced run alternates half-second slices untraced and traced, on two
input streams of the same seed, for --seconds or until SPAN_BUDGET spans
are held, and reports trace.overhead_ratio as the ratio of their median
scaled op times.  It also runs the instrumentation self-check of spans.selfcheck.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

import oracle
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 5  # set-up probes before the ops, and as many after
KERNEL_STEPS = 2000
KERNEL_REF_S = 0.25e-3
SPEED_WINDOW = 5
TRACE_SLICE_S = 0.5
# A traced run ends early once it holds this many spans (about 50 MB).
SPAN_BUDGET = 400_000
OUT_DIR = ".bench_out"

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ok_ratio", "1"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("quadrature.calls", "count"),
    ("quadrature.evals", "count"),
    ("quadrature.envelope_evals", "count"),
    ("quadrature.panels", "count"),
    ("quadrature.evals_per_call", "count"),
    ("quadrature.self_ms", "ms"),
    ("catenoid.rho_calls", "count"),
    ("catenoid.deficit_calls", "count"),
    ("catenoid.catenary_x_calls", "count"),
    ("catenoid.area_difference_calls", "count"),
    ("catenoid.evals_per_rho", "count"),
    ("catenoid.self_ms", "ms"),
    ("constants.bundle_calls", "count"),
    ("constants.cold_solves", "count"),
    ("constants.cache_hit_ratio", "1"),
    ("constants.root_solves", "count"),
    ("constants.root_fevals", "count"),
    ("constants.root_fevals_per_solve", "count"),
    ("constants.solve_a_c_ms", "ms"),
    ("constants.solve_a_c_evals", "count"),
    ("constants.self_ms", "ms"),
    ("circles.separation_solves", "count"),
    ("circles.normalize_calls", "count"),
    ("circles.apply_isometry_calls", "count"),
    ("circles.typed_errors", "count"),
    ("circles.self_ms", "ms"),
    ("competitor.classify_calls", "count"),
    ("competitor.compete_calls", "count"),
    ("competitor.self_ms", "ms"),
    ("mesh.sample_ms", "ms"),
    ("mesh.build_self_ms", "ms"),
    ("mesh.write_ms", "ms"),
    ("mesh.bytes_written", "bytes"),
    ("mesh.vertices", "count"),
    ("mesh.faces", "count"),
    ("mesh.write_mb_per_s", "MB/s"),
    ("cli.interp_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("cli.main_ms", "ms"),
    ("cli.exit_nonzero", "count"),
    ("trace.overhead_ratio", "1"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_package(root):
    """Import hypcatenoid from the src directory under root, and nowhere else."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "hypcatenoid", "__init__.py")):
        raise SystemExit(f"perfbench: {src}/hypcatenoid not found; run from the repository root")
    sys.path.insert(0, src)
    import hypcatenoid

    if os.path.dirname(os.path.dirname(os.path.abspath(hypcatenoid.__file__))) != src:
        raise SystemExit(f"perfbench: imported hypcatenoid from {hypcatenoid.__file__}, not {src}")
    return hypcatenoid, src


def cpu_seconds():
    """CPU time of this process plus that of its reaped child processes."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def speed_kernel():
    """Fixed pure-Python float work, like the package's integrands."""
    total = 0.0
    for k in range(KERNEL_STEPS):
        x = k * 1.0e-3
        total += math.cosh(x) / math.sqrt(1.0 + x * x)
    return total


def kernel_seconds():
    start = cpu_seconds()
    speed_kernel()
    return cpu_seconds() - start


@dataclasses.dataclass
class Loop:
    """Per op: CPU and wall seconds, and the kernel's CPU seconds before it."""

    cpu: list = dataclasses.field(default_factory=list)
    wall: list = dataclasses.field(default_factory=list)
    kernel: list = dataclasses.field(default_factory=list)
    failures: list = dataclasses.field(default_factory=list)

    def scaled(self):
        """Each op's CPU seconds at the speed where the kernel takes KERNEL_REF_S."""
        w = SPEED_WINDOW
        return [
            t * KERNEL_REF_S / statistics.median(self.kernel[max(0, i - w):i + w + 1])
            for i, t in enumerate(self.cpu)
        ]


def closed_loop(run, check, ops, seconds, tracer=None, min_ops=1):
    """Run ops back to back until `seconds` of wall time have passed.

    Only run(op) is timed, after the speed kernel; check(op, result) runs
    after the clocks stop.  Failures are (op, problems).
    """
    loop = Loop()
    deadline = time.perf_counter() + seconds
    while len(loop.cpu) < min_ops or time.perf_counter() < deadline:
        op = next(ops)
        loop.kernel.append(kernel_seconds())
        if tracer is not None:
            tracer.begin_op()
        start, start_cpu = time.perf_counter(), cpu_seconds()
        try:
            result = run(op)
        except Exception as exc:  # an op that raises is a failed op; keep going
            loop.cpu.append(cpu_seconds() - start_cpu)
            loop.wall.append(time.perf_counter() - start)
            loop.failures.append((op, [f"{type(exc).__name__}: {exc}"]))
            continue
        loop.cpu.append(cpu_seconds() - start_cpu)
        loop.wall.append(time.perf_counter() - start)
        problems = check(op, result)
        del result  # a mesh must not outlive its check into the next op
        if problems:
            loop.failures.append((op, problems))
    return loop


def setup_seconds(workload, seed, probes):
    """Scaled CPU times from starting a fresh process to its first op being ready.

    The probe reports its own process_time, which counts from the fork and
    so covers interpreter start, imports and the workload's set-up.
    """
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "0", "--setup-probe"]
    times = []
    for _ in range(probes):
        speed = statistics.median(kernel_seconds() for _ in range(2 * SPEED_WINDOW + 1))
        with subprocess.Popen(argv, stdout=subprocess.PIPE) as child:
            line = child.stdout.readline().split()
            child.stdout.read()
        if line[:1] != [b"ready"] or len(line) != 2 or child.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {child.returncode})")
        times.append(float(line[1]) * KERNEL_REF_S / speed)
    return times


def latency_metrics(latencies):
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1e3,
    }


def plain_run(wl, args):
    # Half the set-up probes run before the ops and half after, so their
    # median samples the machine over the whole run.
    setups = setup_seconds(args.workload, args.seed, SETUP_PROBES)
    loop = closed_loop(wl.run, wl.check, wl.ops("run"), args.seconds, min_ops=2)
    setups += setup_seconds(args.workload, args.seed, SETUP_PROBES)
    scaled = loop.scaled()
    metrics = {"setup_s": statistics.median(setups)}
    metrics.update(latency_metrics(scaled))
    metrics["ok_ratio"] = 1.0 - len(loop.failures) / len(loop.cpu)
    metrics["peak_rss_mb"] = wl.peak_rss_kb() / 1024.0
    notes = [f"  speed kernel median {statistics.median(loop.kernel) * 1e3:.6g} ms "
             f"(reference {KERNEL_REF_S * 1e3:.6g} ms); unscaled:"]
    for clock, latencies in (("CPU", loop.cpu), ("wall", loop.wall)):
        raw = latency_metrics(latencies)
        notes.append(f"    {clock:4s} op_p50_ms {raw['op_p50_ms']:.6g} ms, op_p90_ms "
                     f"{raw['op_p90_ms']:.6g} ms, ops_per_s {raw['ops_per_s']:.6g} 1/s")
    return metrics, scaled, loop.failures, notes, []


def interpreter_costs(src):
    """Median ms of `python -c pass`, and of importing hypcatenoid on top of it."""
    env = dict(os.environ, PYTHONPATH=src)

    def median_ms(code):
        times = []
        for _ in range(2 * SETUP_PROBES):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True)
            times.append(time.perf_counter() - start)
        return statistics.median(times) * 1e3

    interp = median_ms("pass")
    return interp, median_ms("import hypcatenoid") - interp


def traced_run(wl, args, hc, src):
    # Untraced and traced slices alternate, each on its own input stream, so
    # both see the same machine and trace.overhead_ratio does not drift with
    # it.  cli runs in process in both, so the ratio compares like with like.
    untraced_ops, traced_ops = wl.ops("untraced"), wl.ops("traced")
    tracer = spans.Tracer(hc)
    base, traced, failures = [], [], []
    deadline = time.perf_counter() + args.seconds
    while (
        time.perf_counter() < deadline and len(tracer.spans) < SPAN_BUDGET
    ) or len(traced) < wl.count_ops:
        loop = closed_loop(wl.run_in_process, wl.check, untraced_ops, TRACE_SLICE_S)
        base += loop.scaled()
        failures += loop.failures
        with tracer.install():
            loop = closed_loop(wl.run_in_process, wl.check, traced_ops, TRACE_SLICE_S, tracer)
        traced += loop.scaled()
        failures += loop.failures
    metrics = tracer.metrics(wl.count_ops, len(traced))
    interp_ms, import_ms = interpreter_costs(src)
    metrics["cli.interp_ms"] = interp_ms
    metrics["cli.import_ms"] = import_ms
    metrics["cli.exit_nonzero"] = wl.nonzero_exits / (len(base) + len(traced))
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(base)
    metrics = {name: metrics[name] for name, _ in PER_LAYER}

    tracer.dump(os.path.join(wl.scratch, f"spans-{args.workload}-{args.seed}.tsv"))
    rows = spans.selfcheck(hc)
    notes = ["instrumentation self-check at abs_tol 1e-10: call, traced count, outside-wrapper count"]
    notes += [f"  {name:28s} {traced:8d} {outside:8d}" for name, traced, outside in rows]
    problems = [f"{name}: traced {t} != outside {o}" for name, t, o in rows if t != o]
    return metrics, base + traced, failures, notes, problems


def report(args, metrics, latencies, failures, notes, units):
    n = len(latencies)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  ops {n}  "
          f"failed {len(failures)}  fail_ratio {len(failures) / n:.6g} 1")
    if args.trace == 0:
        beyond = sum(1 for x in latencies if x * 1e3 > metrics["op_p90_ms"])
        print(f"  op latency samples {n}; {beyond} lie beyond op_p90_ms")
    for name, unit in units:
        print(f"  {name:34s} {metrics[name]:.6g} {unit}")
    for note in notes:
        print(note)
    for op, problems in failures:
        print(f"FAILED {op!r}")
        for problem in problems:
            print(f"    {problem}")


def pin_to_one_cpu():
    """Keep this process and its children on one CPU, the one the kernel gauges.

    The vCPUs of a shared host run at different speeds at the same moment,
    so a child or a set-up probe on another vCPU would be scaled by the
    wrong kernel time.  Time waiting for the CPU is not CPU time, so
    sharing it does not count.
    """
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass  # no affinity control here: run unpinned


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_to_one_cpu()
    root = os.getcwd()
    hc, src = import_package(root)
    ref = oracle.Reference()
    wl = workloads.WORKLOADS[args.workload](hc, ref, args.seed, _scratch(root), src)
    try:
        if args.setup_probe:
            next(wl.ops("run"))
            print(f"ready {time.process_time()!r}", flush=True)
            return 0
        if args.trace:
            metrics, latencies, failures, notes, problems = traced_run(wl, args, hc, src)
            units = PER_LAYER
        else:
            metrics, latencies, failures, notes, problems = plain_run(wl, args)
            units = END_TO_END
    finally:
        wl.close()
    report(args, metrics, latencies, failures, notes + problems, units)
    result = {
        "correct": not failures and not problems,
        "attempted": len(latencies),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }
    print(json.dumps(result))
    return 0


def _scratch(root):
    path = os.path.join(root, OUT_DIR)
    os.makedirs(path, exist_ok=True)
    return path


if __name__ == "__main__":
    sys.exit(main())
