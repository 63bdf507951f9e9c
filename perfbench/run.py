#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload replay_mor --seed 1 --seconds 30 --trace 0

Run it from the repository root.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``:
every end-to-end metric with ``--trace 0``, every per-layer metric with
``--trace 1``.  The lines before it print the same metrics as a table,
plus a context record.  Everything the run writes (input cache, tables,
Ray's session files, the run record) stays under ``.perfbench/``.
The exit code is 0 only when every operation passed its correctness
check.
"""

from __future__ import annotations

import time

T_START = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != HERE]
sys.path.insert(0, ROOT)

STATE = os.path.join(ROOT, ".perfbench")
#: every workload runs on one core (Ray's CPU resource, and the process
#: affinity); the machine's own processor count goes into the context record
CPUS = 1
#: a run that has not finished by then exits non-zero
DEADLINE_S = 170
#: AF_UNIX socket paths are capped at 107 bytes; Ray's session and socket
#: names under its temp dir take about 64 of them
MAX_RAY_TMP = 43


def parse_args(argv=None):
    from perfbench.workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    return ap.parse_args(argv)


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def work_dirs() -> tuple[str, str]:
    """This run's working dir (those of dead runs are removed) and
    the shared input cache."""
    runs = os.path.join(STATE, "work")
    os.makedirs(runs, exist_ok=True)
    for name in os.listdir(runs):
        if name.isdigit() and not _alive(int(name)):
            shutil.rmtree(os.path.join(runs, name), ignore_errors=True)
    work = os.path.join(runs, str(os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    return work, os.path.join(STATE, "cache")


def start_ray(work: str, trace: bool) -> str | None:
    """Start a private single-node Ray; returns its temp dir (or None
    when the checkout path is too long to host Ray's sockets)."""
    import ray

    from perfbench.spans import SPAN_DIR_ENV, TRACE_ENV, quiet_logs

    tmp = os.path.join(work, "ray")
    if len(tmp) > MAX_RAY_TMP:
        tmp = os.path.join(STATE, "r")
        if len(tmp) > MAX_RAY_TMP:
            print(f"perfbench: checkout path too long for Ray sockets under {STATE}; "
                  "Ray keeps its session files in its default temp dir", file=sys.stderr)
            tmp = None
    span_dir = os.path.join(work, "spans")
    os.makedirs(span_dir, exist_ok=True)
    kwargs = {"_temp_dir": tmp} if tmp else {}
    ray.init(
        address="local",
        num_cpus=CPUS,
        include_dashboard=False,
        logging_level=logging.ERROR,
        log_to_driver=False,
        object_store_memory=768 << 20,
        runtime_env={
            "worker_process_setup_hook": "perfbench.spans.worker_setup",
            "env_vars": {
                # the setup hook is imported before Ray extends a worker's
                # sys.path with the driver's, so name the checkout here
                "PYTHONPATH": os.pathsep.join(filter(None, (ROOT, os.environ.get("PYTHONPATH")))),
                SPAN_DIR_ENV: span_dir,
                TRACE_ENV: "1" if trace else "0",
            },
        },
        **kwargs,
    )
    quiet_logs()
    return tmp


def pin_process(cpus: set[int]) -> None:
    """Bind every thread of this process, and what it starts later, to *cpus*."""
    for tid in os.listdir("/proc/self/task"):
        try:
            os.sched_setaffinity(int(tid), cpus)
        except OSError:  # the thread has ended
            pass


def _deadline(signum, frame):
    raise TimeoutError(f"run exceeded {DEADLINE_S}s")


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGALRM, _deadline)
    signal.alarm(DEADLINE_S)
    try:
        import arcane_stream_sqlserver_change_tracking_ray.pipelines.runner  # noqa: F401
        import arcane_stream_sqlserver_change_tracking_ray.stages.maintenance  # noqa: F401
    except ImportError as e:
        print(f"perfbench: the engine package is not importable from {ROOT}: {e}",
              file=sys.stderr)
        return 2
    import ray

    from perfbench import context
    from perfbench.metrics import END_TO_END, per_layer, per_layer_names
    from perfbench.spans import DriverTrace, cycle_split, quiet_logs, self_times
    from perfbench.workloads import FULL, SMOKE, Bench

    quiet_logs()
    t_imports = time.monotonic() - T_START
    work, cache = work_dirs()
    ctx = {"ray_cpus": CPUS, "nproc": context.nproc(), **context.versions(),
           "membw_gbps_before": context.membw_gbps()}
    # the driver, Ray's daemons and its workers (they inherit the affinity)
    # all share one core, whatever the machine has
    ctx["cpu"] = min(os.sched_getaffinity(0))
    pin_process({ctx["cpu"]})
    steal0, ticks0 = context.cpu_ticks()
    trace = DriverTrace(os.path.join(work, "spans")) if args.trace else None
    bench = Bench(args.workload, args.seed, args.seconds, SMOKE if args.smoke else FULL,
                  work, cache, trace)
    bench.make_inputs()  # generating cached inputs is not part of set-up

    # set-up is process start to the first timed operation, cold: imports,
    # Ray start and a fresh target warmed by one cycle (worker start-up and
    # the first Ray Data execution); input generation and the context
    # probes are left out
    ray_tmp = None
    try:
        if trace:
            trace.install()
        t0 = time.monotonic()
        ray_tmp = start_ray(work, bool(args.trace))
        t_ray = time.monotonic() - t0
        bench.setup()
        t_target = time.monotonic() - t0 - t_ray
        setup_s = t_imports + t_ray + t_target
        bench.run()
        e2e = bench.end_to_end(setup_s)
        layers = None
        if trace:
            spans, unjoined = trace.joined_spans()
            selfs = self_times(spans)
            layers = per_layer(
                spans, selfs, trace.rec.counts, trace.cycle_metrics,
                [st for _, _, st in bench.lookups], bench.workload == "replay_cow",
            )
            bench.record["trace_summary"] = {
                "spans": len(spans),
                "worker_spans_unjoined": unjoined,
                "cycle_split_s": cycle_split(spans, selfs),
            }
    finally:
        ray.shutdown()
        if ray_tmp:
            shutil.rmtree(ray_tmp, ignore_errors=True)
    ctx["membw_gbps_after"] = context.membw_gbps()
    steal1, ticks1 = context.cpu_ticks()
    ctx["cpu_steal_share"] = round((steal1 - steal0) / max(ticks1 - ticks0, 1), 4)

    units = {name: unit for name, unit, _ in END_TO_END}
    if args.trace:
        shown = {name: layers[name] for name, _, _ in per_layer_names()}
    else:
        shown = {name: (e2e[name], units[name]) for name in units}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "context": ctx,
        "setup": {"imports_s": t_imports, "ray_start_s": t_ray, "target_s": t_target},
        "end_to_end": e2e, "per_layer": {k: v[0] for k, v in (layers or {}).items()},
        "attempted": bench.attempted, "failed": bench.failed, "failures": bench.failures,
        "samples": bench.samples,
        **bench.record,
    }
    runs = os.path.join(STATE, "runs")
    os.makedirs(runs, exist_ok=True)
    with open(os.path.join(runs, f"{args.workload}-s{args.seed}-t{args.trace}-{time.time_ns()}.json"),
              "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1, default=str)
    shutil.rmtree(work, ignore_errors=True)

    print("context: " + json.dumps(ctx, sort_keys=True))
    width = max(len(n) for n in shown)
    for name, (value, unit) in shown.items():
        print(f"  {name:<{width}}  {value:>16.6g}  {unit}")
    correct = bench.failed == 0 and bench.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in shown.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
