"""Layer-attributed benchmark of the HTTP/2 attack testbed.

    python3 layerbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  ``--trace 0`` times a closed loop of
the workload's operations for ``S`` seconds and prints the end-to-end
metrics; ``--trace 1`` makes the fixed traced passes and prints the
per-layer metrics.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Everything
is described in ``layerbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from layerbench import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SETUP_PROBES = 5
#: Seconds a leftover child gets to exit after SIGTERM before SIGKILL.
STOP_GRACE_S = 5.0
PR_SET_CHILD_SUBREAPER = 36


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def prepare_program() -> bool:
    """Put the checkout's sources on the path."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"layerbench: no program sources under {ROOT / 'src'}; "
              "run from the root of a checkout", file=sys.stderr)
        return False
    sys.path.insert(1, str(ROOT / "src"))
    return True


def set_up(args, workdir: str):
    """Imports, input generation and one untimed warm-up operation."""
    from layerbench import workloads

    workloads.clear_program_settings()
    golden = workloads.load_golden()
    workload = workloads.build(args.workload, args.seed, workdir, golden)
    workload.warmup()
    return workload


def measure_setup(args) -> list:
    """Seconds from process start to ready-to-time, in fresh processes."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--setup-probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        began = time.perf_counter()
        with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as probe:
            line = probe.stdout.readline()
            ready = time.perf_counter() - began
            probe.stdout.read()
        if probe.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe failed ({probe.returncode})")
        samples.append(ready)
    return samples


def calibration_line(calibration_ms) -> str:
    before, after = calibration_ms
    return ("host.calib_ms    before "
            f"{statistics.median(before):.3f}, after "
            f"{statistics.median(after):.3f} (host speed, not a metric)")


def report(workload_name: str, lines, result: dict) -> None:
    print(f"layerbench {workload_name}")
    for line in lines:
        print(f"  {line}")
    print(json.dumps(result))


def timed(args, workload, workdir: str) -> int:
    from layerbench import measure

    run = measure.timed_run(workload, args.seconds)
    tally = run.tally
    peak = measure.peak_rss_mb(workload.workers)
    setup = measure_setup(args)
    latency = measure.latency_percentiles(tally.latencies_ms)
    values = {
        "sessions_per_s": tally.median_sessions_per_s,
        "session_p50_ms": tally.median_latency_ms,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak,
        "success_rate": tally.success_rate,
    }
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in measure.END_TO_END}
    lines = [f"{name:<16} {values[name]:.6g} {unit}"
             for name, unit in measure.END_TO_END]
    lines += [
        f"session_p90_ms   "
        + (f"{latency['p90']:.6g} ms" if "p90" in latency else
           f"not reported ({len(tally.latencies_ms)} samples < "
           f"{measure.P90_MIN_SAMPLES})"),
        f"operations       {tally.attempted} attempted, {tally.failed} "
        f"failed, {tally.sessions} sessions in {tally.wall_s:.3f} s",
        f"setup samples    {', '.join(f'{value:.3f}' for value in setup)} s",
        calibration_line(run.calibration_ms),
    ]
    report(args.workload, lines, {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    })
    return 0


def traced(args, workload, workdir: str) -> int:
    from layerbench import measure

    spans_path = str(ROOT / "layerbench" / ".work" / f"spans-{args.workload}")
    run = measure.traced_run(workload, workdir, spans_path)
    for problem in run.mismatches:
        print(f"layerbench: nondeterminism: {problem}", file=sys.stderr)
    for note in run.order_dependent:
        print(f"layerbench: nondeterminism (follows shard completion "
              f"order, not gated): {note}", file=sys.stderr)
    metrics = {name: {"value": run.metrics[name], "unit": unit}
               for name, unit in measure.PER_LAYER}
    lines = [f"{name:<32} {run.metrics[name]:.6g} {unit}"
             for name, unit in measure.PER_LAYER]
    lines.append(f"exact counts agree across passes: {not run.mismatches}")
    lines.append(calibration_line(run.calibration_ms))
    report(args.workload, lines, {
        "correct": run.failed == 0 and not run.mismatches,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    })
    return 0


def adopt_orphans() -> None:
    """On Linux, become the parent of every orphaned descendant, so
    :func:`stop_children` also waits for processes whose own parent
    exited first."""
    try:
        import ctypes

        ctypes.CDLL(None).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def child_pids() -> list:
    pids = []
    for entry in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = entry.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == os.getpid():
            pids.append(int(entry.parent.name))
    return pids


def reap(pids, timeout_s: float) -> list:
    """Wait up to ``timeout_s`` for ``pids`` to exit; the ones left."""
    waiting = set(pids)
    deadline = time.monotonic() + timeout_s
    while waiting:
        for pid in list(waiting):
            try:
                if os.waitpid(pid, os.WNOHANG)[0] == pid:
                    waiting.discard(pid)
            except ChildProcessError:
                waiting.discard(pid)
        if not waiting or time.monotonic() >= deadline:
            break
        time.sleep(0.01)
    return sorted(waiting)


def stop_children() -> None:
    """Stop every process this run started and wait until each has
    ended: the resource tracker that the program's spawn workers share
    lives until its pipe closes, so it is stopped first; whatever is
    left then gets SIGTERM, and SIGKILL after :data:`STOP_GRACE_S`."""
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None and hasattr(tracker._resource_tracker, "_stop"):
        tracker._resource_tracker._stop()
    left = reap(child_pids(), 0.0)
    for sig, grace in ((signal.SIGTERM, STOP_GRACE_S),
                       (signal.SIGKILL, STOP_GRACE_S)):
        for pid in left:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        left = reap(left, grace)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not prepare_program():
        return 2
    adopt_orphans()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    workdir = str(ROOT / "layerbench" / ".work" / f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = set_up(args, workdir)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        return (traced if args.trace else timed)(args, workload, workdir)
    finally:
        stop_children()
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
