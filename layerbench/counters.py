"""Exact work counters read from outside the program.

Every counter here is a count of work the program did, not a time, so
two runs of the same inputs must agree on it exactly.  The benchmark
compares them across passes and reports any difference as program
nondeterminism.  The one exception is the sum of checkpoint bytes: the
checkpoint is rewritten as each shard completes, so the intermediate
files follow completion order.
"""

from __future__ import annotations

import os
import time
from typing import Dict

from layerbench.tracer import Patcher

#: Packet-stack work counts, named as the benchmark reports them, with
#: the :mod:`repro.profiling` counter each one is read from.
STACK_COUNTS = {
    "sim.events": "sim.events",
    "net.packets": "net.packets",
    "trace.records": "trace.records",
    "h2.frames": "h2.frames_sent",
    "transport.retransmits": "tcp.retransmitted_segments",
}


class StackCounts:
    """Packet-stack work counts of attacked page loads.

    ``repro.experiments.harness.run_trial`` feeds these counters into
    the active :mod:`repro.profiling` profiler itself.
    ``evaluate_page_full`` has no profiler hooks, so the objects it
    builds are captured as they are constructed and the same counters
    are read from them, by the same rules as ``run_trial``.
    """

    def __init__(self) -> None:
        from repro import profiling

        self.profiler = profiling.Profiler()

    def install(self, patcher: Patcher) -> None:
        from repro.campaign import engine
        from repro.h2 import client, server
        from repro.netsim import topology

        built: Dict[str, object] = {}

        def capture(key):
            def wrapper(factory):
                def build(*args, **kwargs):
                    built[key] = factory(*args, **kwargs)
                    return built[key]
                return build
            return wrapper

        # evaluate_page_full imports these inside the function, so
        # patching the defining modules reaches it and only it.
        patcher.wrap(topology, "build_adversary_path", capture("topology"))
        patcher.wrap(client, "H2Client", capture("client"))
        patcher.wrap(server, "H2Server", capture("server"))

        profiler = self.profiler

        def harvest(function):
            def evaluate(*args, **kwargs):
                built.clear()
                outcome = function(*args, **kwargs)
                topo, h2_client, h2_server = (
                    built["topology"], built["client"], built["server"])
                connections = h2_server.connections
                profiler.count("sim.events", topo.sim.events_executed)
                profiler.count("net.packets", len(topo.middlebox.capture))
                profiler.count("trace.records", len(topo.trace))
                profiler.count(
                    "h2.frames_sent",
                    h2_client.h2.frames_sent
                    + sum(conn.h2.frames_sent for conn in connections))
                profiler.count(
                    "tcp.retransmitted_segments",
                    h2_client.tcp.retransmitted_segments
                    + sum(conn.tcp.retransmitted_segments
                          for conn in connections))
                return outcome
            return evaluate

        patcher.wrap(engine, "evaluate_page_full", harvest)

    def activate(self):
        """Context manager making this the active profiler."""
        from repro import profiling

        return profiling.profiled(self.profiler)

    def counts(self) -> Dict[str, int]:
        counters = self.profiler.counters
        return {name: counters.get(source, 0)
                for name, source in STACK_COUNTS.items()}


class ExecutorCounts:
    """Parent-side process starts and checkpoint flushes."""

    def __init__(self) -> None:
        self.processes_started = 0
        self.flushes = 0
        self.flush_ns = 0
        self.bytes_written = 0
        self.final_bytes = 0

    def install(self, patcher: Patcher) -> None:
        import multiprocessing.process

        from repro.experiments.executor import Checkpoint

        def count_start(start):
            def counted(process):
                self.processes_started += 1
                return start(process)
            return counted

        def meter_write(write):
            def metered(checkpoint):
                began = time.perf_counter_ns()
                write(checkpoint)
                self.flush_ns += time.perf_counter_ns() - began
                self.flushes += 1
                self.final_bytes = os.path.getsize(checkpoint.path)
                self.bytes_written += self.final_bytes
            return metered

        patcher.wrap(multiprocessing.process.BaseProcess, "start", count_start)
        patcher.wrap(Checkpoint, "_write", meter_write)

    def counts(self) -> Dict[str, int]:
        return {
            "executor.processes_started": self.processes_started,
            "checkpoint.flushes": self.flushes,
            "checkpoint.bytes_written": self.bytes_written,
            "checkpoint.final_bytes": self.final_bytes,
        }
