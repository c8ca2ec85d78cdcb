"""The ``serve-fanout`` workload: standing queries served over NDJSON/TCP.

Per input set, a 2-node early-emit dataflow (``a ⟕ b``, then ``▷ c``) is
registered as a standing query in a server process of its own
(:mod:`serve_launcher`), which offers each run's inputs in an open loop at
the fixed rate ``serve_launcher.RATE``.  Each served run, two subscriber
connections read
one query until the ``settled`` end: one from the start, and a late joiner
that subscribes, with a snapshot, once the first has received
``LATE_AFTER_LINES`` lines.  A server serves one run of each query and is
then stopped and replaced.  It is the only workload that drives dataflow
retraction, the fan-out hub and the per-line hop of ``ServeServer``.

Every subscriber's final settled state must equal a direct
``DataflowQuery.run`` of the same graph, which itself must converge to the
batch joins; the direct run's time is printed next to the server's CPU
time per served run.
"""

from __future__ import annotations

import gc
import json
import os
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import List, Optional

from common import (
    Ledger,
    Outcome,
    end_to_end,
    median,
    peak_rss_mb,
    percentile,
    work_dir,
)

#: Tuples per stream.
SIZE = 60
#: Lines the first subscriber reads before the late joiner subscribes.
LATE_AFTER_LINES = 100
#: Server launches timed per run at least; ``setup_s`` is their median.
SETUP_LAUNCHES = 5

_HERE = Path(__file__).resolve().parent


class _Server:
    """One launcher process, from spawn to a checked SIGTERM exit."""

    def __init__(self, seed: int, trace: bool, tag: str, cpu: Optional[int]) -> None:
        self.tag = tag
        pinning = [] if cpu is None else ["--cpu", str(cpu)]
        self.out = work_dir() / f"serve-{os.getpid()}-{tag}.json"
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, str(_HERE / "serve_launcher.py"), "--seed", str(seed),
             "--size", str(SIZE), "--trace", str(int(trace)), "--out", str(self.out), *pinning],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            self.port, self.ready_cpu = self._await_ready(timeout=60.0)
        except BaseException:
            self.process.kill()
            self.process.wait()
            raise
        self.ready_seconds = time.perf_counter() - started

    def _await_ready(self, timeout: float):
        """Port and the server's CPU seconds when it printed ``READY``."""
        deadline = time.monotonic() + timeout
        stdout = self.process.stdout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([stdout], [], [], 0.5)
            if ready:
                line = stdout.readline()
                if line.startswith("READY "):
                    _, port, cpu = line.split()
                    return int(port), float(cpu)
                if not line and self.process.poll() is not None:
                    break
        raise RuntimeError("serve launcher did not become ready")

    def stop(self, ledger: Ledger) -> dict:
        """SIGTERM, wait, check a clean exit and a closed port; read output."""
        self.process.send_signal(signal.SIGTERM)
        try:
            code = self.process.wait(timeout=60.0)
        except subprocess.TimeoutExpired:
            self.process.kill()
            code = self.process.wait()
        self.process.stdout.close()
        ledger.record(code == 0, f"server exited with code {code}")
        try:
            probe = socket.create_connection(("127.0.0.1", self.port), timeout=1.0)
        except OSError:
            pass
        else:
            probe.close()
            ledger.record(False, f"port {self.port} still accepts after shutdown")
        payload = {}
        if self.out.exists():
            payload = json.loads(self.out.read_text())
            self.out.unlink()
        spans = Path(str(self.out) + ".spans")
        if spans.exists():
            spans.replace(work_dir() / f"serve-fanout-server-{self.tag}.spans.jsonl")
        return payload


def _open_sockets() -> int:
    count = 0
    for name in os.listdir("/proc/self/fd"):
        try:
            if os.readlink(f"/proc/self/fd/{name}").startswith("socket:"):
                count += 1
        except OSError:
            continue
    return count


class _Subscriber:
    """One subscriber connection: snapshot plus every line until ``end``."""

    def __init__(self, port: int, tracer=None) -> None:
        from repro.serve import ServeClient

        self.client = ServeClient("127.0.0.1", port, timeout=120.0)
        self.tracer = tracer
        self.snapshot: List = []
        self.lines: List[tuple] = []
        self.reason: Optional[str] = None
        self.error: Optional[BaseException] = None

    def subscribe(self, query: str) -> None:
        from repro.serve.registry import ServeError

        try:
            self.snapshot = self.client.subscribe(query, snapshot=True) or []
        except ServeError as error:
            self.error = error

    def read(self, on_line=None) -> None:
        """Read until the end line, keeping each line with its arrival time."""
        clock = time.perf_counter
        recv = self.client.recv
        tracer = self.tracer
        try:
            while True:
                if tracer is not None:
                    with tracer.span("serve.client.recv"):
                        message = recv()
                else:
                    message = recv()
                if message is None:
                    self.reason = "eof"
                    return
                if message.get("type") == "end":
                    self.reason = message.get("reason")
                    return
                self.lines.append((clock(), message))
                if on_line is not None:
                    on_line(len(self.lines))
        except Exception as error:  # surfaced as a failed operation
            self.error = error

    def close(self) -> None:
        self.client.close()

    def settled_rows(self):
        """The settled state this subscriber accumulated (snapshot + tail)."""
        from repro.dataflow.convergence import identity_rows
        from repro.dataflow.revision import Revision, RevisionKind
        from repro.serve import ResultCache
        from repro.serve.server import element_from_payload

        cache = ResultCache()
        for tp_tuple in self.snapshot:
            cache.apply(Revision(RevisionKind.EMIT, tp_tuple))
        for _, message in self.lines:
            cache.apply(element_from_payload(message))
        return identity_rows(cache.snapshot(), with_probability=False)


def _iteration(port: int, query: str, tracer=None):
    """Both subscribers of one served run; returns (seconds, first, late)."""
    first = _Subscriber(port, tracer)
    late = _Subscriber(port, tracer)
    joined = threading.Event()
    late_thread = threading.Thread(
        target=lambda: (joined.wait(), late.subscribe(query), late.read()),
        daemon=True,
    )
    late_thread.start()

    def on_line(count: int) -> None:
        if count == LATE_AFTER_LINES:
            joined.set()

    started = time.perf_counter()
    try:
        first.subscribe(query)
        if first.error is None:
            first.read(on_line)
        joined.set()
        late_thread.join(timeout=120.0)
        elapsed = time.perf_counter() - started
    finally:
        first.close()
        late.close()
    return elapsed, first, late


def _await_idle(port: int, query: str) -> None:
    """Wait until the finished plan group is idle, so the next subscribe
    starts a fresh run instead of attaching to the closed one."""
    from repro.serve import ServeClient

    with ServeClient("127.0.0.1", port) as client:
        for _ in range(2000):
            if not client.stats()["queries"][query]["running"]:
                return
            time.sleep(0.005)
    raise RuntimeError("standing query did not go idle")


def _hub_stats(port: int) -> dict:
    """Hub counters summed (blocks) and maxed (ring) over the queries."""
    from repro.serve import ServeClient

    with ServeClient("127.0.0.1", port) as client:
        stats = client.stats()
    return {
        "publish_blocks": sum(q["publish_blocks"] for q in stats["queries"].values()),
        "ring_high_watermark": max(
            entry["hub"]["ring_high_watermark"]
            for entry in stats["metrics"].values()
            if entry.get("hub")
        ),
    }


def _direct_references(seed: int, ledger: Ledger):
    """Per input set: rows of a direct threads run of the same graph and
    that run's seconds.  Each direct run must converge to the batch joins;
    one that does not is a failed operation."""
    from repro import ExecutionOptions
    from repro.dataflow import DataflowQuery, assert_converged
    from repro.dataflow.convergence import ConvergenceError, identity_rows

    from serve_launcher import DATASETS, build_catalog, nodes

    catalog = build_catalog(SIZE, seed)
    references = []
    for index in range(DATASETS):
        graph = nodes(index)
        query = DataflowQuery(catalog, graph, ExecutionOptions(early_emit=True))
        result = query.run(backend="threads")
        try:
            assert_converged(result, catalog, graph)
        except ConvergenceError as error:
            ledger.record(False, f"direct run {index} diverged from the batch joins: {error}")
        else:
            ledger.record(True)
        references.append(
            (identity_rows(result.relation.tuples, with_probability=False),
             result.elapsed_seconds)
        )
    return references


def _revisions(first: _Subscriber) -> List[tuple]:
    """(arrival, input event names) per emitted or refined revision line."""
    from repro.parallel.serialize import decode_lineage

    return [
        (arrived, tuple(decode_lineage(message["tuple"][1]).variables()))
        for arrived, message in first.lines
        if message.get("type") == "revision" and message.get("kind") != "retract"
    ]


def subscriber_ok(reason, error, rows, reference) -> tuple:
    """The gate of one subscriber: a ``settled`` end and the direct run's
    settled state.  ``rows`` computes the subscriber's state on demand."""
    if error is not None or reason != "settled":
        return False, f"ended with {reason!r} ({error!r})"
    if rows() != reference:
        return False, "settled state differs from the direct run"
    return True, ""


def _split_cpus() -> Optional[int]:
    """Give the server one CPU and keep the others for this process.

    Returns the server's CPU, or ``None`` on a single-CPU host.  Unpinned,
    the server's threads (event loop, executor, dataflow) hand the GIL back
    and forth across CPUs once per line, and a run's time swings up to 4x
    with the host's scheduling; on one CPU of its own, as a server would
    run beside clients on other hosts, it is repeatable.  The direct
    referee run and the subscribers share the remaining CPUs.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    os.sched_setaffinity(0, set(cpus[:-1]))
    return cpus[-1]


def _serve_cycles(seed, seconds, ledger, references, trace, cpu, client_tracer=None) -> dict:
    """Served runs until every input set was served once and ``seconds``
    are measured.

    A cycle launches a server, serves one run of each standing query in
    turn (stopping early once enough is measured), reads the hub stats and
    the server's peak RSS, and stops it with SIGTERM.  Each served run is
    gated and reduced to ``(input set, seconds, latencies, lines)`` right
    away, outside the timed region.
    """
    from serve_launcher import DATASETS, query_name

    found = {"runs": [], "setup": [], "ready_wall": [], "peak": 0.0, "hub": [],
             "payloads": [], "serve_cpu": 0.0}
    spent = 0.0
    broken = False
    while not broken and (len(found["runs"]) < DATASETS or spent < seconds):
        server = _Server(seed, trace, tag=str(len(found["setup"])), cpu=cpu)
        # Set-up is the server's CPU time from exec to READY (imports,
        # catalog, registration): wall time would add the host's steal.
        found["setup"].append(server.ready_cpu)
        found["ready_wall"].append(server.ready_seconds)
        cycle = []
        for index in range(DATASETS):
            if len(found["runs"]) + len(cycle) >= DATASETS and spent >= seconds:
                break
            query = query_name(index)
            try:
                elapsed, first, late = _iteration(server.port, query, client_tracer)
                _await_idle(server.port, query)
            except Exception as error:
                ledger.record(False, f"served run failed: {error!r}")
                cycle.append(None)
                broken = True  # do not spin on a broken server
                break
            spent += elapsed
            for label, subscriber in (("from-start", first), ("late joiner", late)):
                ok, problem = subscriber_ok(
                    subscriber.reason, subscriber.error, subscriber.settled_rows,
                    references[index][0],
                )
                ledger.record(ok, f"{label} subscriber: {problem}")
            cycle.append(
                (index, elapsed, _revisions(first), len(first.lines) + len(late.lines))
            )
            del first, late
            gc.collect()
        found["hub"].append(_hub_stats(server.port))
        found["peak"] = max(found["peak"], peak_rss_mb(server.process.pid))
        payload = server.stop(ledger)
        found["payloads"].append(payload)
        found["serve_cpu"] += payload.get("cpu_s", server.ready_cpu) - server.ready_cpu
        found["runs"].extend(_with_latencies(cycle, payload.get("stamps", [])))
    while len(found["setup"]) < SETUP_LAUNCHES:
        # More set-up samples: launch to READY, then a checked stop.
        server = _Server(seed, False, tag=f"setup{len(found['setup'])}", cpu=cpu)
        found["setup"].append(server.ready_cpu)
        found["ready_wall"].append(server.ready_seconds)
        server.stop(ledger)
    return found


def _with_latencies(cycle, stamps):
    """Turn each run's revisions into latencies using the server's stamps.

    Each served run replays each of its three streams once, in run order.
    """
    if len(stamps) != 3 * len(cycle):
        raise RuntimeError(f"{len(stamps)} stream replays for {len(cycle)} served runs")
    runs = []
    for position, run in enumerate(cycle):
        if run is None:
            runs.append(None)
            continue
        ingest = {}
        for part in stamps[3 * position: 3 * position + 3]:
            ingest.update(part)
        index, elapsed, revisions, lines = run
        latencies = [arrived - max(ingest[name] for name in names) for arrived, names in revisions]
        runs.append((index, elapsed, latencies, lines))
    return runs


def serve_fanout(seed: int, seconds: float, trace: bool) -> Outcome:
    from serve_launcher import RATE

    sockets_before = _open_sockets()
    ledger = Ledger()
    cpu = _split_cpus()
    references = _direct_references(seed, ledger)
    events = 3 * SIZE
    if trace:
        from tracer import Tracer, layer_metrics, merge_ledgers

        untraced = _serve_cycles(seed, seconds / 2, ledger, references, False, cpu)
        client_tracer = Tracer()
        traced = _serve_cycles(
            seed, seconds / 2, ledger, references, True, cpu, client_tracer
        )
        _check_sockets(ledger, sockets_before)
        client_tracer.write_spans(work_dir() / "serve-fanout-client.spans.jsonl")
        server_ledger = merge_ledgers([p.get("ledger", {}) for p in traced["payloads"]])
        client_ledger = client_tracer.export()
        metrics = layer_metrics(server_ledger)
        metrics["trace.unattributed_share"] = layer_metrics(
            merge_ledgers([server_ledger, client_ledger])
        ).get("trace.unattributed_share", 0.0)
        lines = sum(run[3] for run in traced["runs"] if run)
        if lines:
            metrics["serve.client.recv_ns_per_line"] = (
                client_ledger["self_ns"].get("serve.client.recv", 0) / lines
            )
        metrics["dataflow.revision.retract_ratio"] = median(
            p.get("retract_ratio", 0.0) for p in traced["payloads"]
        )
        metrics["serve.hub.publish_blocks"] = median(h["publish_blocks"] for h in traced["hub"])
        metrics["serve.hub.ring_high_watermark"] = max(
            h["ring_high_watermark"] for h in traced["hub"]
        )
        served = [run for run in untraced["runs"] if run]
        if served:
            # From the untraced cycles: the server's CPU per input event,
            # the serve cost next to a direct run's (printed by --trace 0).
            metrics["serve.server.cpu_us_per_event"] = (
                1e6 * untraced["serve_cpu"] / (len(served) * events)
            )
        good_untraced = [run[1] for run in untraced["runs"] if run]
        good_traced = [run[1] for run in traced["runs"] if run]
        if good_untraced and good_traced:
            metrics["trace.overhead_ratio"] = median(good_traced) / median(good_untraced)
        return Outcome(ledger, metrics, {}, [])

    found = _serve_cycles(seed, seconds, ledger, references, False, cpu)
    _check_sockets(ledger, sockets_before)
    good = [run for run in found["runs"] if run]
    if not good:
        raise RuntimeError("no served run of serve-fanout completed")
    served_s = median(run[1] for run in good)
    direct_s = median(seconds for _, seconds in references)
    payloads = found["payloads"]
    lags = [lag for payload in payloads for lag in payload.get("lags", [])]
    served_runs = len(found["runs"])
    notes = [
        "run seconds: " + " ".join(f"{run[1]:.3f}" for run in good),
        "run mean latency (ms): "
        + " ".join(f"{1000.0 * sum(run[2]) / max(1, len(run[2])):.1f}" for run in good),
        f"runs: {served_runs} on {len(found['setup'])} servers, input events per "
        f"run: {events} offered at {RATE:.0f} ev/s, lines per run (both subscribers): "
        f"{median(run[3] for run in good):.0f}",
        f"gen_lag_p99_ms: {1000.0 * percentile(lags, 0.99):.3f} (samples: {len(lags)})"
        if lags else "gen_lag_p99_ms: no samples",
        f"direct threads run of the same graph (closed loop): {direct_s:.3f}s "
        f"({events / direct_s:.0f} ev/s); server CPU per served run: "
        f"{found['serve_cpu'] / max(1, served_runs):.3f}s; served run: {served_s:.3f}s "
        f"({events / served_s:.0f} ev/s, open loop)",
        "server launch to READY, wall: "
        + " ".join(f"{seconds:.3f}s" for seconds in found["ready_wall"]),
        "hub publish_blocks per server: "
        + " ".join(str(h["publish_blocks"]) for h in found["hub"])
        + f"; ring_high_watermark {max(h['ring_high_watermark'] for h in found['hub'])}",
    ]
    return end_to_end(
        ledger,
        [(run[0], events / run[1]) for run in good],
        [(run[0], run[2]) for run in good],
        median(found["setup"]),
        found["peak"],
        notes,
    )


def _check_sockets(ledger: Ledger, before: int) -> None:
    after = _open_sockets()
    ledger.record(after <= before, f"{after - before} client socket(s) leaked")

