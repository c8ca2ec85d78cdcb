"""Server process of the ``serve-fanout`` workload.

Builds the catalog from the seed (three streams per input set), registers
one standing query per input set and serves them with
``StandingQueryService`` + ``ServeServer`` in the configuration
``python -m repro.serve`` runs by default (early emit, worker metrics on,
threads transport, 256-slot blocking hub, round-robin source
interleaving).  Prints
``READY <port> <CPU seconds so far>`` once listening and exits 0 on
SIGTERM.

The sources are paced in an open loop: in each run of a standing query,
the k-th event the dataflow pulls from its three streams is due at
``t0 + k / RATE`` and is held back until then.  Each source replay records,
per event, the clock reading at which the dataflow got it; on shutdown the
launcher writes those ingest stamps, how late each event was handed over
after its due time, its CPU time (and, with ``--trace 1``, its layer ledger
and spans) to ``--out``, so the client can time every revision from the
ingest of its newest input.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import resource
import signal
import sys
import time
from dataclasses import replace

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import import_program  # noqa: E402

ON = (("Metric", "Metric"),)
DISORDER = 8
WATERMARK_EVERY = 8
#: Input sets per server; each is its own standing query, and runs rotate
#: through them so that one seed's draw does not set a run's figures.
DATASETS = 20
#: Offered rate of every run, input events per second over its three
#: streams.  Fixed here, below what the served dataflow sustains on a
#: 2-CPU host (about 1100 events/s in a closed loop), never derived at run
#: time.
RATE = 200.0


def query_name(index: int) -> str:
    return f"fanout{index}"


def nodes(index: int):
    """``(a ⟕ b) ▷ c`` on the metric key over input set ``index``."""
    from repro.dataflow import NodeSpec

    return [
        NodeSpec(f"ab{index}", "left_outer", f"a{index}", f"b{index}", ON),
        NodeSpec(f"abc{index}", "anti", f"ab{index}", f"c{index}", ON),
    ]


def build_catalog(size: int, seed: int, stamps=None, lags=None, tracer=None):
    """Per input set, three Meteo-like streams with disjoint event names.

    With ``stamps`` (a list), the replays are paced in an open loop
    (:class:`_Pacer`, one per input set) and every replay appends a dict
    mapping each event name to the clock reading at which the replay
    yielded it; ``lags`` collects how late each event was yielded.  With
    a ``tracer``, the pacing waits are its ``gen.wait`` spans, so they are
    not counted as time of the layer that pulls the source.
    """
    from repro.datasets import ReplayConfig, stream_def
    from repro.datasets.generators import generate_relation
    from repro.datasets.meteo import meteo_config
    from repro.engine import Catalog
    from repro.lineage import EventSpace

    from common import dataset_seed

    catalog = Catalog()
    for index in range(DATASETS):
        events = EventSpace()
        base = dataset_seed(seed, index)
        pacer = _Pacer(lags, tracer)
        for offset, stream in enumerate("abc"):
            name = f"{stream}{index}"
            relation = generate_relation(
                meteo_config(size, seed=base + offset), events, name=name
            )
            config = ReplayConfig(
                disorder=DISORDER, watermark_every=WATERMARK_EVERY, seed=base + offset
            )
            definition = stream_def(relation, config)
            if stamps is not None:
                definition = _paced(definition, stamps, pacer)
            catalog.register_stream(name, definition)
    return catalog


class _Pacer:
    """Open-loop schedule shared by the three streams of one input set.

    A run starts when the first of its three replays starts; its k-th event
    pulled, from whichever stream, is due at ``t0 + k / RATE``, where ``t0``
    is the first pull.  The dataflow pulls its sources in one merged order,
    so the events are offered at exactly ``RATE``.
    """

    STREAMS = 3

    def __init__(self, lags, tracer=None) -> None:
        self.lags = lags if lags is not None else []
        self.tracer = tracer
        self.started = self.STREAMS

    def start_stream(self) -> None:
        if self.started == self.STREAMS:
            self.started, self.pulled, self.t0 = 0, 0, None
        self.started += 1

    def hand_over(self, clock) -> float:
        """Wait until the next event is due; returns the hand-over time."""
        now = clock()
        if self.t0 is None:
            self.t0 = now
        due = self.t0 + self.pulled / RATE
        self.pulled += 1
        if due > now:
            if self.tracer is not None:
                with self.tracer.span("gen.wait"):
                    time.sleep(due - now)
            else:
                time.sleep(due - now)
            now = clock()
        self.lags.append(now - due)
        return now


def _paced(definition, stamps, pacer: _Pacer):
    from repro.stream.elements import StreamEvent

    original = definition.replay
    clock = time.perf_counter

    def replay():
        pacer.start_stream()
        seen = {}
        stamps.append(seen)
        for element in original():
            if isinstance(element, StreamEvent):
                seen[element.tuple.lineage.name] = pacer.hand_over(clock)
            yield element

    return replace(definition, replay=replay)


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


async def _serve(server, stop: asyncio.Event) -> None:
    await server.start()
    print(f"READY {server.port} {_cpu_seconds():.6f}", flush=True)
    await stop.wait()
    await server.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="serve-fanout server process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="file written on shutdown")
    parser.add_argument("--cpu", type=int, default=None, help="CPU to run on")
    arguments = parser.parse_args(argv)
    if arguments.cpu is not None:
        os.sched_setaffinity(0, {arguments.cpu})  # before any thread starts
    import_program()

    from repro import ExecutionOptions
    from repro.serve import ServeServer, StandingQueryService

    tracer = None
    if arguments.trace:
        from tracer import Tracer, install_serve_layers

        tracer = Tracer()
        install_serve_layers(tracer)
    stamps: list = []
    lags: list = []
    service = StandingQueryService(
        build_catalog(arguments.size, arguments.seed, stamps, lags, tracer),
        config=ExecutionOptions(early_emit=True, metrics=True),
    )
    for index in range(DATASETS):
        service.register(query_name(index), nodes(index))
    server = ServeServer(service, "127.0.0.1", 0)

    async def run() -> None:
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        loop.add_signal_handler(signal.SIGTERM, stop.set)
        await _serve(server, stop)

    asyncio.run(run())
    service.shutdown()
    payload = {"stamps": stamps, "lags": lags, "cpu_s": _cpu_seconds()}
    if tracer is not None:
        tracer.uninstall()
        payload["ledger"] = tracer.export()
        payload["retract_ratio"] = _retract_ratio(tracer)
        tracer.write_spans(arguments.out + ".spans")
    with open(arguments.out, "w") as out:
        json.dump(payload, out)
    return 0


def _retract_ratio(tracer) -> float:
    """Retracts ÷ (emits + refines) over every dataflow join that ran."""
    from repro.dataflow.operators import RevisionJoin

    emits = refines = retracts = 0
    for item in tracer.remembered():
        if isinstance(item, RevisionJoin):
            emits += item.stats.emits
            refines += item.stats.refines
            retracts += item.stats.retracts
    total = emits + refines
    return retracts / total if total else 0.0


if __name__ == "__main__":
    sys.exit(main())
