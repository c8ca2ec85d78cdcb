"""Layout × transport convergence: columnar output is bitwise-identical.

The acceptance bar for the columnar hot path is not "close": for every join
kind, every transport and both executors (continuous stream join and the
retractable dataflow graph), the settled output must equal the object
layout's tuple-for-tuple with bitwise-identical probabilities.  These tests
run the same query under both layouts and compare exact rows — no rounding
beyond the canonicalisation both sides share.
"""

from __future__ import annotations

import pytest

from repro import ExecutionOptions
from repro.columnar import HAS_NUMPY
from repro.datasets import ReplayConfig, stream_def
from repro.dataflow import DataflowQuery, NodeSpec, assert_converged, identity_rows
from repro.engine import Catalog
from repro.lineage import canonical
from repro.stream import StreamQuery

from tests.conftest import make_random_relations
from tests.dataflow.conftest import make_stream_catalog

pytestmark = pytest.mark.skipif(not HAS_NUMPY, reason="columnar layout needs numpy")

KINDS = ("inner", "left_outer", "right_outer", "full_outer", "anti")


def _exact_rows(relation):
    """Identity rows with *exact* (unrounded) probabilities, as a multiset.

    Rows are compared via ``repr`` — outer-join facts mix ``None`` with
    strings, which plain tuple ordering cannot sort.
    """
    return sorted(
        repr((t.fact, t.start, t.end, str(canonical(t.lineage)), t.probability))
        for t in relation
    )


def _run_stream(kind: str, transport: str, layout: str, seed: int = 41):
    left, right, _theta = make_random_relations(seed=seed, left_size=40, right_size=40)
    catalog = Catalog()
    catalog.register_stream("l", stream_def(left, ReplayConfig(disorder=3, seed=seed)))
    catalog.register_stream(
        "r", stream_def(right, ReplayConfig(disorder=3, seed=seed + 1))
    )
    partitions = 1 if transport == "inline" else 2
    query = StreamQuery(
        catalog,
        kind,
        "l",
        "r",
        [("Key", "Key")],
        config=ExecutionOptions(
            partitions=partitions,
            transport=transport if transport != "inline" else "threads",
            micro_batch_size=8,
            layout=layout,
            materialize_probabilities=True,
        ),
    )
    return _exact_rows(query.run(merge_seed=seed).relation)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("transport", ("inline", "threads"))
def test_stream_layouts_agree_bitwise(kind, transport):
    assert _run_stream(kind, transport, "columnar") == _run_stream(
        kind, transport, "object"
    )


@pytest.mark.parametrize("kind", ("inner", "full_outer"))
@pytest.mark.parametrize("transport", ("processes", "sockets"))
def test_stream_layouts_agree_bitwise_across_process_boundaries(kind, transport):
    assert _run_stream(kind, transport, "columnar") == _run_stream(
        kind, transport, "object"
    )


TREE = [
    NodeSpec("n1", "left_outer", "a", "b", (("Key", "Key"),)),
    NodeSpec("n2", "right_outer", "n1", "c", (("Key", "Key"),)),
]


@pytest.mark.parametrize("backend", ("inline", "sockets"))
@pytest.mark.parametrize("early", (False, True))
def test_dataflow_layouts_agree_and_converge(backend, early):
    rows = {}
    for layout in ("object", "columnar"):
        catalog, *_ = make_stream_catalog(21)
        query = DataflowQuery(
            catalog, TREE, ExecutionOptions(early_emit=early, layout=layout)
        )
        result = query.run(merge_seed=5, backend=backend)
        assert_converged(result, catalog, TREE)
        rows[layout] = {
            name: sorted(map(repr, identity_rows(node.relation, with_probability=True)))
            for name, node in result.nodes.items()
        }
    assert rows["columnar"] == rows["object"]


def test_columnar_socket_batches_are_pickled_like_object_batches(monkeypatch):
    """``layout`` picks only the maintainer state: a columnar socket run
    ships the same pickled ``("batch", key, codes)`` frames, carrying the
    same element entries, as an object run."""
    import repro.runtime.sockets as sockets

    shipped = []
    real_send = sockets.send_frame

    def spy_send(sock, frame):
        if isinstance(frame, tuple) and frame and frame[0] == "batch":
            shipped.extend(code[0] for _channel, code in frame[2])
        real_send(sock, frame)

    monkeypatch.setattr(sockets, "send_frame", spy_send)

    def run(layout):
        shipped.clear()
        rows = _run_stream("inner", "sockets", layout)
        return rows, sorted(shipped)

    columnar_rows, columnar_tags = run("columnar")
    object_rows, object_tags = run("object")
    assert "e" in columnar_tags and "w" in columnar_tags
    assert columnar_tags == object_tags
    assert columnar_rows == object_rows
