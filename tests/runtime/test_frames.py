"""Socket framing: pickled length-prefixed frames with a bounded length.

Every micro-batch entry shape — events, watermarks, revisions of every kind
× provisional, each optionally carrying a trailing trace-context field —
must come back from a frame type-exactly (an integer watermark must not
come back a float, a bool must not come back an int), and a frame cut short
anywhere must read as end of stream, never as a partial batch.

Also pins the import cost of the socket and serving layers: none of them
may load numpy, which only a columnar window maintainer needs.
"""

from __future__ import annotations

import io
import os
import socket
import struct
import subprocess
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataflow.revision import RevisionKind
from repro.parallel.serialize import decode_revision_tagged
from repro.runtime import sockets
from repro.runtime.sockets import recv_frame, send_frame


I64 = 2**63


class _RecordingSocket:
    def __init__(self) -> None:
        self.sent = b""

    def sendall(self, data: bytes) -> None:
        self.sent += data


def _framed(payload: object) -> bytes:
    recording = _RecordingSocket()
    send_frame(recording, payload)
    return recording.sent


def _round_trip(payload: object) -> object:
    return recv_frame(io.BytesIO(_framed(payload)))


# --------------------------------------------------------------------------- #
# strategies: the value shapes that ride micro-batch frames
# --------------------------------------------------------------------------- #
fact_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=8),
)
facts = st.tuples(fact_values, fact_values)

lineage_codes = st.recursive(
    st.one_of(
        st.tuples(st.just("v"), st.text(min_size=1, max_size=6)),
        st.just(("t",)),
        st.just(("f",)),
    ),
    lambda children: st.one_of(
        st.tuples(st.just("n"), children),
        st.builds(
            lambda ops: ("a", *ops), st.lists(children, min_size=1, max_size=3)
        ),
        st.builds(
            lambda ops: ("o", *ops), st.lists(children, min_size=1, max_size=3)
        ),
    ),
    max_leaves=6,
)

i64s = st.integers(min_value=-I64, max_value=I64 - 1)
probabilities = st.one_of(st.none(), st.floats(allow_nan=False))
clocks = st.one_of(st.none(), st.floats(allow_nan=False))
sides = st.integers(min_value=0, max_value=1)
tuple_codes = st.tuples(facts, lineage_codes, i64s, i64s, probabilities)
traces = st.one_of(
    st.none(), st.tuples(st.text(max_size=6), st.integers(), st.floats(allow_nan=False))
)
channels = st.one_of(
    st.none(),
    st.just("src"),
    st.tuples(st.just("src"), st.integers(min_value=0, max_value=99)),
    st.tuples(
        st.just("node"),
        st.integers(min_value=0, max_value=9),
        st.integers(min_value=0, max_value=9),
    ),
)


def _with_trace(code: tuple, trace) -> tuple:
    return code if trace is None else code + (trace,)


event_entries = st.builds(
    lambda side, seq, code, clock, trace: _with_trace(("e", side, seq, code, clock), trace),
    sides,
    i64s,
    tuple_codes,
    clocks,
    traces,
)
watermark_entries = st.builds(
    lambda side, value: ("w", side, value),
    sides,
    st.one_of(st.integers(), st.floats(allow_nan=False)),
)
revision_entries = st.builds(
    lambda side, kind, provisional, code, clock, trace: _with_trace(
        ("r", side, kind, provisional, code, clock), trace
    ),
    sides,
    st.integers(min_value=0, max_value=len(RevisionKind) - 1),
    st.booleans(),
    tuple_codes,
    clocks,
    traces,
)
entries = st.lists(
    st.tuples(
        channels, st.one_of(event_entries, watermark_entries, revision_entries)
    ),
    max_size=12,
)


# --------------------------------------------------------------------------- #
# round trips
# --------------------------------------------------------------------------- #
@settings(max_examples=200)
@given(batch=entries, key=st.text(max_size=16))
def test_every_frame_kind_round_trips_type_exactly(batch, key):
    decoded = _round_trip(("batch", key, batch))
    assert decoded == ("batch", key, batch)
    # `==` alone is too weak: 7 == 7.0 and True == 1.  repr distinguishes
    # every type a frame must preserve.
    assert repr(decoded) == repr(("batch", key, batch))


def test_revision_kind_space_is_covered():
    """Every revision kind (Emit / Retract / Refine) × provisional flag."""
    batch = [
        ("src", ("r", 0, code, provisional, (("a", 1), ("v", "x"), 0, 4, 0.5), 1.0))
        for code in range(len(RevisionKind))
        for provisional in (False, True)
    ]
    _tag, _key, decoded = _round_trip(("batch", "job", batch))
    assert decoded == batch
    revisions = [decode_revision_tagged(code).element for _channel, code in decoded]
    assert [(r.kind, r.provisional) for r in revisions] == [
        (kind, provisional) for kind in RevisionKind for provisional in (False, True)
    ]


@pytest.mark.parametrize(
    "entry",
    [
        ("e", 0, 1, (("a",), ("v", "x"), 0, 1, 0.5), 1.0),  # bare code, no channel
        (None, ("x", 0, 1)),  # unknown tag
        (None, ("e", 2, 1, (("a",), ("t",), 0, 1, None), None)),  # side out of range
        (None, ("e", 0, 1.5, (("a",), ("t",), 0, 1, None), None)),  # float sequence
        (None, ("e", 0, 1, (("a",), ("t",), 0.5, 1, None), None)),  # float start
        (None, ("e", 0, 1, (("a",), ("t",), 0, 2**64, None), None)),  # end > i64
        (None, ("e", 0, 1, (("a",), ("t",), 0, 1, 1), None)),  # int probability
        (None, ("e", 0, 1, (("a",), ("t",), 0, 1, None), 3)),  # int clock
        (None, ("e", 0, 1, ((1 + 2j,), ("t",), 0, 1, None), None)),  # exotic fact
        (None, ("r", 0, 0, 1, (("a",), ("t",), 0, 1, None), None)),  # int provisional
        (None, ("w", 0)),  # short watermark
    ],
)
def test_edge_case_entries_round_trip_type_exactly(entry):
    """A frame carries any picklable entry verbatim — framing never reshapes
    or validates what the element codec produced."""
    decoded = _round_trip(("batch", "job", [entry]))
    assert repr(decoded) == repr(("batch", "job", [entry]))


# --------------------------------------------------------------------------- #
# clean failure on truncation and oversize headers
# --------------------------------------------------------------------------- #
@settings(max_examples=120)
@given(batch=entries, data=st.data())
def test_any_truncation_reads_as_end_of_stream(batch, data):
    frame = _framed(("batch", "job", batch))
    cut = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
    assert recv_frame(io.BytesIO(frame[:cut])) is None


def test_frames_round_trip_over_a_socket_pair():
    left, right = socket.socketpair()
    try:
        frame = ("batch", "job", [(("node", 0, 1), ("w", 0, 7))])
        send_frame(left, frame)
        send_frame(left, ("done", "job"))
        left.close()
        with right.makefile("rb") as file:
            assert recv_frame(file) == frame
            assert recv_frame(file) == ("done", "job")
            assert recv_frame(file) is None
    finally:
        left.close()
        right.close()


def test_forged_length_header_is_refused_before_the_body_is_read():
    file = io.BytesIO(struct.pack("!I", 0xFFFFFFFF) + b"\x80" * 64)
    with pytest.raises(ValueError, match="MAX_FRAME_BYTES"):
        recv_frame(file)
    assert file.tell() == 4


def test_oversize_frame_ends_a_driver_connection_like_eof():
    class Job:
        key = "job"
        aborted = False
        done_event = threading.Event()

        def abort(self) -> None:
            self.aborted = True

        def feed(self, frame) -> None:
            raise AssertionError(f"fed {frame!r}")

    job = Job()
    sockets._read_into_job(io.BytesIO(struct.pack("!I", 0xFFFFFFFF)), job, True)
    assert job.aborted


def test_frame_at_the_limit_is_accepted(monkeypatch):
    recording = _RecordingSocket()
    send_frame(recording, "x" * 32)
    monkeypatch.setattr(sockets, "MAX_FRAME_BYTES", len(recording.sent) - 4)
    assert recv_frame(io.BytesIO(recording.sent)) == "x" * 32


def test_send_frame_refuses_an_oversize_frame(monkeypatch):
    monkeypatch.setattr(sockets, "MAX_FRAME_BYTES", 16)
    recording = _RecordingSocket()
    with pytest.raises(ValueError, match="MAX_FRAME_BYTES"):
        send_frame(recording, "x" * 64)
    assert recording.sent == b""


def test_socket_and_serve_layers_do_not_load_numpy():
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    probe = (
        "import sys, repro, repro.runtime.sockets, repro.serve\n"
        "print('numpy' in sys.modules)\n"
    )
    output = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert output.stdout.strip() == "False"
