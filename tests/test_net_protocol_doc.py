"""docs/PROTOCOL.md is normative — pin it to the reference codec.

The spec's worked hex example (between the ``example-begin`` /
``example-end`` markers) is parsed out of the document and driven
through the real frame decoder and protocol codec: the documented bytes
must decode to exactly the handshake documents, lineage exchange,
request, and summary the prose describes — and re-encoding those
objects must reproduce the documented bytes. If either direction
breaks, the document has drifted from the implementation (or vice
versa) and this test is the tripwire.
"""

import pathlib
import re

from repro.core.engine import RunRequest, RunSummary
from repro.service.net import protocol
from repro.service.net.framing import (
    FRAME_ACCEPT,
    FRAME_HELLO,
    FRAME_NEGOTIATE,
    FRAME_RESUME,
    FRAME_RESUMED,
    FRAME_SUBMIT,
    FRAME_SUMMARY,
    FrameDecoder,
    control_payload,
    encode_frame,
    Frame,
    parse_control,
)
from repro.service.transport import encode_summaries

DOC = pathlib.Path(__file__).resolve().parent.parent / "docs" / "PROTOCOL.md"

#: the exact objects the spec's section 9 prose declares.
EXAMPLE_REQUEST = RunRequest(
    kind="routing", family="balanced", n=16, seed=7, engine="fast"
)
EXAMPLE_SUMMARY = RunSummary(
    request=EXAMPLE_REQUEST,
    ok=True,
    engine="fast",
    rounds=16,
    total_packets=240,
    total_words=240,
    max_edge_words=1,
    digest="a3f1c2d4e5b60718",
    wall_s=0.25,
    shared_cache_hits=3,
    shared_cache_misses=1,
    status="completed",
    queue_s=0.125,
    latency_s=0.375,
)

#: the example's lineage and idempotency key (section 9 prose).
EXAMPLE_LINEAGE = "lin-demo"
EXAMPLE_KEY = "k-demo-001"

#: the example's handshake documents (section 9 prose).
EXAMPLE_HELLO = {
    "engine": "fast",
    "max_frame": 8388608,
    "quota": 64,
    "server": "repro.service.net",
    "versions": [2],
}
EXAMPLE_ACCEPT = {"quota": 64, "session": 2, "version": 2}

#: the worked example: three handshake frames, then four data-plane ones.
HANDSHAKE_FRAMES = 3


def _documented_frames():
    """The hex blocks of the worked example, as raw frame bytes."""
    text = DOC.read_text()
    match = re.search(
        r"<!-- example-begin -->(.*?)<!-- example-end -->", text, re.S
    )
    assert match, "PROTOCOL.md lost its example-begin markers"
    blocks = re.findall(r"```text\n(.*?)```", match.group(1), re.S)
    assert len(blocks) == 7, f"expected 7 frames, found {len(blocks)}"
    return [bytes.fromhex("".join(block.split())) for block in blocks]


def _decode_stream(wire):
    decoder = FrameDecoder()
    decoder.feed(b"".join(wire))
    frames = []
    while True:
        frame = decoder.next_frame()
        if frame is None:
            break
        frames.append(frame)
    decoder.eof()
    return frames


def test_documented_hex_decodes_to_the_described_exchange():
    """The whole example decodes frame by frame; its handshake speaks
    the one protocol version."""
    frames = _decode_stream(_documented_frames())
    assert [f.type for f in frames] == [
        FRAME_HELLO,
        FRAME_NEGOTIATE,
        FRAME_ACCEPT,
        FRAME_RESUME,
        FRAME_RESUMED,
        FRAME_SUBMIT,
        FRAME_SUMMARY,
    ]
    hello, negotiate, accept = frames[:HANDSHAKE_FRAMES]
    assert parse_control(hello.payload) == EXAMPLE_HELLO
    assert parse_control(negotiate.payload) == {"version": protocol.VERSION}
    assert parse_control(accept.payload) == EXAMPLE_ACCEPT


def test_described_exchange_reencodes_to_the_documented_hex():
    """The reverse direction for the handshake: encoding the prose's
    documents must reproduce the documented bytes exactly — canonical
    JSON is what makes the example byte-stable."""
    wire = _documented_frames()[:HANDSHAKE_FRAMES]
    hello = encode_frame(Frame(FRAME_HELLO, control_payload(EXAMPLE_HELLO)))
    negotiate = encode_frame(
        Frame(FRAME_NEGOTIATE, control_payload({"version": protocol.VERSION}))
    )
    accept = encode_frame(
        Frame(FRAME_ACCEPT, control_payload(EXAMPLE_ACCEPT))
    )
    assert [hello, negotiate, accept] == wire


def test_documented_v2_hex_decodes_to_the_described_exchange():
    """The data-plane half: RESUME/RESUMED, a keyed SUBMIT, a cached
    SUMMARY."""
    frames = _decode_stream(_documented_frames()[HANDSHAKE_FRAMES:])
    assert [f.type for f in frames] == [
        FRAME_RESUME,
        FRAME_RESUMED,
        FRAME_SUBMIT,
        FRAME_SUMMARY,
    ]
    resume, resumed, submit, summary = frames

    assert parse_control(resume.payload) == {"lineage": EXAMPLE_LINEAGE}
    assert parse_control(resumed.payload) == {
        "cached": [EXAMPLE_KEY],
        "lineage": EXAMPLE_LINEAGE,
        "resumed": True,
        "session": 2,
    }

    channel, key, requests = protocol.decode_submit(submit)
    assert channel == 1
    assert key == EXAMPLE_KEY
    assert requests == [EXAMPLE_REQUEST]

    assert protocol.summary_channel(summary) == 1
    assert summary.flags == protocol.FLAG_CACHED
    assert protocol.summary_cached(summary)
    decoded = protocol.decode_summary(summary, requests)
    assert decoded == [EXAMPLE_SUMMARY]


def test_described_v2_exchange_reencodes_to_the_documented_hex():
    """The reverse direction for the data-plane half: the RENV
    envelopes' columnar determinism makes the bytes stable."""
    wire = _documented_frames()[HANDSHAKE_FRAMES:]
    resume = encode_frame(
        Frame(FRAME_RESUME, control_payload({"lineage": EXAMPLE_LINEAGE}))
    )
    resumed = encode_frame(
        Frame(
            FRAME_RESUMED,
            control_payload(
                {
                    "cached": [EXAMPLE_KEY],
                    "lineage": EXAMPLE_LINEAGE,
                    "resumed": True,
                    "session": 2,
                }
            ),
        )
    )
    submit = encode_frame(
        protocol.encode_submit(1, [EXAMPLE_REQUEST], EXAMPLE_KEY)
    )
    # a cached answer re-frames the original envelope bytes: encoding
    # the summary and wrapping it cached=True must match the doc.
    envelope = encode_summaries([EXAMPLE_SUMMARY])
    summary = encode_frame(protocol.wrap_summary(1, envelope, cached=True))
    assert [resume, resumed, submit, summary] == wire


def test_spec_constants_match_the_implementation():
    """Spot-check the prose tables against the code's constants: frame
    type values, magic, and the header size named in section 2."""
    from repro.service.net import framing

    text = DOC.read_text()
    for name, value in framing.FRAME_NAMES.items():
        assert re.search(
            rf"\| 0x{name:02x} \| {value}\b", text, re.I
        ), f"frame table is missing {value} (0x{name:02x})"
    assert 'b"RN"' in text
    assert framing.MAGIC == b"RN"
    assert framing.HEADER_BYTES == 8
