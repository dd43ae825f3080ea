"""Fuzzed data-plane frames: every malformed body gets a typed error.

A frame body is a 4-byte header length, a UTF-8 JSON header and one
attachment region that the header's ``{"__ndarray__": {dtype, shape,
offset, nbytes}}`` tags index into.  These tests feed the service
bodies that break that layout in each way it can break — short bodies,
header lengths past the body, bad or non-object JSON, tags with extra
or missing fields, dtypes that are not plain numbers, bad shapes, an
``nbytes`` that disagrees with the shape, bytes outside the region,
old-format JSON bodies — and check that each ends in a typed error
envelope (or, for a frame over ``MAX_FRAME_BYTES``, the ``FrameTooLarge``
envelope and a clean close).  Nothing may escape ``_execute``, and the
socket tests show the service never reads past a frame's declared
length: the next frame on the same connection is still answered.
"""

import asyncio
import io
import json
import logging
import re
import socket

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.serve import ShardedStreamGateway
from repro.serve import service as service_module
from repro.serve.metrics import service_logger
from repro.serve.service import (
    LaelapsService,
    ServiceClient,
    ServiceRunner,
    _frame,
    _unpack,
)

pytestmark = pytest.mark.service

FUZZ = settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

TAG_FIELDS = ("dtype", "shape", "offset", "nbytes")


def quiet_logger() -> logging.Logger:
    return service_logger(
        "repro.serve.test-frame-fuzz", stream=io.StringIO(),
        level=logging.CRITICAL,
    )


@pytest.fixture(scope="module")
def execute():
    """``_execute`` of a service over an empty inline gateway."""
    gateway = ShardedStreamGateway(1, mode="inline")
    service = LaelapsService(gateway, logger=quiet_logger())
    loop = asyncio.new_event_loop()

    def run(body: bytes) -> dict:
        return loop.run_until_complete(service._execute(body))

    yield run
    loop.close()
    gateway.shutdown()


def body_of(header, region: bytes = b"") -> bytes:
    """A body with ``header`` (JSON-dumped unless already bytes)."""
    if not isinstance(header, bytes):
        header = json.dumps(header).encode("utf-8")
    return len(header).to_bytes(4, "big") + header + region


def assert_frame_error(response: dict) -> None:
    assert response["ok"] is False
    assert response["error"]["type"] == "FrameError", response
    _frame(response)  # the envelope itself goes back over the wire


def ping_with(tag: dict, region: bytes) -> bytes:
    return body_of({"op": "ping", "x": {"__ndarray__": tag}}, region)


json_scalars = st.none() | st.booleans() | st.integers() | st.text(max_size=8)
json_values = st.recursive(
    json_scalars | st.floats(allow_nan=False),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


class TestMalformedBodies:
    @FUZZ
    @given(st.binary(max_size=64))
    def test_arbitrary_bytes(self, execute, body):
        response = execute(body)
        assert response["ok"] is False
        assert isinstance(response["error"]["type"], str)
        _frame(response)

    @FUZZ
    @given(st.binary(max_size=3))
    def test_short_bodies(self, execute, body):
        assert_frame_error(execute(body))

    @FUZZ
    @given(st.binary(max_size=32), st.integers(1, 2**32 - 1))
    def test_header_length_past_the_body(self, execute, rest, extra):
        declared = min(len(rest) + extra, 2**32 - 1)
        assert_frame_error(execute(declared.to_bytes(4, "big") + rest))

    @FUZZ
    @given(st.binary(max_size=32).filter(lambda raw: not _is_json(raw)))
    def test_header_that_is_not_utf8_json(self, execute, header):
        assert_frame_error(execute(body_of(header)))

    @FUZZ
    @given(json_values.filter(lambda value: not isinstance(value, dict)))
    def test_header_that_is_not_an_object(self, execute, header):
        assert_frame_error(execute(body_of(header)))

    def test_deeply_nested_header(self, execute):
        depth = 100_000
        assert_frame_error(execute(body_of(b"[" * depth + b"]" * depth)))

    def test_old_format_json_body(self, execute):
        # A body of the former JSON-with-base64 layout: the leading
        # ``{"op`` reads as a ~2 GB header length.
        old = json.dumps({
            "op": "push", "session_id": "s0",
            "chunk": {"__ndarray__": {
                "dtype": "<f8", "shape": [1], "data": "AAAAAAAA8D8=",
            }},
        }).encode("utf-8")
        assert_frame_error(execute(old))
        assert_frame_error(execute(b'{"op": "ping"}'))


class TestMalformedTags:
    @FUZZ
    @given(
        st.sets(st.sampled_from(TAG_FIELDS)),
        st.sets(st.text(max_size=6).filter(lambda k: k not in TAG_FIELDS),
                max_size=2),
    )
    def test_tag_with_extra_or_missing_fields(self, execute, kept, extra):
        fields = {"dtype": "<u1", "shape": [2], "offset": 0, "nbytes": 2}
        tag = {key: fields[key] for key in kept}
        tag.update(dict.fromkeys(extra, 0))
        if tag.keys() == set(TAG_FIELDS):
            return  # the one well-formed tag
        assert_frame_error(execute(ping_with(tag, b"ab")))

    @FUZZ
    @given(json_values)
    def test_tag_beside_other_keys_or_not_a_dict(self, execute, spec):
        good = {"dtype": "<u1", "shape": [1], "offset": 0, "nbytes": 1}
        for header in (
            {"op": "ping", "x": {"__ndarray__": good, "extra": spec}},
            {"op": "ping", "x": {"__ndarray__": spec}},
        ):
            if header["x"]["__ndarray__"] == good and len(header["x"]) == 1:
                continue
            assert_frame_error(execute(body_of(header, b"a")))

    @FUZZ
    @given(
        st.sampled_from([
            "O", "object", "V8", "|V0", "S4", "U2", "<U3", "M8[ns]", "m8[s]",
            "(2,)f8", "f8,i4", ",", "", "float128x", "float64", "<i3", "b",
        ]) | st.text(max_size=6) | json_values
    )
    def test_dtype_that_is_not_a_plain_number(self, execute, dtype):
        if isinstance(dtype, str) and re.fullmatch(r"[<>|=]?[biufc]\d+", dtype):
            try:
                np.dtype(dtype)
                return  # a plain number dtype
            except TypeError:
                pass
        tag = {"dtype": dtype, "shape": [1], "offset": 0, "nbytes": 8}
        assert_frame_error(execute(ping_with(tag, bytes(64))))

    @FUZZ
    @given(st.lists(
        st.integers(-5, -1) | st.floats(allow_nan=False)
        | st.booleans() | st.text(max_size=2) | st.lists(st.integers(0, 2)),
        min_size=1, max_size=4,
    ) | json_scalars)
    def test_negative_or_non_integer_shape(self, execute, shape):
        if isinstance(shape, list):
            shape.insert(0, 1)
        tag = {"dtype": "<u1", "shape": shape, "offset": 0, "nbytes": 1}
        assert_frame_error(execute(ping_with(tag, b"a")))

    def test_too_many_dimensions(self, execute):
        tag = {"dtype": "<u1", "shape": [1] * 33, "offset": 0, "nbytes": 1}
        assert_frame_error(execute(ping_with(tag, b"a")))

    @FUZZ
    @given(
        st.sampled_from(["<f8", "<f4", "|u1", "<i2", "|b1", ">u8"]),
        st.lists(st.integers(0, 5), max_size=3),
        st.integers(-64, 64).filter(bool),
    )
    def test_nbytes_that_disagrees_with_the_shape(
        self, execute, dtype, shape, delta
    ):
        nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize + delta
        tag = {"dtype": dtype, "shape": shape, "offset": 0, "nbytes": nbytes}
        assert_frame_error(execute(ping_with(tag, bytes(512))))

    @FUZZ
    @given(
        st.integers(0, 64), st.integers(0, 64), st.integers(0, 2**70),
        st.booleans(),
    )
    def test_bytes_outside_the_region(
        self, execute, region_len, count, offset, negative
    ):
        if negative:
            offset = -offset - 1
        elif offset + count <= region_len:
            offset = region_len - count + 1
        tag = {"dtype": "|u1", "shape": [count], "offset": offset,
               "nbytes": count}
        response = execute(ping_with(tag, bytes(region_len)))
        assert_frame_error(response)
        # Refused by the bounds check itself, not by numpy's read.
        reason = ">= 0" if negative else "outside"
        assert reason in response["error"]["message"]

    def test_huge_zero_size_shape(self, execute):
        tag = {"dtype": "<f8", "shape": [0, 2**62, 4], "offset": 0,
               "nbytes": 0}
        assert_frame_error(execute(ping_with(tag, b"")))

    @FUZZ
    @given(
        st.sampled_from(["<f8", "<f4", "|u1", "<i2", "<u2", "|b1", "<u8"]),
        st.lists(st.integers(0, 4), max_size=3),
        st.integers(0, 16),
        st.binary(max_size=16),
    )
    def test_well_formed_tags_decode(self, execute, dtype, shape, pad, tail):
        nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
        region = bytes(range(256))[:pad] + bytes(nbytes) + tail
        tag = {"dtype": dtype, "shape": shape, "offset": pad,
               "nbytes": nbytes}
        assert execute(ping_with(tag, region)) == {"ok": True,
                                                   "result": "pong"}
        decoded = _unpack(ping_with(tag, region))["x"]
        assert decoded.shape == tuple(shape)
        assert decoded.dtype == np.dtype(dtype)


def _is_json(raw: bytes) -> bool:
    try:
        json.loads(raw.decode("utf-8"))
    except ValueError:
        return False
    return True


# ----------------------------------------------------------------------
# Over a socket: frames around MAX_FRAME_BYTES and framing stays in sync
# ----------------------------------------------------------------------

SMALL_MAX = 4096


@pytest.fixture(scope="module")
def address():
    """A service on a loopback socket with a 4 KiB frame bound."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(service_module, "MAX_FRAME_BYTES", SMALL_MAX)
        runner = ServiceRunner(
            ShardedStreamGateway(1, mode="inline"), logger=quiet_logger()
        )
        try:
            yield runner.start()
        finally:
            runner.stop(drain=False)


def recv_frame(sock: socket.socket):
    """One reply frame, or ``None`` once the service closed."""
    head = _recv(sock, 4)
    if head is None:
        return None
    body = _recv(sock, int.from_bytes(head, "big"))
    return _unpack(body)


def _recv(sock: socket.socket, n: int):
    data = b""
    while len(data) < n:
        chunk = sock.recv(n - len(data))
        if not chunk:
            return None
        data += chunk
    return data


class TestOverTheSocket:
    @settings(max_examples=25, deadline=None)
    @given(st.binary(max_size=SMALL_MAX) | st.sampled_from([
        b"", b"\x00\x00\x00", b'{"op": "ping"}',
        b"\xff\xff\xff\xff", bytes(SMALL_MAX),
    ]))
    def test_a_bad_frame_does_not_desynchronise(self, address, body):
        ping = _frame({"op": "ping"})
        with socket.create_connection(address, timeout=30.0) as sock:
            # The bad frame and a ping in one write: if the service read
            # past the declared length, the ping would be lost.
            sock.sendall(len(body).to_bytes(4, "big") + body + ping)
            reply = recv_frame(sock)
            assert reply["ok"] is False
            assert isinstance(reply["error"]["type"], str)
            assert recv_frame(sock) == {"ok": True, "result": "pong"}

    @pytest.mark.parametrize("length", [
        SMALL_MAX - 1, SMALL_MAX, SMALL_MAX + 1, 2**32 - 1,
    ])
    def test_frames_around_the_bound(self, address, length):
        with socket.create_connection(address, timeout=30.0) as sock:
            sock.sendall(length.to_bytes(4, "big"))
            if length > SMALL_MAX:
                reply = recv_frame(sock)
                assert reply["ok"] is False
                assert reply["error"]["type"] == "FrameTooLarge"
                assert recv_frame(sock) is None  # a clean close
                return
            sock.sendall(bytes(length) + _frame({"op": "ping"}))
            assert recv_frame(sock)["error"]["type"] == "FrameError"
            assert recv_frame(sock) == {"ok": True, "result": "pong"}

    def test_truncated_frame_is_a_clean_close(self, address):
        with socket.create_connection(address, timeout=30.0) as sock:
            sock.sendall((SMALL_MAX).to_bytes(4, "big") + b"partial")
            sock.shutdown(socket.SHUT_WR)
            assert recv_frame(sock) is None
        with ServiceClient(*address) as client:
            assert client.ping() == "pong"
