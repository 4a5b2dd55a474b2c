"""Tests for stream (FIFO) and buffer types."""

import pytest

from repro.ir.dtypes import FLOAT32, INT8
from repro.itensor.stream_type import BufferType, StreamType


class TestStreamType:
    def test_scalar_stream_capacity(self):
        stream = StreamType(INT8, depth=32)
        assert stream.token_bits == 8
        assert stream.capacity_bytes == 32.0

    def test_vector_stream_capacity(self):
        stream = StreamType(INT8, depth=4, vector_shape=(8, 8))
        assert stream.token_elements == 64
        assert stream.capacity_bytes == 4 * 64

    def test_depth_must_be_positive(self):
        with pytest.raises(ValueError):
            StreamType(INT8, depth=0)

    def test_str(self):
        assert "depth: 8" in str(StreamType(FLOAT32, 8))
        assert "vector" in str(StreamType(INT8, 2, (4,)))


class TestBufferType:
    def test_ping_pong_doubles_bytes(self):
        single = BufferType((16, 64), INT8, double_buffered=False)
        double = BufferType((16, 64), INT8, double_buffered=True)
        assert double.size_bytes == 2 * single.size_bytes

    def test_invalid_shape_rejected(self):
        with pytest.raises(ValueError):
            BufferType((0, 4), INT8)

    def test_str_mentions_kind(self):
        assert "ping-pong" in str(BufferType((2, 2), INT8))
        assert "single" in str(BufferType((2, 2), INT8, double_buffered=False))
