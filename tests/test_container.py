"""The binary container: streamed multi-part writes and the one-buffer read.

A body written as several parts (bytes, or numpy arrays passed as they are,
0-row sample blocks included) must give the bytes that a single-body
reference writer kept here gives, and read must hand the body back.  A file
that yields fewer bytes than its stat size reports is truncated, whatever its
tail would have held.
"""

import os
import struct
import types
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cawave import container
from cawave.errors import CorruptFileError

MAGIC, VERSION = b"TEST", 3


def single_body_container(magic: bytes, version: int, body: bytes) -> bytes:
    """Reference layout: magic, version, body, CRC32 of all three."""
    head = magic + struct.pack("<I", version) + body
    return head + struct.pack("<I", zlib.crc32(head))


parts_strategy = st.lists(
    st.one_of(
        st.binary(max_size=48),
        arrays(np.float64, st.tuples(st.integers(0, 3), st.just(4)), elements=st.floats()),
    ),
    min_size=1,
    max_size=4,
)


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(parts=parts_strategy)
def test_multi_part_write_equals_single_body_writer(tmp_path_factory, parts):
    path = tmp_path_factory.getbasetemp() / "parts.bin"
    container.write(path, MAGIC, VERSION, *parts)
    body = b"".join(part if isinstance(part, bytes) else part.tobytes() for part in parts)
    assert path.read_bytes() == single_body_container(MAGIC, VERSION, body)
    assert container.read(path, MAGIC, VERSION, 0, "test") == body


def test_read_rejects_a_file_shorter_than_its_stat_size(tmp_path, monkeypatch):
    path = tmp_path / "short.bin"
    path.write_bytes(single_body_container(MAGIC, VERSION, b"\0" * 16))
    real_fstat = os.fstat

    def overstated(fd):
        return types.SimpleNamespace(st_size=real_fstat(fd).st_size + 8)

    monkeypatch.setattr(container.os, "fstat", overstated)
    with pytest.raises(CorruptFileError, match="truncated"):
        container.read(path, MAGIC, VERSION, 0, "test")
