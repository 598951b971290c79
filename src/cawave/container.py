"""The little-endian binary container shared by CWDS samples and CWNN weights.

Layout: 4-byte magic, uint32 format version, format-specific body, CRC32 of
everything before the trailer.  Each format reads and writes only its body.
"""

from __future__ import annotations

import struct
import zlib

from .errors import CorruptFileError, FormatVersionError


def write(path, magic: bytes, version: int, body: bytes) -> None:
    header = magic + struct.pack("<I", version)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(body)
        fh.write(struct.pack("<I", zlib.crc32(body, zlib.crc32(header))))


def read(path, magic: bytes, version: int, min_body: int, kind: str) -> memoryview:
    """Body of a container whose magic, checksum and version all check out.

    min_body is the format's fixed header size; shorter files are truncated.
    The body is a view into the file's bytes, not a copy.
    """
    with open(path, "rb") as fh:
        blob = memoryview(fh.read())
    if len(blob) < 12 + min_body:
        raise CorruptFileError(f"{path}: truncated {kind} file")
    if blob[:4] != magic:
        raise CorruptFileError(f"{path}: bad magic {bytes(blob[:4])!r}")
    if zlib.crc32(blob[:-4]) != struct.unpack("<I", blob[-4:])[0]:
        raise CorruptFileError(f"{path}: checksum mismatch")
    found = struct.unpack("<I", blob[4:8])[0]
    if found != version:
        raise FormatVersionError(f"{path}: unsupported format version {found}")
    return blob[8:-4]


def stored_crc(path) -> int:
    """The CRC32 trailer as stored in the file; read() is what verifies it."""
    with open(path, "rb") as fh:
        fh.seek(-4, 2)  # 2: from the end
        return struct.unpack("<I", fh.read(4))[0]
