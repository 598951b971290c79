"""The little-endian binary container shared by CWDS samples and CWNN weights.

Layout: 4-byte magic, uint32 format version, format-specific body, CRC32 of
everything before the trailer.  Each format reads and writes only its body.

write streams the body's parts to the file as they are, chaining the CRC
part by part, so a body is never joined into one bytes object.  read reads
the file once, into one buffer, and returns the body as a view of it.
"""

from __future__ import annotations

import os
import struct
import zlib

from .errors import CorruptFileError, FormatVersionError


def write(path, magic: bytes, version: int, *parts) -> None:
    """Write the container whose body is the parts, in order.

    Each part is any C-contiguous bytes-like object, such as bytes or a
    numpy array; file.write and zlib.crc32 read it in place.
    """
    header = magic + struct.pack("<I", version)
    crc = zlib.crc32(header)
    with open(path, "wb") as fh:
        fh.write(header)
        for part in parts:
            fh.write(part)
            crc = zlib.crc32(part, crc)
        fh.write(struct.pack("<I", crc))


def read(path, magic: bytes, version: int, min_body: int, kind: str) -> memoryview:
    """Body of a container whose magic, checksum and version all check out.

    min_body is the format's fixed header size; shorter files are truncated,
    and so is a file that yields fewer bytes than its stat size.  The body
    is a writable view into the one buffer the file was read into.
    """
    with open(path, "rb") as fh:
        blob = memoryview(bytearray(os.fstat(fh.fileno()).st_size))
        count = fh.readinto(blob)
    if count != len(blob) or count < 12 + min_body:
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
