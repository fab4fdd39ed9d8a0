"""File-backed content-addressed object store and the RTMB grid format.

Blobs are addressed by the SHA-256 of their bytes and stored under
``<root>/<id[0:2]>/<id>``.  Puts write to a temp file and rename, so the
store is safe for concurrent use by multiple OS processes.  Gridded data
(velocity models, partial and final images, shot records) travels between
processes as "RTMB" blobs; the byte layout is documented in
docs/formats.md.
"""

from __future__ import annotations

import hashlib
import os
import struct
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

MAGIC = b"RTMB"
FORMAT_VERSION = 1

# header: magic | version u2 | reserved u2 | kind 8s | nz u4 | nx u4
#         | dz dx oz ox f8 | leaf_count u8   (little-endian, 64 bytes)
_HEADER = struct.Struct("<4sHH8sII4dQ")
HEADER_SIZE = _HEADER.size

KIND_IMAGE = "image"
KIND_VELOCITY = "velocity"
KIND_SHOTREC = "shotrec"
_KNOWN_KINDS = (KIND_IMAGE, KIND_VELOCITY, KIND_SHOTREC)


class BlobNotFoundError(KeyError):
    """No blob stored under the requested id."""


class BlobCorruptError(RuntimeError):
    """Stored bytes do not hash to the id they are filed under."""


class BlobFormatError(ValueError):
    """Bytes do not parse as a valid RTMB blob."""


def blob_id_for(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _check_id(blob_id: str) -> str:
    if len(blob_id) != 64 or any(c not in "0123456789abcdef" for c in blob_id):
        raise ValueError(f"malformed blob id: {blob_id!r}")
    return blob_id


@dataclass(frozen=True)
class ImageBlob:
    """Gridded payload plus the header fields of the RTMB format.

    ``leaf_count`` is the number of original per-shot images merged into
    this grid; the reduction service stops once it equals the expected
    shot count.
    """

    kind: str
    nz: int
    nx: int
    dz: float
    dx: float
    oz: float
    ox: float
    leaf_count: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.kind not in _KNOWN_KINDS:
            raise BlobFormatError(f"unknown blob kind {self.kind!r}")
        if self.nz < 1 or self.nx < 1:
            raise BlobFormatError("grid dims must be positive")
        if self.kind == KIND_IMAGE and self.leaf_count < 1:
            raise BlobFormatError("image blobs need leaf_count >= 1")
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != (self.nz, self.nx):
            raise BlobFormatError(
                f"payload shape {v.shape} does not match header dims "
                f"({self.nz}, {self.nx})"
            )
        object.__setattr__(self, "values", v)

    def grid_meta(self) -> tuple:
        return (self.nz, self.nx, self.dz, self.dx, self.oz, self.ox)

    def with_values(self, values: np.ndarray, leaf_count: int | None = None) -> "ImageBlob":
        lc = self.leaf_count if leaf_count is None else leaf_count
        return replace(self, values=values, leaf_count=lc)


def encode_image(blob: ImageBlob) -> bytes:
    header = _HEADER.pack(
        MAGIC,
        FORMAT_VERSION,
        0,
        blob.kind.encode("ascii").ljust(8, b"\0"),
        blob.nz,
        blob.nx,
        blob.dz,
        blob.dx,
        blob.oz,
        blob.ox,
        blob.leaf_count,
    )
    payload = np.ascontiguousarray(blob.values, dtype="<f8").tobytes()
    return header + payload


def decode_image(data: bytes) -> ImageBlob:
    if len(data) < HEADER_SIZE:
        raise BlobFormatError(f"blob shorter than header ({len(data)} bytes)")
    magic, version, _, kind_raw, nz, nx, dz, dx, oz, ox, leaf_count = _HEADER.unpack(
        data[:HEADER_SIZE]
    )
    if magic != MAGIC:
        raise BlobFormatError(f"bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise BlobFormatError(f"unsupported format version {version}")
    kind = kind_raw.rstrip(b"\0").decode("ascii", errors="replace")
    expected = HEADER_SIZE + 8 * nz * nx
    if len(data) != expected:
        raise BlobFormatError(
            f"payload length mismatch: have {len(data)} bytes, header implies {expected}"
        )
    values = np.frombuffer(data, dtype="<f8", offset=HEADER_SIZE).reshape(nz, nx)
    return ImageBlob(kind, nz, nx, dz, dx, oz, ox, leaf_count, values.copy())


class BlobStore:
    """Content-addressed store rooted at a local directory."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, blob_id: str) -> Path:
        return self.root / blob_id[:2] / blob_id

    def put(self, data: bytes) -> str:
        """Store bytes under their content hash; idempotent."""
        if not data:
            raise ValueError("refusing to store an empty blob")
        blob_id = blob_id_for(data)
        path = self._path(blob_id)
        if path.exists():
            return blob_id
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.root, prefix=".put-")
        try:
            with os.fdopen(fd, "wb") as f:
                f.write(data)
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return blob_id

    def get(self, blob_id: str) -> bytes:
        _check_id(blob_id)
        path = self._path(blob_id)
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            raise BlobNotFoundError(blob_id) from None
        if blob_id_for(data) != blob_id:
            raise BlobCorruptError(f"stored bytes for {blob_id} fail hash verification")
        return data

    def put_image(self, blob: ImageBlob) -> str:
        return self.put(encode_image(blob))

    def get_image(self, blob_id: str) -> ImageBlob:
        return decode_image(self.get(blob_id))
