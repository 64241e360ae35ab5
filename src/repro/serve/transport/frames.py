"""Length-prefixed, versioned, checksummed frames for the detection wire.

One frame is a 28-byte big-endian header followed by ``payload_len``
payload bytes::

    offset  size  field
    ------  ----  --------------------------------------------------
         0     4  magic            b"RHSD"
         4     2  protocol version (PROTOCOL_VERSION)
         6     1  frame type       (T_* constants)
         7     1  flags            (reserved, 0)
         8     8  request id       (client-chosen, echoed in replies)
        16     4  deadline_ms      remaining client budget (0 = none)
        20     4  payload_len
        24     4  crc32            over header[0:24] + payload

The CRC covers the header *and* the payload, so a decoded frame is
either trustworthy end to end or rejected as :class:`FrameCorrupt`;
only after the checksum passes is the version field compared, which is
what lets the client tell genuine protocol skew
(:class:`ProtocolMismatch`, terminal) apart from line corruption that
happened to hit the version bytes (retryable).

``deadline_ms`` is how the client's deadline rides the wire: the server
turns it back into a ``timeout=`` bound on
:meth:`~repro.serve.DetectionServer.submit`, so a request never waits
in the server's dispatch queue longer than its submitter is still
listening.

Payloads are ``numpy.savez`` archives (clips and scored results — the
same npz encoding the feature cache trusts on disk, bit-exact for
float64 scores) or UTF-8 JSON (errors, health, stats).  Everything here
is stdlib + numpy; no sockets — byte-level helpers only, shared by both
endpoints and by the fault injector.
"""

from __future__ import annotations

import io
import json
import socket
import struct
import zlib

import numpy as np

from ...layout.clip import Clip
from ...layout.geometry import Rect
from ..server import ServeResult
from .errors import ConnectionLost, FrameCorrupt, ProtocolMismatch, ReadTimeout

__all__ = [
    "FRAME_TYPES",
    "Frame",
    "HEADER_SIZE",
    "MAGIC",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "T_ERROR",
    "T_HEALTH",
    "T_HEALTH_REPLY",
    "T_REQUEST",
    "T_RESPONSE",
    "T_STATS",
    "T_STATS_REPLY",
    "decode_clips",
    "decode_error",
    "decode_json",
    "decode_result",
    "encode_clips",
    "encode_error",
    "encode_frame",
    "encode_json",
    "encode_result",
    "read_frame",
    "write_frame",
]

MAGIC = b"RHSD"
#: 2: scored results dropped the dispatched-batch clip count
PROTOCOL_VERSION = 2

#: frame types (u8)
T_REQUEST = 1
T_RESPONSE = 2
T_ERROR = 3
T_HEALTH = 4
T_HEALTH_REPLY = 5
T_STATS = 6
T_STATS_REPLY = 7

FRAME_TYPES = frozenset(
    {T_REQUEST, T_RESPONSE, T_ERROR, T_HEALTH, T_HEALTH_REPLY, T_STATS,
     T_STATS_REPLY}
)

_HEADER = struct.Struct(">4sHBBQIII")
HEADER_SIZE = _HEADER.size  # 28

#: decode-side guard: a header claiming a larger payload is corrupt
#: (64 MiB comfortably holds the largest scored response)
MAX_FRAME_BYTES = 64 * 1024 * 1024


class Frame:
    """One decoded frame: header fields + raw payload bytes."""

    __slots__ = ("ftype", "request_id", "deadline_ms", "payload")

    def __init__(self, ftype: int, request_id: int, deadline_ms: int,
                 payload: bytes) -> None:
        self.ftype = ftype
        self.request_id = request_id
        self.deadline_ms = deadline_ms
        self.payload = payload

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Frame(type={self.ftype}, id={self.request_id}, "
            f"deadline_ms={self.deadline_ms}, {len(self.payload)}B)"
        )


# ----------------------------------------------------------------------
# frame encode / decode
# ----------------------------------------------------------------------

def encode_frame(
    ftype: int,
    request_id: int,
    payload: bytes = b"",
    deadline_ms: int = 0,
) -> bytes:
    """One wire-ready frame (header + payload) as a single byte string."""
    if ftype not in FRAME_TYPES:
        raise ValueError(f"unknown frame type {ftype}")
    deadline_ms = max(0, min(int(deadline_ms), 0xFFFFFFFF))
    prefix = _HEADER.pack(
        MAGIC, PROTOCOL_VERSION, ftype, 0, request_id, deadline_ms,
        len(payload), 0,
    )[:-4]
    crc = zlib.crc32(payload, zlib.crc32(prefix)) & 0xFFFFFFFF
    header = prefix + struct.pack(">I", crc)
    return header + payload


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    """Read exactly ``n`` bytes or raise a typed transport error."""
    chunks: list[bytes] = []
    got = 0
    while got < n:
        try:
            chunk = sock.recv(min(n - got, 1 << 20))
        except socket.timeout as exc:
            raise ReadTimeout(
                f"peer silent after {got}/{n} bytes"
            ) from exc
        except OSError as exc:
            raise ConnectionLost(f"connection lost: {exc}") from exc
        if not chunk:
            if got == 0:
                raise ConnectionLost("connection closed by peer")
            raise ConnectionLost(
                f"connection closed mid-frame ({got}/{n} bytes)"
            )
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def read_frame(
    sock: socket.socket, max_bytes: int = MAX_FRAME_BYTES
) -> Frame:
    """Read one frame off ``sock`` (honouring its ``settimeout``).

    Raises :class:`ConnectionLost` on EOF, :class:`ReadTimeout` on a
    socket timeout, :class:`FrameCorrupt` on any checksum/framing
    damage, and :class:`ProtocolMismatch` on a CRC-valid frame whose
    version differs from :data:`PROTOCOL_VERSION`.
    """
    header = _recv_exact(sock, HEADER_SIZE)
    magic, version, ftype, _flags, request_id, deadline_ms, length, crc = (
        _HEADER.unpack(header)
    )
    if magic != MAGIC:
        raise FrameCorrupt(f"bad magic {magic!r}")
    if length > max_bytes:
        raise FrameCorrupt(
            f"frame claims {length} payload bytes (cap {max_bytes})"
        )
    payload = _recv_exact(sock, length) if length else b""
    expected = zlib.crc32(payload, zlib.crc32(header[:-4])) & 0xFFFFFFFF
    if crc != expected:
        raise FrameCorrupt(
            f"checksum mismatch (got {crc:#010x}, want {expected:#010x})"
        )
    if version != PROTOCOL_VERSION:
        raise ProtocolMismatch(
            f"peer speaks protocol v{version}, this end v"
            f"{PROTOCOL_VERSION}"
        )
    if ftype not in FRAME_TYPES:
        raise FrameCorrupt(f"unknown frame type {ftype}")
    return Frame(ftype, request_id, deadline_ms, payload)


def write_frame(
    sock: socket.socket,
    ftype: int,
    request_id: int,
    payload: bytes = b"",
    deadline_ms: int = 0,
) -> None:
    """Encode and send one frame as a single ``sendall`` (one frame ==
    one send call, which is what lets the fault injector count frames)."""
    data = encode_frame(ftype, request_id, payload, deadline_ms)
    try:
        sock.sendall(data)
    except socket.timeout as exc:
        raise ReadTimeout("peer stopped reading (send deadline)") from exc
    except OSError as exc:
        raise ConnectionLost(f"connection lost on send: {exc}") from exc


# ----------------------------------------------------------------------
# payload codecs
# ----------------------------------------------------------------------

def encode_clips(
    clips: list[Clip], model: str | None, want_labels: bool
) -> bytes:
    """npz-encode a detection request (geometry at exact nm ints)."""
    windows = np.array(
        [c.window.as_tuple() for c in clips], dtype=np.int64
    ).reshape(len(clips), 4)
    cores = np.array(
        [c.core.as_tuple() for c in clips], dtype=np.int64
    ).reshape(len(clips), 4)
    counts = np.array([len(c.rects) for c in clips], dtype=np.int64)
    flat = [r for c in clips for r in c.rects]
    rects = np.array(
        [(r.x0, r.y0, r.x1, r.y1) for r in flat], dtype=np.int64
    ).reshape(len(flat), 4)
    names = np.array([c.layout_name for c in clips])
    indices = np.array([c.index for c in clips], dtype=np.int64)
    buffer = io.BytesIO()
    np.savez(
        buffer,
        windows=windows, cores=cores, counts=counts, rects=rects,
        names=names, indices=indices,
        model=np.array(model if model is not None else ""),
        want_labels=np.array(bool(want_labels)),
    )
    return buffer.getvalue()


def decode_clips(payload: bytes) -> tuple[list[Clip], str | None, bool]:
    """Rebuild ``(clips, model, want_labels)`` from a request payload."""
    try:
        with np.load(io.BytesIO(payload), allow_pickle=False) as data:
            windows = data["windows"]
            cores = data["cores"]
            counts = data["counts"]
            rects = data["rects"]
            names = data["names"]
            indices = data["indices"]
            model = str(data["model"][()])
            want_labels = bool(data["want_labels"][()])
    except (OSError, ValueError, KeyError, zlib.error) as exc:
        raise FrameCorrupt(f"undecodable request payload: {exc}") from exc
    clips: list[Clip] = []
    offset = 0
    for i in range(len(windows)):
        n = int(counts[i])
        clip_rects = [
            Rect(int(x0), int(y0), int(x1), int(y1))
            for x0, y0, x1, y1 in rects[offset : offset + n]
        ]
        offset += n
        clips.append(
            Clip(
                window=Rect(*(int(v) for v in windows[i])),
                core=Rect(*(int(v) for v in cores[i])),
                rects=clip_rects,
                layout_name=str(names[i]),
                index=int(indices[i]),
            )
        )
    return clips, (model or None), want_labels


def encode_result(result: ServeResult) -> bytes:
    """npz-encode a :class:`ServeResult` (float64 arrays round-trip
    bit-exactly through npz, so remote scores == in-process scores)."""
    arrays = {
        "scores": result.scores,
        "verdicts": result.verdicts,
        "logits": result.logits,
        "embeddings": result.embeddings,
        "model": np.array(result.model),
        "has_labels": np.array(result.labels is not None),
    }
    if result.labels is not None:
        arrays["labels"] = result.labels
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    return buffer.getvalue()


def decode_result(payload: bytes) -> ServeResult:
    try:
        with np.load(io.BytesIO(payload), allow_pickle=False) as data:
            labels = (
                data["labels"] if bool(data["has_labels"][()]) else None
            )
            return ServeResult(
                scores=data["scores"],
                verdicts=data["verdicts"],
                logits=data["logits"],
                embeddings=data["embeddings"],
                model=str(data["model"][()]),
                labels=labels,
            )
    except (OSError, ValueError, KeyError, zlib.error) as exc:
        raise FrameCorrupt(f"undecodable result payload: {exc}") from exc


def encode_json(obj: dict) -> bytes:
    return json.dumps(obj, sort_keys=True).encode("utf-8")


def decode_json(payload: bytes) -> dict:
    try:
        decoded = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameCorrupt(f"undecodable JSON payload: {exc}") from exc
    if not isinstance(decoded, dict):
        raise FrameCorrupt(
            f"JSON payload is {type(decoded).__name__}, expected object"
        )
    return decoded


def encode_error(code: str, detail: str, retryable: bool) -> bytes:
    """Typed error payload: which failure, and whether retrying helps."""
    return encode_json(
        {"code": code, "detail": detail, "retryable": bool(retryable)}
    )


def decode_error(payload: bytes) -> tuple[str, str, bool]:
    decoded = decode_json(payload)
    return (
        str(decoded.get("code", "internal")),
        str(decoded.get("detail", "")),
        bool(decoded.get("retryable", False)),
    )
