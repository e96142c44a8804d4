"""Wire protocol for remote scorers: newline-delimited JSON frames.

The server speaks first with a hello frame naming the protocol version and
vocabulary size; afterwards the client sends requests carrying a request
id and the server answers each id once. The client sends a request only
once the last one was answered or timed out:

    {"type": "hello", "version": 3, "vocab_size": 14}
    {"type": "extend", "id": 9, "keep": 3, "tokens": [2]}
    {"type": "logits", "id": 9, "nbytes": 112}
    <exactly 112 bytes: 14 little-endian float64 logits>
    {"type": "error", "id": 9, "message": "..."}

An ``extend`` means "this connection's previous prefix cut to its first
``keep`` ids, plus ``tokens``", and is answered with a ``logits`` header
line followed by ``nbytes`` (always 8 × vocab size) raw little-endian
float64 bytes, which are bit-exact. The client reads the payload of every
``logits`` header, so the stream stays in frame even for a reply it
drops. An ``extend`` the server cannot resolve earns an error and poisons
the connection's session: every later ``extend`` with ``keep > 0`` fails
until one with ``keep == 0`` arrives. Any other request type earns an
error. Client and server speak only this version, and the client refuses
a hello naming any other.

Every frame is one line of compact JSON (no spaces). Both ends write the
two frames of a normal exchange, an ``extend`` and the ``logits`` header
answering it, field by field, and recognise them byte for byte: the
client compares each header line with the one its request expects, and
the server matches each request line against the compact ``extend``
frame, JSON integers only. Every other line is read by ``json.loads``, so
the bytes on the wire and every check and error are those of a JSON codec.
The server sends a reply's header and payload in one gather write.

Threads may share one client: each request is sent and its reply read
under one lock, so one request is in flight at a time. Every transport (a
TCP socket, a child process's pipes, the server's own stdin/stdout) frames
lines and payloads through the same reader and differs only in how it
sends, receives and closes.
"""

from __future__ import annotations

import json
import operator
import os
import re
import selectors
import shlex
import socket
import subprocess
import sys
import threading
import time
from collections.abc import Sequence

import numpy as np

from .core import TokenPrefix, Vocabulary, VocabularyMismatchError
from .scorers import Scorer

__all__ = [
    "HandshakeError",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "RemoteScoreError",
    "RemoteScorer",
    "RemoteTimeoutError",
    "ScorerClient",
    "StubServer",
    "StubSession",
    "connect_endpoint",
    "parse_endpoint",
    "serve_stdio",
]

PROTOCOL_VERSION = 3
DEFAULT_TIMEOUT_MS = 10_000


class ProtocolError(RuntimeError):
    """The peer violated the framing or sent something unparseable."""


class HandshakeError(ProtocolError):
    """The hello frame was missing, malformed, or a different version."""


class RemoteScoreError(ProtocolError):
    """The server answered a request with an error or unusable payload."""


class RemoteTimeoutError(ProtocolError):
    """No response arrived within the endpoint's timeout."""


_ENCODER = json.JSONEncoder(separators=(",", ":"))


def _encode_frame(frame: dict) -> bytes:
    return (_ENCODER.encode(frame) + "\n").encode("utf-8")


def _extend_line(request_id: int, keep: int, tokens: Sequence[int]) -> bytes:
    """``_encode_frame`` of an ``extend`` frame, written field by field. The
    ids must be exact ints, whose ``str`` is the ``int.__repr__`` JSON writes."""
    return b'{"type":"extend","id":%d,"keep":%d,"tokens":[%s]}\n' % (
        request_id,
        keep,
        ",".join(map(str, tokens)).encode(),
    )


def _logits_header(request_id: int, nbytes: int) -> bytes:
    """The compact ``logits`` header line that answers ``request_id``, without its newline."""
    return b'{"type":"logits","id":%d,"nbytes":%d}' % (request_id, nbytes)


# The extend line _extend_line writes. Its fields are JSON integers only (no
# sign, no leading zero), so a line it matches holds the frame json.loads
# would read from it.
_INT = rb"(?:0|[1-9][0-9]*)"
_EXTEND_LINE = re.compile(
    rb'\{"type":"extend","id":(%s),"keep":(%s),"tokens":\[((?:%s(?:,%s)*)?)\]\}' % ((_INT,) * 4)
)


def _request_frame(line: bytes):
    """The frame a request line holds, as ``json.loads`` reads it (and
    raising what it raises); the compact ``extend`` line is read field by
    field."""
    match = _EXTEND_LINE.fullmatch(line)
    if match is None:
        return json.loads(line.decode("utf-8"))
    request_id, keep, tokens = match.groups()
    return {
        "type": "extend",
        "id": int(request_id),
        "keep": int(keep),
        "tokens": list(map(int, tokens.split(b","))) if tokens else [],
    }


class _Channel:
    """Line- and length-framed byte transport with deadline-aware sends and reads.

    A transport supplies ``close()``, ``send(data, timeout)``, which sends
    all of ``data`` or raises ``TimeoutError`` when it could not within
    ``timeout`` seconds, and ``recv(timeout)``, which returns the next chunk
    of bytes (``b""`` at end of stream) or raises ``TimeoutError`` when none
    arrived within ``timeout`` seconds (``None`` waits indefinitely in
    both). A server's transport also supplies ``send_reply(header,
    payload)``, which sends both with no deadline. ``eof_message`` names the
    closed stream. A read that times out leaves what it buffered for the
    next read; a send that fails may have sent part of ``data``.
    """

    def __init__(self, send, recv, close, eof_message: str, send_reply=None):
        self.close = close
        self._send = send
        self._send_reply = send_reply
        self._recv = recv
        self._eof_message = eof_message
        # Received bytes; the first _start of them are consumed. A bytes
        # object is never written, so a view of it stays valid.
        self._buffer = b""
        self._start = 0

    def send(self, data: bytes, deadline: float | None = None) -> None:
        """Send ``data`` by ``deadline``: :class:`RemoteTimeoutError` when
        it passes, :class:`ProtocolError` when the peer has closed."""
        try:
            self._send(data, _remaining(deadline, "timed out sending a frame"))
        except TimeoutError:
            raise RemoteTimeoutError("timed out sending a frame") from None
        except ConnectionError as exc:
            raise ProtocolError(f"peer closed the stream: {exc}") from None

    def send_reply(self, header: bytes, payload=b"") -> None:
        """Send a server frame, the ``header`` line and then ``payload``:
        :class:`ProtocolError` when the peer has closed."""
        try:
            self._send_reply(header, payload)
        except ConnectionError as exc:
            raise ProtocolError(f"peer closed the stream: {exc}") from None

    def _fill(self, deadline: float | None) -> None:
        timeout = _remaining(deadline, "timed out waiting for a frame")
        try:
            chunk = self._recv(timeout)
        except TimeoutError:
            raise RemoteTimeoutError("timed out waiting for a frame") from None
        if not chunk:
            raise ProtocolError(self._eof_message)
        self._buffer = self._buffer[self._start :] + chunk
        self._start = 0

    def recv_line(self, deadline: float | None) -> bytes:
        """The bytes up to the next newline, which is consumed."""
        end = self._buffer.find(b"\n", self._start)
        while end < 0:
            self._fill(deadline)
            end = self._buffer.find(b"\n")
        line = self._buffer[self._start : end]
        self._start = end + 1
        return line

    def recv_exact(self, n: int, deadline: float | None) -> memoryview:
        """A read-only view of the next ``n`` bytes, buffered ones first."""
        while len(self._buffer) - self._start < n:
            self._fill(deadline)
        start = self._start
        self._start = start + n
        return memoryview(self._buffer)[start : start + n]


def _remaining(deadline: float | None, message: str) -> float | None:
    """The seconds left until ``deadline`` (None for none); raises
    :class:`RemoteTimeoutError` with ``message`` once it has passed."""
    if deadline is None:
        return None
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RemoteTimeoutError(message)
    return timeout


def _socket_channel(sock: socket.socket) -> _Channel:
    """A socket's channel. A timeout is set only when it differs from the
    socket's own, so a server, which waits without one, sets none."""

    def send(data, timeout):
        if sock.gettimeout() != timeout:
            sock.settimeout(timeout)
        sock.sendall(data)

    def recv(timeout):
        if sock.gettimeout() != timeout:
            sock.settimeout(timeout)
        return sock.recv(65536)

    def send_reply(header, payload):
        # One gather send; a send a signal cut short is finished by sendall.
        sent = sock.sendmsg((header, payload))
        if sent < len(header) + len(payload):
            sock.sendall((header + bytes(payload))[sent:])

    def close():
        try:
            sock.close()
        except OSError:
            pass

    return _Channel(send, recv, close, "connection closed by peer", send_reply)


def _pipe_channel(process: subprocess.Popen) -> _Channel:
    """Talks to a subprocess over its stdin/stdout pipes. Its stdin takes
    non-blocking writes, so a send waits for room only until its deadline."""
    selector = selectors.DefaultSelector()
    selector.register(process.stdout, selectors.EVENT_READ)
    stdin = process.stdin.fileno()
    os.set_blocking(stdin, False)
    writable = selectors.DefaultSelector()
    writable.register(stdin, selectors.EVENT_WRITE)

    def send(data: bytes, timeout) -> None:
        end = None if timeout is None else time.monotonic() + timeout
        view = memoryview(data)
        while True:
            try:
                view = view[os.write(stdin, view) :]
            except BlockingIOError:
                pass
            if not view:
                return
            wait = None if end is None else end - time.monotonic()
            if wait is not None and wait <= 0:
                raise TimeoutError
            writable.select(wait)

    def recv(timeout):
        if not selector.select(timeout):
            raise TimeoutError
        return os.read(process.stdout.fileno(), 65536)

    def close():
        selector.close()
        writable.close()
        for stream in (process.stdin, process.stdout):
            try:
                stream.close()
            except OSError:
                pass
        process.terminate()
        try:
            process.wait(timeout=5)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()

    return _Channel(send, recv, close, "subprocess closed its output")


def _token_ids(tokens: Sequence) -> list[int]:
    ids = []
    for position, token in enumerate(tokens):
        try:
            ids.append(operator.index(token))
        except TypeError:
            raise VocabularyMismatchError(
                f"position {position}: token id {token!r} is not an integer"
            ) from None
    return ids


def _check_timeout(timeout_ms) -> None:
    # bool is an int subclass: True would pass as 1 ms.
    if type(timeout_ms) is not int or timeout_ms <= 0:
        raise ValueError(f"timeout_ms must be a positive integer, got {timeout_ms!r}")


class ScorerClient:
    """Client side of the protocol, safe to share across decode threads.

    ``score_tokens`` is the one request path. Under one lock it sends an
    ``extend`` frame relative to the prefix this client sent last and reads
    frames until the reply to that request, so one request is in flight at
    a time and threads that share a client each get their own rows. One
    deadline covers the wait for the lock, the send and the reply; a caller
    that cannot get the lock in time sends nothing. A request that timed out
    waiting for its reply is retired: its reply, if it ever arrives, is read
    by a later request, dropped and counted in ``late_frames``. One whose
    send timed out or found the peer gone may have sent part of a frame, so
    every later request fails at once, saying why, as does every request
    after ``close``. Building a client reads the server's hello, so
    ``vocab_size`` is always set.
    """

    def __init__(self, channel: _Channel, timeout_ms: int = DEFAULT_TIMEOUT_MS):
        # A client that fails its handshake is never returned, so its
        # transport (socket or child process) is released here.
        try:
            _check_timeout(timeout_ms)
            self._channel = channel
            self._timeout = timeout_ms / 1000.0
            self.timeout_ms = timeout_ms
            self.vocab_size = self._handshake()
        except BaseException:
            channel.close()
            raise
        self._lock = threading.Lock()
        # Everything below is read and written under _lock. The server's
        # session holds the first _sent_len ids of _sent (a TokenPrefix only
        # grows), unless an error frame, which sets _resync, may have
        # poisoned it.
        self._sent: Sequence[int] = []
        self._sent_len = 0
        self._resync = False
        self._timed_out: set[int] = set()
        self._late_frames = 0
        self._bytes_sent = 0
        self._bytes_received = 0
        # Why the stream is out of frame (a send failed part way), or None.
        self._broken: str | None = None
        self._closed = False
        self._next_id = 0
        # A frame whose header was read and whose payload was not, so the
        # next request reads that payload first, or (when the header's
        # nbytes was refused) fails again.
        self._header: dict | None = None

    @classmethod
    def connect_tcp(cls, host: str, port: int, timeout_ms: int = DEFAULT_TIMEOUT_MS):
        _check_timeout(timeout_ms)
        sock = socket.create_connection((host, port), timeout=timeout_ms / 1000.0)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return cls(_socket_channel(sock), timeout_ms)

    @classmethod
    def connect_stdio(cls, command: Sequence[str], timeout_ms: int = DEFAULT_TIMEOUT_MS):
        _check_timeout(timeout_ms)
        process = subprocess.Popen(
            list(command), stdin=subprocess.PIPE, stdout=subprocess.PIPE
        )
        return cls(_pipe_channel(process), timeout_ms)

    @property
    def late_frames(self) -> int:
        """Responses that arrived after their request timed out, and were dropped."""
        return self._late_frames

    @property
    def requests(self) -> int:
        """Requests this client has sent or begun to send."""
        return self._next_id

    @property
    def bytes_sent(self) -> int:
        """Bytes of the request frames this client has sent."""
        return self._bytes_sent

    @property
    def bytes_received(self) -> int:
        """Bytes of the reply frames (headers and payloads) this client has
        read, the hello not included."""
        return self._bytes_received

    def _handshake(self) -> int:
        """Consume the server hello; returns the advertised vocab size."""
        line = self._channel.recv_line(time.monotonic() + self._timeout)
        frame = self._parse_line(line)
        if frame.get("type") != "hello":
            raise HandshakeError(f"expected hello frame, got {frame.get('type')!r}")
        version = frame.get("version")
        # JSON true and false parse to bool, which compares equal to 1 and 0.
        if type(version) is not int or version != PROTOCOL_VERSION:
            raise HandshakeError(
                f"server speaks protocol version {version!r}, client supports {PROTOCOL_VERSION}"
            )
        vocab_size = frame.get("vocab_size")
        if type(vocab_size) is not int or vocab_size < 1:
            raise HandshakeError(f"hello carries invalid vocab_size: {vocab_size!r}")
        return vocab_size

    def score_tokens(self, tokens: Sequence[int]) -> np.ndarray:
        """Score one prefix: send its request and wait for the reply.

        The server checks the ids against its vocabulary; a sequence other
        than a :class:`TokenPrefix` is first checked to hold integers.
        """
        prefix = tokens if isinstance(tokens, TokenPrefix) else _token_ids(tokens)
        deadline = time.monotonic() + self._timeout
        if not self._lock.acquire(timeout=self._timeout):
            raise RemoteTimeoutError(
                f"no response within {self.timeout_ms} ms: another request held the connection"
            )
        try:
            if self._closed:
                raise ProtocolError("client is closed")
            if self._broken is not None:
                raise ProtocolError(f"connection out of frame: {self._broken}")
            request_id = self._next_id
            self._next_id += 1
            keep = self._shared_length(prefix)
            self._sent, self._sent_len = prefix, len(prefix)
            self._send(_extend_line(request_id, keep, prefix[keep:]), deadline)
            try:
                header, payload = self._read_reply(request_id, deadline)
            except RemoteTimeoutError:
                # Retire the id so that its reply, if it comes, is dropped.
                self._timed_out.add(request_id)
                raise
        finally:
            self._lock.release()
        return self._decode_response(header, payload)

    def _send(self, data: bytes, deadline: float) -> None:
        """Send one request's frame by its deadline. A send that fails may
        have sent part of the frame, so every later request fails at once."""
        try:
            self._channel.send(data, deadline)
        except RemoteTimeoutError:
            self._broken = f"a request was not sent within {self.timeout_ms} ms"
            raise RemoteTimeoutError(self._broken) from None
        except ProtocolError as exc:
            self._broken = f"a request's send failed: {exc}"
            raise
        self._bytes_sent += len(data)

    def _shared_length(self, prefix: Sequence[int]) -> int:
        """How many leading ids ``prefix`` shares with the session's prefix."""
        if self._resync:
            self._resync = False
            return 0
        if prefix is self._sent:
            return self._sent_len
        n = min(self._sent_len, len(prefix))
        sent, new = self._sent[:n], prefix[:n]
        if sent == new:
            return n
        return next(i for i in range(n) if sent[i] != new[i])

    def _read_reply(self, request_id: int, deadline: float) -> tuple[dict, memoryview | None]:
        """Read frames until the one answering ``request_id``; returns its
        header and the payload of a logits frame (``None`` for an error).

        The payload is read before the id is matched, so a dropped reply
        leaves the stream in frame.
        """
        while True:
            try:
                if self._header is None:
                    line = self._channel.recv_line(deadline)
                    self._bytes_received += len(line) + 1
                    self._header = self._header_frame(line, request_id)
                frame, payload = self._header, None
                if frame.get("type") == "logits":
                    payload = self._channel.recv_exact(self._payload_size(frame), deadline)
                    self._bytes_received += len(payload)
                self._header = None
            except RemoteTimeoutError:
                raise RemoteTimeoutError(
                    f"no response within {self.timeout_ms} ms"
                ) from None
            kind = frame.get("type")
            if kind not in ("logits", "error"):
                raise ProtocolError(f"unexpected frame type {kind!r} from server")
            frame_id = frame.get("id")
            if kind == "error":
                # The failed request may have been an extend that poisoned the
                # server's session, so the next request restarts it.
                self._resync = True
                if frame_id is None:
                    raise RemoteScoreError(f"server error: {frame.get('message')!r}")
            # An id that is not an int (a list would not even hash, true
            # would match request 1) is unknown too.
            if type(frame_id) is int and frame_id == request_id:
                return frame, payload
            if type(frame_id) is not int or frame_id not in self._timed_out:
                raise ProtocolError(f"response for unknown request id {frame_id!r}")
            self._timed_out.discard(frame_id)
            self._late_frames += 1

    def _header_frame(self, line: bytes, request_id: int) -> dict:
        """``_parse_line(line)``, with the one header line that answers
        ``request_id`` as the server writes it recognised byte for byte."""
        size = 8 * self.vocab_size
        if line == _logits_header(request_id, size):
            return {"type": "logits", "id": request_id, "nbytes": size}
        return self._parse_line(line)

    @staticmethod
    def _parse_line(line: bytes) -> dict:
        try:
            frame = json.loads(line.decode("utf-8"))
        except ValueError as exc:  # not UTF-8, not JSON, or an int past the digit limit
            raise ProtocolError(f"malformed frame from server: {exc}") from exc
        if not isinstance(frame, dict):
            raise ProtocolError(f"frame must be a JSON object, got {type(frame).__name__}")
        return frame

    def _payload_size(self, frame: dict) -> int:
        nbytes, size = frame.get("nbytes"), 8 * self.vocab_size
        # JSON true parses to a bool and 8.0 to a float, which compare equal to ints.
        if type(nbytes) is not int or nbytes != size:
            raise ProtocolError(
                f"logits header announces nbytes {nbytes!r}, expected {size} (8 x vocab size)"
            )
        return size

    @staticmethod
    def _decode_response(frame: dict, payload: memoryview | None) -> np.ndarray:
        if payload is None:
            raise RemoteScoreError(f"server error: {frame.get('message')!r}")
        # The one copy of the payload: into an owned, writable array.
        logits = np.frombuffer(payload, dtype="<f8").astype(np.float64)
        if not np.isfinite(logits).all():
            raise RemoteScoreError("logits contain non-finite values")
        return logits

    def close(self) -> None:
        """Release the transport; every later request raises
        :class:`ProtocolError` without touching it. Closing again does nothing."""
        self._closed = True
        self._channel.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


class RemoteScorer(Scorer):
    """Scorer facade over a protocol client, for use in decode ensembles."""

    kind = "remote"

    def __init__(self, client: ScorerClient, vocab: Vocabulary, name="", tokenizer="whitespace"):
        super().__init__(vocab, name, tokenizer)
        if client.vocab_size != vocab.size:
            raise VocabularyMismatchError(
                f"server vocab size {client.vocab_size} != local vocabulary size {vocab.size}"
            )
        self.client = client

    def score(self, prefix):
        return self.client.score_tokens(self._check_prefix(prefix))


def _error_frame(frame_id, message: str) -> tuple[dict, bytes]:
    return {"type": "error", "id": frame_id, "message": message}, b""


class StubSession:
    """The server side of one connection, answering with a local scorer.

    An ``extend`` frame grows the session's prefix, so each id is checked
    once, and is answered with the logits' float64 bytes; one that cannot
    be resolved poisons the prefix (``None``) until an ``extend`` with
    ``keep == 0`` starts it afresh.
    """

    def __init__(self, scorer: Scorer):
        self.scorer = scorer
        self.prefix: TokenPrefix | None = TokenPrefix(scorer.vocab.size)

    def step(self, frame) -> tuple[dict, bytes | memoryview]:
        """Answer one client frame with a header frame and the payload
        bytes that follow it on the wire; never raises.

        The payload is empty except after the ``nbytes`` header that
        answers an ``extend``, where it is a byte view of the float64
        logits, not a copy. Malformed input produces an error frame
        (with the request id when one is recoverable), so a bad request can
        never yield wrong logits.
        """
        if not isinstance(frame, dict):
            return _error_frame(None, "frame must be a JSON object")
        frame_id = frame.get("id")
        if type(frame_id) is not int:
            frame_id = None
        kind = frame.get("type")
        if kind != "extend":
            return _error_frame(frame_id, f"unsupported frame type {kind!r}")
        try:
            prefix = self._extend(frame_id, frame.get("keep"), frame.get("tokens"))
        except ValueError as exc:
            self.prefix = None
            return _error_frame(frame_id, f"{exc} (session reset: the next extend needs keep 0)")
        try:
            logits = np.asarray(self.scorer.score(prefix), dtype=np.float64)
            if logits.shape != (self.scorer.vocab.size,) or not np.isfinite(logits).all():
                raise ValueError(f"scorer returned unusable logits of shape {logits.shape}")
        except Exception as exc:
            return _error_frame(frame_id, str(exc))
        payload = np.ascontiguousarray(logits, dtype="<f8").data.cast("B")
        return {"type": "logits", "id": frame_id, "nbytes": len(payload)}, payload

    def _extend(self, frame_id, keep, tokens) -> TokenPrefix:
        """Make the session prefix its first ``keep`` ids plus ``tokens``;
        raises ValueError when the frame cannot be resolved."""
        if frame_id is None:
            raise ValueError("extend frame needs an integer id")
        if type(keep) is not int or keep < 0:
            raise ValueError(f"keep must be a non-negative integer, got {keep!r}")
        # JSON true and false parse to bool, a subclass of int: not ids.
        if not isinstance(tokens, list) or any(type(t) is not int for t in tokens):
            raise ValueError("tokens must be a list of integers")
        held = self.prefix
        if held is None:
            if keep > 0:
                raise ValueError(f"keep {keep} refers to a session an earlier error reset")
            held = TokenPrefix(self.scorer.vocab.size)
        if keep > len(held):
            raise ValueError(f"keep {keep} exceeds the session's {len(held)} ids")
        prefix = held if keep == len(held) else held.head(keep)
        for token in tokens:
            prefix.append(token)
        self.prefix = prefix
        return prefix


def _hello_frame(scorer: Scorer) -> dict:
    return {"type": "hello", "version": PROTOCOL_VERSION, "vocab_size": scorer.vocab.size}


def _serve_channel(scorer: Scorer, channel: _Channel) -> None:
    """Send the hello, then answer each frame as it arrives until the
    client closes the stream."""
    channel.send_reply(_encode_frame(_hello_frame(scorer)))
    session = StubSession(scorer)
    while True:
        try:
            line = channel.recv_line(None)
        except ProtocolError:
            break
        if not line.strip():
            continue
        try:
            frame = _request_frame(line)
        except ValueError as exc:  # not UTF-8, not JSON, or an int past the digit limit
            header, _ = _error_frame(None, f"bad frame: {exc}")
            channel.send_reply(_encode_frame(header))
            continue
        header, payload = session.step(frame)
        if header["type"] == "logits":
            channel.send_reply(_logits_header(header["id"], len(payload)) + b"\n", payload)
        else:
            channel.send_reply(_encode_frame(header))


class StubServer:
    """TCP server exposing a local scorer over the wire protocol.

    Each connection is answered in arrival order. ``stop`` closes the
    listener and every open connection, and joins the threads serving them.
    """

    def __init__(self, scorer: Scorer, host: str = "127.0.0.1", port: int = 0):
        self.scorer = scorer
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen()
        self.host, self.port = self._listener.getsockname()
        self._stop = threading.Event()
        # Each open connection and the thread serving it. A connection is
        # closed under the lock as it leaves, so stop() never shuts down a
        # socket that is already closed.
        self._lock = threading.Lock()
        self._connections: dict[socket.socket, threading.Thread] = {}
        self._accept_thread: threading.Thread | None = None

    def start(self) -> "StubServer":
        self._listener.settimeout(0.2)
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept_thread.start()
        return self

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            thread = threading.Thread(
                target=self._serve_one, args=(conn,), daemon=True
            )
            with self._lock:
                self._connections[conn] = thread
            thread.start()

    def _serve_one(self, conn: socket.socket) -> None:
        channel = _socket_channel(conn)
        try:
            _serve_channel(self.scorer, channel)
        except (OSError, ProtocolError):
            pass  # stop() shut the connection down, or the peer closed it, mid-send
        finally:
            with self._lock:
                del self._connections[conn]
                channel.close()

    def stop(self) -> None:
        self._stop.set()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)
        self._listener.close()
        with self._lock:
            for conn in self._connections:
                try:
                    conn.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass  # the peer already reset it
            threads = list(self._connections.values())
        for thread in threads:
            thread.join(timeout=5)

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info):
        self.stop()


def serve_stdio(scorer: Scorer) -> None:
    """Serve one protocol session over stdio (for subprocess transports)."""
    stdin, stdout = sys.stdin.buffer, sys.stdout.buffer

    def send_reply(header: bytes, payload) -> None:
        stdout.write(header)
        stdout.write(payload)
        stdout.flush()

    channel = _Channel(None, lambda timeout: stdin.read1(65536), lambda: None, "stdin closed", send_reply)
    _serve_channel(scorer, channel)


def parse_endpoint(spec: str):
    """Parse ``tcp:HOST:PORT`` or ``stdio:COMMAND ...`` endpoint strings."""
    if spec.startswith("tcp:"):
        rest = spec[len("tcp:") :]
        host, _, port = rest.rpartition(":")
        if not host or not port.isdigit():
            raise ValueError(f"tcp endpoint must look like tcp:HOST:PORT, got {spec!r}")
        return ("tcp", host, int(port))
    if spec.startswith("stdio:"):
        command = shlex.split(spec[len("stdio:") :])
        if not command:
            raise ValueError(f"stdio endpoint needs a command, got {spec!r}")
        return ("stdio", command)
    raise ValueError(f"endpoint must start with tcp: or stdio:, got {spec!r}")


def connect_endpoint(spec: str, timeout_ms: int = DEFAULT_TIMEOUT_MS) -> ScorerClient:
    parsed = parse_endpoint(spec)
    if parsed[0] == "tcp":
        return ScorerClient.connect_tcp(parsed[1], parsed[2], timeout_ms)
    return ScorerClient.connect_stdio(parsed[1], timeout_ms)
