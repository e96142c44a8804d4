"""Wire protocol for remote scorers: newline-delimited JSON frames.

The server speaks first with a hello frame naming the protocol version and
vocabulary size; afterwards the client sends requests carrying a request
id and the server answers each id exactly once, in any order:

    {"type": "hello", "version": 2, "vocab_size": 14}
    {"type": "score", "id": 7, "tokens": [0, 3, 1]}
    {"type": "logits", "id": 7, "dense": [-1.2, ...]}
    {"type": "logits", "id": 8, "topk": [[3, -0.5], [1, -1.0]], "rest": -9.0}
    {"type": "extend", "id": 9, "keep": 3, "tokens": [2]}
    {"type": "logits", "id": 9, "f64": "MzMzMzMz8z8..."}
    {"type": "error", "id": 7, "message": "..."}

Version 1 has only ``score`` frames, which carry the whole prefix and are
answered with ``dense`` numbers that round-trip through ``repr``. Version 2
adds ``extend``: "this connection's previous prefix cut to its first
``keep`` ids, plus ``tokens``", answered with the logits' little-endian
float64 bytes in base64 (``f64``). Both answers are bit-exact. A version 2
server answers both kinds of request, and the client sends ``extend`` only
to a server whose hello says version 2. An ``extend`` the server cannot
resolve earns an error and poisons the connection's session: every later
``extend`` with ``keep > 0`` fails until one with ``keep == 0`` arrives.

The client multiplexes one connection across threads: sends are
serialized, responses are matched to waiters by id. Sparse frames are
expanded by :func:`densify`. Every transport (a TCP socket, a child
process's pipes, the server's own stdin/stdout) frames lines through the
same reader and differs only in how it sends, receives and closes.
"""

from __future__ import annotations

import base64
import json
import operator
import os
import selectors
import shlex
import socket
import subprocess
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
    "decode_f64",
    "densify",
    "encode_f64",
    "parse_endpoint",
    "serve_stdio",
    "stub_server_step",
]

PROTOCOL_VERSION = 2
DEFAULT_TIMEOUT_MS = 10_000


class ProtocolError(RuntimeError):
    """The peer violated the framing or sent something unparseable."""


class HandshakeError(ProtocolError):
    """The hello frame was missing, malformed, or a different version."""


class RemoteScoreError(ProtocolError):
    """The server answered a request with an error or unusable payload."""


class RemoteTimeoutError(ProtocolError):
    """No response arrived within the endpoint's timeout."""


def _encode_frame(frame: dict) -> bytes:
    return (json.dumps(frame, separators=(",", ":")) + "\n").encode("utf-8")


def densify(topk: Sequence[Sequence], rest: float, vocab_size: int) -> np.ndarray:
    """Expand top-k ``[id, logit]`` pairs plus one shared ``rest`` value for
    every other id into a dense vector, validating as it goes."""
    if not np.isfinite(rest):
        raise RemoteScoreError(f"sparse rest value is non-finite: {rest}")
    out = np.full(vocab_size, float(rest), dtype=np.float64)
    seen: set[int] = set()
    for entry in topk:
        if len(entry) != 2:
            raise RemoteScoreError(f"sparse entry must be [id, value], got {entry!r}")
        # Not int(): it would truncate 1.9 and take JSON true for id 1.
        if type(entry[0]) is not int and not isinstance(entry[0], np.integer):
            raise RemoteScoreError(f"sparse token id must be an integer, got {entry[0]!r}")
        token, value = int(entry[0]), float(entry[1])
        if not 0 <= token < vocab_size:
            raise RemoteScoreError(f"sparse token id {token} outside vocabulary of size {vocab_size}")
        if token in seen:
            raise RemoteScoreError(f"sparse token id {token} appears twice")
        if not np.isfinite(value):
            raise RemoteScoreError(f"sparse logit for token {token} is non-finite")
        seen.add(token)
        out[token] = value
    return out


def encode_f64(logits: np.ndarray) -> str:
    """Base64 of the little-endian float64 bytes of ``logits``."""
    return base64.b64encode(np.asarray(logits, dtype="<f8").tobytes()).decode("ascii")


def decode_f64(payload, vocab_size: int) -> np.ndarray:
    """Inverse of :func:`encode_f64`: a fresh float64 vector of ``vocab_size``
    finite values, or :class:`RemoteScoreError`."""
    if not isinstance(payload, str):
        raise RemoteScoreError(f"f64 logits must be a base64 string, got {type(payload).__name__}")
    try:
        raw = base64.b64decode(payload, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII string
        raise RemoteScoreError(f"f64 logits are not valid base64: {exc}") from None
    # The character count also rejects padding past the canonical encoding,
    # which b64decode tolerates.
    size, chars = 8 * vocab_size, 4 * -(-8 * vocab_size // 3)
    if len(raw) != size or len(payload) != chars:
        raise RemoteScoreError(
            f"f64 logits decode to {len(raw)} bytes from {len(payload)} base64 characters, "
            f"expected {size} bytes from {chars}"
        )
    logits = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    if not np.isfinite(logits).all():
        raise RemoteScoreError("f64 logits contain non-finite values")
    return logits


class _Channel:
    """Line-framed byte transport with deadline-aware reads.

    A transport supplies ``send(data)``, ``close()`` and ``recv(timeout)``,
    which returns the next chunk of bytes (``b""`` at end of stream) or
    raises ``TimeoutError`` when none arrived within ``timeout`` seconds
    (``None`` waits indefinitely). ``eof_message`` names the closed stream.
    """

    def __init__(self, send, recv, close, eof_message: str):
        self.send_line = send
        self.close = close
        self._recv = recv
        self._eof_message = eof_message
        self._buffer = b""

    def recv_line(self, deadline: float | None) -> bytes:
        while b"\n" not in self._buffer:
            timeout = None
            if deadline is not None:
                timeout = deadline - time.monotonic()
                if timeout <= 0:
                    raise RemoteTimeoutError("timed out waiting for a frame")
            try:
                chunk = self._recv(timeout)
            except TimeoutError:
                raise RemoteTimeoutError("timed out waiting for a frame") from None
            if not chunk:
                raise ProtocolError(self._eof_message)
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return line


def _socket_channel(sock: socket.socket) -> _Channel:
    def recv(timeout):
        sock.settimeout(timeout)
        return sock.recv(65536)

    def close():
        try:
            sock.close()
        except OSError:
            pass

    return _Channel(sock.sendall, recv, close, "connection closed by peer")


def _pipe_channel(process: subprocess.Popen) -> _Channel:
    """Talks to a subprocess over its stdin/stdout pipes."""
    selector = selectors.DefaultSelector()
    selector.register(process.stdout, selectors.EVENT_READ)

    def send(data: bytes) -> None:
        process.stdin.write(data)
        process.stdin.flush()

    def recv(timeout):
        if not selector.select(timeout):
            raise TimeoutError
        return os.read(process.stdout.fileno(), 65536)

    def close():
        selector.close()
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


class ScorerClient:
    """Client side of the protocol, safe to share across decode threads.

    ``submit`` sends a request and returns its id without blocking on the
    response; ``collect`` waits for that id, pumping the connection and
    parking frames for other ids so pipelined, out-of-order replies land
    with their rightful callers. A request whose ``collect`` timed out is
    retired: its response, if it ever arrives, is dropped and counted in
    ``late_frames``. Against a version 2 server each request is an
    ``extend`` frame relative to the prefix this client sent last.
    """

    def __init__(self, channel: _Channel, timeout_ms: int = DEFAULT_TIMEOUT_MS):
        if timeout_ms <= 0:
            raise ValueError(f"timeout_ms must be positive, got {timeout_ms}")
        self._channel = channel
        self._timeout = timeout_ms / 1000.0
        self.timeout_ms = timeout_ms
        self.vocab_size: int | None = None
        self.version: int | None = None
        self._cond = threading.Condition()
        self._send_lock = threading.Lock()
        # Read and written under _send_lock: the server's session holds the
        # first _sent_len ids of _sent (a TokenPrefix only grows), unless an
        # error frame, which sets _resync, may have poisoned it.
        self._sent: Sequence[int] = []
        self._sent_len = 0
        self._resync = False
        self._responses: dict[int, dict] = {}
        self._outstanding: set[int] = set()
        self._timed_out: set[int] = set()
        self._late_frames = 0
        self._next_id = 0
        self._pumping = False

    @classmethod
    def connect_tcp(cls, host: str, port: int, timeout_ms: int = DEFAULT_TIMEOUT_MS):
        sock = socket.create_connection((host, port), timeout=timeout_ms / 1000.0)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return cls._open(_socket_channel(sock), timeout_ms)

    @classmethod
    def connect_stdio(cls, command: Sequence[str], timeout_ms: int = DEFAULT_TIMEOUT_MS):
        process = subprocess.Popen(
            list(command), stdin=subprocess.PIPE, stdout=subprocess.PIPE
        )
        return cls._open(_pipe_channel(process), timeout_ms)

    @classmethod
    def _open(cls, channel: _Channel, timeout_ms: int) -> "ScorerClient":
        # A client that never finished its handshake is never returned, so
        # its transport (socket or child process) is released here.
        try:
            client = cls(channel, timeout_ms)
            client.handshake()
        except BaseException:
            channel.close()
            raise
        return client

    @property
    def late_frames(self) -> int:
        """Responses that arrived after their request timed out, and were dropped."""
        return self._late_frames

    def handshake(self) -> int:
        """Consume the server hello; returns the advertised vocab size."""
        line = self._channel.recv_line(time.monotonic() + self._timeout)
        frame = self._parse_line(line)
        if frame.get("type") != "hello":
            raise HandshakeError(f"expected hello frame, got {frame.get('type')!r}")
        version = frame.get("version")
        # JSON true and false parse to bool, which compares equal to 1 and 0.
        if type(version) is not int or version not in (1, PROTOCOL_VERSION):
            raise HandshakeError(
                f"server speaks protocol version {version!r}, client supports 1 and {PROTOCOL_VERSION}"
            )
        vocab_size = frame.get("vocab_size")
        if type(vocab_size) is not int or vocab_size < 1:
            raise HandshakeError(f"hello carries invalid vocab_size: {vocab_size!r}")
        self.vocab_size = vocab_size
        self.version = version
        return vocab_size

    def submit(self, tokens: Sequence[int]) -> int:
        """Send one score request; returns its id for a later collect.

        The server checks the ids against its vocabulary; a sequence other
        than a :class:`TokenPrefix` is first checked to hold integers.
        """
        if self.vocab_size is None:
            raise ProtocolError("cannot submit a request before the handshake")
        prefix = tokens if isinstance(tokens, TokenPrefix) else _token_ids(tokens)
        with self._cond:
            request_id = self._next_id
            self._next_id += 1
            self._outstanding.add(request_id)
        with self._send_lock:
            if self.version == 1:
                frame = {"type": "score", "id": request_id, "tokens": prefix[:]}
            else:
                keep = self._shared_length(prefix)
                frame = {"type": "extend", "id": request_id, "keep": keep, "tokens": prefix[keep:]}
                self._sent, self._sent_len = prefix, len(prefix)
            self._channel.send_line(_encode_frame(frame))
        return request_id

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

    def collect(self, request_id: int) -> np.ndarray:
        """Wait for the response to ``request_id`` and decode it."""
        deadline = time.monotonic() + self._timeout
        with self._cond:
            if request_id not in self._outstanding:
                raise ProtocolError(f"request id {request_id} is not outstanding")
            try:
                while request_id not in self._responses:
                    if self._pumping:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            raise RemoteTimeoutError(
                                f"no response for request {request_id} within {self.timeout_ms} ms"
                            )
                        self._cond.wait(timeout=remaining)
                        continue
                    self._pump_one(deadline)
            except RemoteTimeoutError:
                # Retire the id so a late response is dropped, not parked forever.
                self._outstanding.discard(request_id)
                self._timed_out.add(request_id)
                raise
            frame = self._responses.pop(request_id)
            self._outstanding.discard(request_id)
        return self._decode_response(frame)

    def _pump_one(self, deadline: float) -> None:
        # Caller holds the condition; read one frame with it released so
        # other threads can park as waiters meanwhile.
        self._pumping = True
        self._cond.release()
        try:
            try:
                line = self._channel.recv_line(deadline)
            except RemoteTimeoutError:
                raise RemoteTimeoutError(
                    f"no response within {self.timeout_ms} ms"
                ) from None
            frame = self._parse_line(line)
        finally:
            self._cond.acquire()
            self._pumping = False
            self._cond.notify_all()
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
        # An id that is not an int (a list would not even hash, true would
        # match request 1) is unknown too.
        if type(frame_id) is int and frame_id in self._outstanding:
            self._responses[frame_id] = frame
        elif type(frame_id) is int and frame_id in self._timed_out:
            self._timed_out.discard(frame_id)
            self._late_frames += 1
        else:
            raise ProtocolError(f"response for unknown request id {frame_id!r}")

    @staticmethod
    def _parse_line(line: bytes) -> dict:
        try:
            frame = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(f"malformed frame from server: {exc}") from exc
        if not isinstance(frame, dict):
            raise ProtocolError(f"frame must be a JSON object, got {type(frame).__name__}")
        return frame

    def _decode_response(self, frame: dict) -> np.ndarray:
        if frame["type"] == "error":
            raise RemoteScoreError(f"server error: {frame.get('message')!r}")
        dense, topk, f64 = frame.get("dense"), frame.get("topk"), frame.get("f64")
        if [dense, topk, f64].count(None) != 2:
            raise RemoteScoreError("logits frame must carry exactly one of dense/topk/f64")
        if f64 is not None:
            return decode_f64(f64, self.vocab_size)
        if dense is not None:
            arr = np.asarray(dense, dtype=np.float64)
            if arr.shape != (self.vocab_size,):
                raise RemoteScoreError(
                    f"dense logits have shape {arr.shape}, expected ({self.vocab_size},)"
                )
            if not np.isfinite(arr).all():
                raise RemoteScoreError("dense logits contain non-finite values")
            return arr
        if "rest" not in frame:
            raise RemoteScoreError("sparse logits frame is missing its rest value")
        return densify(topk, frame["rest"], self.vocab_size)

    def score_tokens(self, tokens: Sequence[int]) -> np.ndarray:
        return self.collect(self.submit(tokens))

    def close(self) -> None:
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
        if client.vocab_size is None:
            client.handshake()
        if client.vocab_size != vocab.size:
            raise VocabularyMismatchError(
                f"server vocab size {client.vocab_size} != local vocabulary size {vocab.size}"
            )
        self.client = client

    def score(self, prefix):
        return self.client.score_tokens(self._check_prefix(prefix))


def _error_frame(frame_id, message: str) -> dict:
    return {"type": "error", "id": frame_id, "message": message}


def _is_id_list(tokens) -> bool:
    # JSON true and false parse to bool, a subclass of int: not ids.
    return isinstance(tokens, list) and all(type(t) is int for t in tokens)


def _sparse_response(frame_id: int, logits: list[float], topk: int) -> dict | None:
    """A topk+rest frame when the off-top logits share one value, else None."""
    if len(logits) <= topk:
        return None
    order = sorted(range(len(logits)), key=lambda i: (-logits[i], i))
    head, tail = order[:topk], order[topk:]
    rest = logits[tail[0]]
    if any(logits[i] != rest for i in tail):
        return None
    return {
        "type": "logits",
        "id": frame_id,
        "topk": [[i, logits[i]] for i in sorted(head)],
        "rest": rest,
    }


class StubSession:
    """The server side of one connection, answering with a local scorer.

    A ``score`` frame is answered from its own tokens with ``dense``
    numbers. An ``extend`` frame grows the session's prefix, so each id is
    checked once, and is answered with ``f64`` bytes; one that cannot be
    resolved poisons the prefix (``None``) until an ``extend`` with
    ``keep == 0`` starts it afresh. ``sparse_topk`` answers with topk+rest
    instead whenever the off-top logits share one exact value.
    """

    def __init__(self, scorer: Scorer, sparse_topk: int | None = None):
        self.scorer = scorer
        self.sparse_topk = sparse_topk
        self.prefix: TokenPrefix | None = TokenPrefix(scorer.vocab.size)

    def step(self, frame) -> dict:
        """Answer one client frame; never raises.

        Malformed input produces an error frame (with the request id when
        one is recoverable), so a bad request can never yield wrong logits.
        """
        if not isinstance(frame, dict):
            return _error_frame(None, "frame must be a JSON object")
        frame_id = frame.get("id")
        if type(frame_id) is not int:
            frame_id = None
        kind = frame.get("type")
        if kind == "extend":
            try:
                prefix = self._extend(frame_id, frame.get("keep"), frame.get("tokens"))
            except ValueError as exc:
                self.prefix = None
                return _error_frame(frame_id, f"{exc} (session reset: the next extend needs keep 0)")
        elif kind == "score":
            if frame_id is None:
                return _error_frame(None, "score frame needs an integer id")
            prefix = frame.get("tokens")
            if not _is_id_list(prefix):
                return _error_frame(frame_id, "tokens must be a list of integers")
        else:
            return _error_frame(frame_id, f"unsupported frame type {kind!r}")
        try:
            logits = np.asarray(self.scorer.score(prefix), dtype=np.float64)
            if logits.shape != (self.scorer.vocab.size,) or not np.isfinite(logits).all():
                raise ValueError(f"scorer returned unusable logits of shape {logits.shape}")
        except Exception as exc:
            return _error_frame(frame_id, str(exc))
        if self.sparse_topk is not None:
            sparse = _sparse_response(frame_id, logits.tolist(), self.sparse_topk)
            if sparse is not None:
                return sparse
        if kind == "score":
            return {"type": "logits", "id": frame_id, "dense": [float(x) for x in logits]}
        return {"type": "logits", "id": frame_id, "f64": encode_f64(logits)}

    def _extend(self, frame_id, keep, tokens) -> TokenPrefix:
        """Make the session prefix its first ``keep`` ids plus ``tokens``;
        raises ValueError when the frame cannot be resolved."""
        if frame_id is None:
            raise ValueError("extend frame needs an integer id")
        if type(keep) is not int or keep < 0:
            raise ValueError(f"keep must be a non-negative integer, got {keep!r}")
        if not _is_id_list(tokens):
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


def stub_server_step(scorer: Scorer, frame) -> dict:
    """Answer one client frame with a local scorer, in a session of its own."""
    return StubSession(scorer).step(frame)


def _hello_frame(scorer: Scorer) -> dict:
    return {"type": "hello", "version": PROTOCOL_VERSION, "vocab_size": scorer.vocab.size}


def _serve_channel(scorer: Scorer, channel: _Channel, reorder_window: int, sparse_topk) -> None:
    channel.send_line(_encode_frame(_hello_frame(scorer)))
    session = StubSession(scorer, sparse_topk)
    pending: list[dict] = []

    def flush():
        # Reversed delivery exercises the client's out-of-order matching.
        for response in reversed(pending):
            channel.send_line(_encode_frame(response))
        pending.clear()

    while True:
        try:
            if pending:
                # A held batch must not outlive a lull in requests, or the
                # tail of a pipelined burst would never be answered.
                line = channel.recv_line(time.monotonic() + 0.05)
            else:
                line = channel.recv_line(None)
        except RemoteTimeoutError:
            flush()
            continue
        except ProtocolError:
            break
        if not line.strip():
            continue
        try:
            frame = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            channel.send_line(_encode_frame(_error_frame(None, f"bad frame: {exc}")))
            continue
        response = session.step(frame)
        if reorder_window <= 1:
            channel.send_line(_encode_frame(response))
        else:
            pending.append(response)
            if len(pending) >= reorder_window:
                flush()
    flush()


class StubServer:
    """TCP server exposing a local scorer over the wire protocol.

    ``reorder_window > 1`` batches that many responses and delivers them in
    reverse, for testing pipelined clients. ``sparse_topk`` answers with
    topk+rest frames whenever the off-top logits share one exact value.
    """

    def __init__(
        self,
        scorer: Scorer,
        host: str = "127.0.0.1",
        port: int = 0,
        reorder_window: int = 1,
        sparse_topk: int | None = None,
    ):
        self.scorer = scorer
        self.reorder_window = reorder_window
        self.sparse_topk = sparse_topk
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen()
        self.host, self.port = self._listener.getsockname()
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
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
            thread.start()
            self._threads.append(thread)

    def _serve_one(self, conn: socket.socket) -> None:
        channel = _socket_channel(conn)
        try:
            _serve_channel(self.scorer, channel, self.reorder_window, self.sparse_topk)
        finally:
            channel.close()

    def stop(self) -> None:
        self._stop.set()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)
        self._listener.close()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info):
        self.stop()


def serve_stdio(scorer: Scorer, stdin=None, stdout=None) -> None:
    """Serve one protocol session over stdio (for subprocess transports)."""
    import sys

    stdin = stdin if stdin is not None else sys.stdin.buffer
    stdout = stdout if stdout is not None else sys.stdout.buffer

    read = stdin.read1 if hasattr(stdin, "read1") else stdin.read

    def send(data: bytes) -> None:
        stdout.write(data)
        stdout.flush()

    channel = _Channel(send, lambda timeout: read(65536), lambda: None, "stdin closed")
    _serve_channel(scorer, channel, reorder_window=1, sparse_topk=None)


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
