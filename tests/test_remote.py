import contextlib
import json
import re
import socket
import struct
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from deltadecode.core import DecodeConfig, Vocabulary, VocabularyMismatchError
from deltadecode.decoder import decode
from deltadecode.remote import (
    PROTOCOL_VERSION,
    HandshakeError,
    ProtocolError,
    RemoteScoreError,
    RemoteScorer,
    RemoteTimeoutError,
    ScorerClient,
    StubServer,
    StubSession,
    _Channel,
    _encode_frame,
    _EXTEND_LINE,
    _extend_line,
    _hello_frame,
    _request_frame,
    _serve_channel,
    _socket_channel,
    connect_endpoint,
    parse_endpoint,
)
from deltadecode.scorers import (
    BigramMatrixScorer,
    ConstantScorer,
    TableScorer,
    build_vocab,
    save_scorer,
    train_ngram,
)


FINITE = st.floats(allow_nan=False, allow_infinity=False)


def demo_scorer():
    vocab = build_vocab([["a", "b", "c"]])
    docs = [[0, 1, 2, 0, 1], [2, 2, 1]]
    return train_ngram(docs, order=2, vocab=vocab, smoothing_k=0.5, name="demo")


def extend(request_id, keep, tokens):
    return {"type": "extend", "id": request_id, "keep": keep, "tokens": tokens}


class TestStubServerStep:
    def test_score_round_trip(self):
        scorer = demo_scorer()
        response, payload = StubSession(scorer).step(extend(7, 0, [0, 1]))
        assert response == {"type": "logits", "id": 7, "nbytes": 8 * scorer.vocab.size}
        assert payload == scorer.score([0, 1]).tobytes()

    def test_constant_scorer_any_prefix(self):
        vocab = build_vocab([["a"]])
        scorer = ConstantScorer(vocab, [1.0, 2.0, 0.0])
        response, payload = StubSession(scorer).step(extend(1, 0, [0, 0]))
        assert response == {"type": "logits", "id": 1, "nbytes": 24}
        assert np.frombuffer(payload, dtype="<f8").tolist() == [1.0, 2.0, 0.0]

    def test_token_out_of_range_yields_error_frame(self):
        response, payload = StubSession(demo_scorer()).step(extend(3, 0, [99]))
        assert response["type"] == "error"
        assert response["id"] == 3
        assert "99" in response["message"]
        assert payload == b""

    def test_missing_id_yields_error_frame(self):
        response, payload = StubSession(demo_scorer()).step({"type": "extend", "keep": 0, "tokens": [0]})
        assert response["type"] == "error"
        assert response["id"] is None
        assert payload == b""

    def test_wrong_type_yields_error_frame(self):
        response = StubSession(demo_scorer()).step({"type": "shutdown", "id": 4})
        assert response == ({"type": "error", "id": 4, "message": "unsupported frame type 'shutdown'"}, b"")

    def test_v1_score_frame_is_unsupported(self):
        # Protocol 3 has no whole-prefix request; the v1 frame is refused.
        session = StubSession(demo_scorer())
        response = session.step({"type": "score", "id": 4, "tokens": [0]})
        assert response == ({"type": "error", "id": 4, "message": "unsupported frame type 'score'"}, b"")
        assert session.step(extend(5, 0, [0]))[0]["type"] == "logits"

    def test_never_raises(self):
        frames = (
            {},
            [],
            {"type": "extend"},
            {"type": "extend", "id": "x", "keep": "y", "tokens": "z"},
            extend(1, 0, [[0]]),
            extend(1, 0, [{"a": 1}]),
        )
        for frame in frames:
            response, payload = StubSession(demo_scorer()).step(frame)
            assert response["type"] == "error"
            assert payload == b""

    def test_boolean_ids_rejected(self):
        # JSON true/false parse to bool, which equals 1/0 and is an int subclass.
        reset = " (session reset: the next extend needs keep 0)"
        response = StubSession(demo_scorer()).step(extend(True, 0, [True, False]))
        assert response == ({"type": "error", "id": None, "message": "extend frame needs an integer id" + reset}, b"")
        response = StubSession(demo_scorer()).step(extend(1, 0, [0, True]))
        assert response == ({"type": "error", "id": 1, "message": "tokens must be a list of integers" + reset}, b"")


class TestTcpTransport:
    def test_handshake_reports_vocab_size(self):
        scorer = demo_scorer()
        with StubServer(scorer) as server:
            with ScorerClient.connect_tcp(server.host, server.port) as client:
                assert client.vocab_size == scorer.vocab.size

    def test_transparency_bitwise(self):
        scorer = demo_scorer()
        rng = np.random.default_rng(60)
        with StubServer(scorer) as server:
            with ScorerClient.connect_tcp(server.host, server.port) as client:
                for _ in range(50):
                    prefix = [int(t) for t in rng.integers(0, scorer.vocab.size, size=rng.integers(1, 6))]
                    local = scorer.score(prefix)
                    remote = client.score_tokens(prefix)
                    assert local.tobytes() == remote.tobytes()

    def test_concurrent_callers_get_their_own(self):
        # Six threads share one client, each with its own multi-id prefixes,
        # so a request's keep is worked out against another thread's prefix.
        # Every row is its caller's, and a request goes out only once the
        # last one's reply was read.
        scorer = trigram_scorer()
        rng = np.random.default_rng(63)
        work = [
            [[int(t) for t in rng.integers(0, scorer.vocab.size, size=int(rng.integers(2, 7)))] for _ in range(25)]
            for _ in range(6)
        ]
        wanted = [[scorer.score(prefix).tobytes() for prefix in prefixes] for prefixes in work]
        counter, in_flight, peak, failures = threading.Lock(), [0], [0], []

        with StubServer(scorer) as server:
            sock = socket.create_connection((server.host, server.port), timeout=5)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            channel = _socket_channel(sock)
            send, recv_exact = channel.send, channel.recv_exact

            def counting_send(data, deadline):
                with counter:
                    in_flight[0] += 1
                    peak[0] = max(peak[0], in_flight[0])
                send(data, deadline)

            def counting_recv_exact(n, deadline):
                payload = recv_exact(n, deadline)
                with counter:
                    in_flight[0] -= 1
                return payload

            channel.send, channel.recv_exact = counting_send, counting_recv_exact
            with ScorerClient(channel, timeout_ms=30_000) as client:

                def worker(prefixes, rows):
                    for prefix, want in zip(prefixes, rows):
                        if client.score_tokens(prefix).tobytes() != want:
                            failures.append(prefix)

                threads = [threading.Thread(target=worker, args=job) for job in zip(work, wanted)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                assert not any(t.is_alive() for t in threads)
        assert not failures
        assert peak == [1]

    def test_remote_scorer_decode_matches_local(self):
        scorer = demo_scorer()
        config = DecodeConfig(mode="sample", max_tokens=8, seed=5)
        local = decode(scorer, prompt=[0], config=config)
        with StubServer(scorer) as server:
            with ScorerClient.connect_tcp(server.host, server.port) as client:
                remote = RemoteScorer(client, scorer.vocab, name="remote")
                got = decode(remote, prompt=[0], config=config)
        assert got.tokens == local.tokens
        assert [s.chosen_logprob for s in got.generated] == [
            s.chosen_logprob for s in local.generated
        ]

    def test_malformed_frame_gets_error_not_logits(self):
        scorer = demo_scorer()
        with StubServer(scorer) as server:
            with socket.create_connection((server.host, server.port), timeout=5) as sock, \
                    sock.makefile("rb") as reader:
                reader.readline()  # hello
                sock.sendall(b"this is not json\n")
                frame = json.loads(reader.readline())
                assert frame["type"] == "error"
                assert frame["id"] is None
                # connection stays usable afterwards
                sock.sendall(b'{"type":"extend","id":1,"keep":0,"tokens":[0]}\n')
                frame = json.loads(reader.readline())
                assert frame == {"type": "logits", "id": 1, "nbytes": 8 * scorer.vocab.size}
                assert reader.read(frame["nbytes"]) == scorer.score([0]).tobytes()

    def test_vocab_size_mismatch_rejected_by_wrapper(self):
        scorer = demo_scorer()
        other_vocab = build_vocab([["x", "y"]])
        with StubServer(scorer) as server:
            with ScorerClient.connect_tcp(server.host, server.port) as client:
                with pytest.raises(VocabularyMismatchError):
                    RemoteScorer(client, other_vocab)

    def test_stop_closes_open_connections(self):
        scorer = demo_scorer()
        with StubServer(scorer) as server:
            with ScorerClient.connect_tcp(server.host, server.port, timeout_ms=5000) as client:
                assert client.score_tokens([0, 1]).tobytes() == scorer.score([0, 1]).tobytes()
                serving = [t for t in threading.enumerate() if "_serve_one" in t.name]
                assert serving
                server.stop()
                with pytest.raises(ProtocolError, match="closed"):
                    client.score_tokens([0, 1])
        assert not any(thread.is_alive() for thread in serving)


    def test_peer_gone_mid_reply_ends_its_connection_quietly(self):
        # A client that sends many requests and resets the connection
        # makes the server's replies fail mid-send; the serving thread
        # ends without an unhandled exception, which the test run would
        # report as an error.
        scorer = demo_scorer()
        frames = b"".join(
            json.dumps({"type": "extend", "id": i, "keep": 0, "tokens": [0, 1]}).encode() + b"\n"
            for i in range(2000)
        )
        with StubServer(scorer) as server:
            sock = socket.create_connection((server.host, server.port), timeout=5)
            sock.recv(1024)
            sock.sendall(frames)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            sock.close()
            deadline = time.monotonic() + 5
            while any("_serve_one" in t.name for t in threading.enumerate()) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not any("_serve_one" in t.name for t in threading.enumerate())

# The fake servers below answer each request with its whole prefix as logits.
def hello(vocab_size):
    return json.dumps({"type": "hello", "version": PROTOCOL_VERSION, "vocab_size": vocab_size}).encode() + b"\n"


HELLO = hello(3)


@contextlib.contextmanager
def fake_server(serve):
    """Accept one TCP connection and run ``serve(conn)`` on it in a thread."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    listener.settimeout(10)

    def run():
        conn, _ = listener.accept()
        with conn:
            serve(conn)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    try:
        yield listener.getsockname()
    finally:
        listener.close()
        thread.join(timeout=10)
    assert not thread.is_alive()


def read_frames(conn, count):
    buffer = b""
    while buffer.count(b"\n") < count:
        chunk = conn.recv(4096)
        if not chunk:
            break
        buffer += chunk
    return [json.loads(line) for line in buffer.splitlines()]


class EchoSession:
    """A fake server's view of one connection's ``extend`` stream."""

    def __init__(self):
        self.prefix = []

    def resolve(self, frames):
        """The id and whole prefix of each frame, in arrival order."""
        requests = []
        for frame in frames:
            self.prefix = self.prefix[: frame["keep"]] + frame["tokens"]
            requests.append((frame["id"], self.prefix))
        return requests


def logits_frame(frame_id, values, **fields):
    """A logits header line (``fields`` override its own) and its float64 payload."""
    payload = np.array(values, dtype="<f8").tobytes()
    header = {"type": "logits", "id": frame_id, "nbytes": len(payload), **fields}
    return json.dumps(header).encode() + b"\n" + payload


def error_frame(frame_id, message):
    return json.dumps({"type": "error", "id": frame_id, "message": message}).encode() + b"\n"


def scripted_client(stream, cuts=(), timeout_ms=5000):
    """A handshaken client whose server's bytes are ``stream``, received in
    chunks split at the offsets ``cuts``, then the end of the stream."""
    bounds = sorted({0, len(stream), *(cut for cut in cuts if 0 < cut < len(stream))})
    chunks = [stream[a:b] for a, b in zip(bounds, bounds[1:])]
    sent = []
    channel = _Channel(
        lambda data, timeout: sent.append(data),
        lambda timeout: chunks.pop(0) if chunks else b"",
        lambda: None,
        "stream ended",
    )
    return ScorerClient(channel, timeout_ms), sent


def answer(requests):
    return b"".join(logits_frame(frame_id, prefix) for frame_id, prefix in requests)


FIRST, SECOND = [0, 1, 2], [2, 1, 0]


def second_caller_waits(reply, timeout_ms=600):
    """Two threads share a client: one scores FIRST, another scores SECOND a
    third of the timeout later, while FIRST is in flight.

    The server reads FIRST's frame, notes two thirds of the timeout later
    whether more bytes have arrived (a client that pipelined SECOND would
    have sent it by then), and then ``reply(conn, session, first)`` answers.
    Returns each call's row, or the error it raised, the client's
    ``late_frames`` and that note.
    """
    in_flight, early = threading.Event(), []

    def serve(conn):
        conn.sendall(HELLO)
        session = EchoSession()
        first = session.resolve(read_frames(conn, 1))
        in_flight.set()
        time.sleep(timeout_ms / 1500)
        conn.setblocking(False)
        try:
            early.append(bool(conn.recv(1, socket.MSG_PEEK)))
        except BlockingIOError:
            early.append(False)
        conn.setblocking(True)
        reply(conn, session, first)
        conn.recv(1024)

    results = {}
    with fake_server(serve) as (host, port):
        with ScorerClient.connect_tcp(host, port, timeout_ms=timeout_ms) as client:

            def call(prefix):
                try:
                    results[tuple(prefix)] = client.score_tokens(prefix).tolist()
                except ProtocolError as exc:
                    results[tuple(prefix)] = exc

            threads = [threading.Thread(target=call, args=(FIRST,))]
            threads[0].start()
            assert in_flight.wait(10)
            time.sleep(timeout_ms / 3000)
            threads.append(threading.Thread(target=call, args=(SECOND,)))
            threads[1].start()
            for thread in threads:
                thread.join(timeout=10)
            late_frames = client.late_frames
    return results[tuple(FIRST)], results[tuple(SECOND)], late_frames, early


class TestHandshakeValidation:
    def assert_rejected(self, hello_line, match=None):
        after_hello = []

        def serve(conn):
            conn.sendall(hello_line)
            conn.settimeout(5)
            try:
                after_hello.append(conn.recv(1024))
            except socket.timeout:
                after_hello.append("still open")

        with fake_server(serve) as (host, port):
            with pytest.raises(HandshakeError, match=match) as excinfo:
                ScorerClient.connect_tcp(host, port, timeout_ms=2000)
        # excinfo keeps the failed call's frames, and so its socket, alive:
        # the peer sees the connection end only if the error path closed it.
        assert after_hello == [b""], excinfo.value

    def test_version_mismatch_names_both(self):
        # A version 2 server would answer with base64 text frames, never raw bytes.
        for version in (1, 2, 4):
            hello = json.dumps({"type": "hello", "version": version, "vocab_size": 7}).encode() + b"\n"
            self.assert_rejected(hello, match=f"version {version}, client supports 3")

    @pytest.mark.parametrize("field", ["version", "vocab_size"])
    def test_boolean_hello_fields_rejected(self, field):
        hello = {"type": "hello", "version": PROTOCOL_VERSION, "vocab_size": 3, field: True}
        self.assert_rejected(json.dumps(hello).encode() + b"\n", match=field)

    def test_missing_vocab_size(self):
        hello = json.dumps({"type": "hello", "version": PROTOCOL_VERSION}).encode() + b"\n"
        self.assert_rejected(hello, match="vocab_size")

    def test_wrong_first_frame(self):
        hello = json.dumps({"type": "logits", "id": 0, "dense": [1.0]}).encode() + b"\n"
        self.assert_rejected(hello)

    def test_timeout_when_server_silent(self):
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        host, port = listener.getsockname()
        try:
            with pytest.raises(RemoteTimeoutError):
                ScorerClient.connect_tcp(host, port, timeout_ms=200)
        finally:
            listener.close()


class TestStdioTransport:
    def test_subprocess_round_trip(self, tmp_path):
        scorer = demo_scorer()
        model_path = tmp_path / "model.json"
        save_scorer(scorer, model_path)
        client = ScorerClient.connect_stdio(
            [
                sys.executable,
                "-m",
                "deltadecode.cli",
                "serve-stub",
                "--model",
                str(model_path),
                "--stdio",
            ]
        )
        with client:
            assert client.vocab_size == scorer.vocab.size
            for prefix in ([0], [1, 2], [2, 0, 1]):
                got = client.score_tokens(prefix)
                assert got.tobytes() == scorer.score(prefix).tobytes()

    @pytest.mark.parametrize(
        "script, error, timeout_ms",
        [
            ("print('{\"type\":\"logits\"}', flush=True); time.sleep(20)", HandshakeError, 5000),
            ("time.sleep(20)", RemoteTimeoutError, 300),
        ],
        ids=["wrong-first-frame", "silent"],
    )
    def test_failed_handshake_reaps_child(self, monkeypatch, script, error, timeout_ms):
        started = []
        real_popen = subprocess.Popen

        def popen(*args, **kwargs):
            started.append(real_popen(*args, **kwargs))
            return started[-1]

        monkeypatch.setattr(subprocess, "Popen", popen)
        begin = time.monotonic()
        try:
            with pytest.raises(error):
                ScorerClient.connect_stdio(
                    [sys.executable, "-c", "import time; " + script], timeout_ms=timeout_ms
                )
            assert time.monotonic() - begin < 10
            assert started[0].poll() is not None
        finally:
            for process in started:
                if process.poll() is None:
                    process.kill()
                    process.wait()


# A prefix whose extend frame (about 400 kB) is far more than a pipe or a
# small socket buffer holds, so its send blocks on a peer that never reads.
LONG_PREFIX = [0] * 200_000


@contextlib.contextmanager
def stdio_client(script, timeout_ms):
    """A client of a child running ``script`` after it wrote a hello for
    three ids; the child is killed on exit."""
    started = []
    real_popen = subprocess.Popen

    def popen(*args, **kwargs):
        started.append(real_popen(*args, **kwargs))
        return started[-1]

    code = f"import os, sys, time; {script}; sys.stdout.buffer.write({HELLO!r}); sys.stdout.flush(); time.sleep(30)"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(subprocess, "Popen", popen)
        client = ScorerClient.connect_stdio([sys.executable, "-c", code], timeout_ms=timeout_ms)
    try:
        yield client
    finally:
        client.close()
        for process in started:
            if process.poll() is None:
                process.kill()
                process.wait()


class TestSendDeadline:
    """One request's deadline covers its send: a peer that never reads
    times it out, a peer that has closed fails it, and either way the
    client refuses every later request, since the frame may be part sent."""

    def assert_refuses_later_calls(self, client, why):
        begin = time.monotonic()
        with pytest.raises(ProtocolError, match="out of frame: " + why) as excinfo:
            client.score_tokens([0])
        assert time.monotonic() - begin < 0.1
        assert not isinstance(excinfo.value, RemoteTimeoutError)

    def test_stdio_child_that_never_reads(self):
        with stdio_client("pass", timeout_ms=200) as client:
            begin = time.monotonic()
            with pytest.raises(RemoteTimeoutError, match="not sent within 200 ms"):
                client.score_tokens(LONG_PREFIX)
            assert time.monotonic() - begin < 1.0
            self.assert_refuses_later_calls(client, "a request was not sent")

    def test_stdio_child_that_closed_its_input(self):
        with stdio_client("os.close(0)", timeout_ms=5000) as client:
            with pytest.raises(ProtocolError, match="peer closed the stream") as excinfo:
                client.score_tokens(LONG_PREFIX)
            assert type(excinfo.value) is ProtocolError
            self.assert_refuses_later_calls(client, "a request's send failed")

    def test_socket_peer_that_never_reads(self):
        ours, theirs = socket.socketpair()
        ours.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        theirs.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        theirs.sendall(HELLO)
        try:
            client = ScorerClient(_socket_channel(ours), timeout_ms=200)
            # The hello's read left no timeout on the socket that a send
            # could run under: the send sets its own.
            ours.settimeout(None)
            begin = time.monotonic()
            with pytest.raises(RemoteTimeoutError, match="not sent within 200 ms"):
                client.score_tokens(LONG_PREFIX)
            assert time.monotonic() - begin < 1.0
            self.assert_refuses_later_calls(client, "a request was not sent")
        finally:
            ours.close()
            theirs.close()

    def test_normal_exchange_sends_the_same_bytes(self):
        # The deadline changes how a frame is sent, not its bytes.
        stream = HELLO + logits_frame(0, [1.0, 2.0, 3.0]) + logits_frame(1, [3.0, 2.0, 1.0])
        client, sent = scripted_client(stream)
        client.score_tokens([0, 1])
        client.score_tokens([0, 1, 2])
        assert sent == [
            b'{"type":"extend","id":0,"keep":0,"tokens":[0,1]}\n',
            b'{"type":"extend","id":1,"keep":2,"tokens":[2]}\n',
        ]


class TestClosedClient:
    """After ``close`` every request raises ``ProtocolError`` before it
    touches the transport, and closing again does nothing."""

    def assert_closed(self, client):
        client.close()
        for _ in range(2):
            with pytest.raises(ProtocolError, match="client is closed") as excinfo:
                client.score_tokens([0, 1])
            assert type(excinfo.value) is ProtocolError
            client.close()

    def test_tcp(self):
        scorer = demo_scorer()
        with StubServer(scorer) as server:
            client = ScorerClient.connect_tcp(server.host, server.port)
            assert client.score_tokens([0, 1]).tobytes() == scorer.score([0, 1]).tobytes()
            self.assert_closed(client)

    def test_stdio(self, tmp_path):
        scorer = demo_scorer()
        save_scorer(scorer, tmp_path / "demo.json")
        command = [sys.executable, "-m", "deltadecode.cli", "serve-stub", "--model", str(tmp_path / "demo.json"), "--stdio"]
        client = ScorerClient.connect_stdio(command)
        assert client.score_tokens([0, 1]).tobytes() == scorer.score([0, 1]).tobytes()
        self.assert_closed(client)

    def test_nothing_is_sent(self):
        client, sent = scripted_client(HELLO + logits_frame(0, [1.0, 2.0, 3.0]))
        self.assert_closed(client)
        assert sent == [] and client.requests == 0


class TestTrafficCounters:
    def test_counts_the_frames_of_each_request(self):
        replies = [logits_frame(0, [1.0, 2.0, 3.0]), error_frame(1, "no"), logits_frame(2, [3.0, 2.0, 1.0])]
        client, sent = scripted_client(HELLO + b"".join(replies))
        client.score_tokens([0, 1])
        assert (client.requests, client.bytes_sent, client.bytes_received) == (1, len(sent[0]), len(replies[0]))
        with pytest.raises(RemoteScoreError):
            client.score_tokens([0, 1, 2])
        client.score_tokens([2])
        assert client.requests == 3
        assert client.bytes_sent == sum(map(len, sent))
        assert client.bytes_received == sum(map(len, replies))
        assert client.late_frames == 0

    def test_a_late_reply_counts_as_received(self):
        replies = logits_frame(0, [1.0, 2.0, 3.0]) + logits_frame(1, [3.0, 2.0, 1.0])
        chunks = [HELLO, None, replies]

        def recv(timeout):
            chunk = chunks.pop(0)
            if chunk is None:
                raise TimeoutError
            return chunk

        client = ScorerClient(_Channel(lambda data, timeout: None, recv, lambda: None, "stream ended"))
        with pytest.raises(RemoteTimeoutError):
            client.score_tokens([0])
        assert client.score_tokens([1]).tolist() == [3.0, 2.0, 1.0]
        assert (client.requests, client.late_frames, client.bytes_received) == (2, 1, len(replies))


class TestLineFraming:
    @pytest.mark.parametrize("split", [1, len(HELLO) // 2, len(HELLO) - 1])
    def test_split_hello_and_coalesced_responses(self, split):
        def serve(conn):
            conn.sendall(HELLO[:split])
            time.sleep(0.05)
            conn.sendall(HELLO[split:])
            session = EchoSession()
            requests = [session.resolve(read_frames(conn, 1))[0] for _ in range(3)]
            # The first two requests, which timed out, are answered in the
            # same send as the third.
            conn.sendall(answer(requests))
            conn.recv(1024)

        with fake_server(serve) as (host, port):
            with ScorerClient.connect_tcp(host, port, timeout_ms=300) as client:
                assert client.vocab_size == 3
                for prefix in ([0, 1, 2], [1, 1, 0]):
                    with pytest.raises(RemoteTimeoutError):
                        client.score_tokens(prefix)
                assert client.score_tokens([2, 2, 1]).tolist() == [2.0, 2.0, 1.0]
                assert client.late_frames == 2

    def test_peer_closing_mid_session(self):
        def serve(conn):
            conn.sendall(HELLO)
            read_frames(conn, 1)

        with fake_server(serve) as (host, port):
            with ScorerClient.connect_tcp(host, port, timeout_ms=5000) as client:
                with pytest.raises(ProtocolError, match="closed") as excinfo:
                    client.score_tokens([0])
        assert not isinstance(excinfo.value, RemoteTimeoutError)

    def test_peer_closing_mid_payload(self):
        def serve(conn):
            conn.sendall(HELLO)
            read_frames(conn, 1)
            conn.sendall(logits_frame(0, [1.0, 2.0, 3.0])[:-5])

        with fake_server(serve) as (host, port):
            with ScorerClient.connect_tcp(host, port, timeout_ms=5000) as client:
                with pytest.raises(ProtocolError, match="closed") as excinfo:
                    client.score_tokens([0])
        assert type(excinfo.value) is ProtocolError

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_any_chunking_decodes_like_scorer(self, data):
        # Rows of 0x0a bytes put newlines inside payloads, which only a
        # length-framed read gets past.
        newlines = np.frombuffer(b"\n" * 8, dtype="<f8")[0]
        row = st.lists(FINITE | st.just(newlines), min_size=3, max_size=3)
        vocab = build_vocab([["a"]])
        scorer = BigramMatrixScorer(vocab, np.array(data.draw(st.lists(row, min_size=3, max_size=3))))
        prefixes = data.draw(st.lists(st.lists(st.integers(0, 2), min_size=1, max_size=4), min_size=1, max_size=6))
        failing = data.draw(st.sets(st.sampled_from(range(len(prefixes)))))
        frames = [hello(3)] + [
            error_frame(i, f"no row {i}") if i in failing else logits_frame(i, scorer.score(prefixes[i]))
            for i in range(len(prefixes))
        ]
        stream = b"".join(frames)
        # Cut anywhere, and also right at, before or after every header's end.
        ends = [stream.index(b"\n", start) + 1 for start in np.cumsum([0] + list(map(len, frames[:-1])))]
        near = st.sampled_from(ends).flatmap(lambda end: st.integers(end - 1, end + 1))
        cuts = data.draw(st.lists(near | st.integers(1, len(stream) - 1), max_size=12))
        client, sent = scripted_client(stream, cuts)
        for i, prefix in enumerate(prefixes):
            if i in failing:
                with pytest.raises(RemoteScoreError, match=f"no row {i}"):
                    client.score_tokens(prefix)
            else:
                assert client.score_tokens(prefix).tobytes() == scorer.score(prefix).tobytes()
        assert [json.loads(frame)["id"] for frame in sent] == list(range(len(prefixes)))


class TestResponseIds:
    @pytest.mark.parametrize("frame_id", [99, "0", [0], {"id": 0}, False])
    def test_unknown_response_id_is_protocol_error(self, frame_id):
        def serve(conn):
            conn.sendall(HELLO)
            read_frames(conn, 1)
            conn.sendall(logits_frame(frame_id, [0.0, 0.0, 0.0]))
            conn.recv(1024)

        with fake_server(serve) as (host, port):
            with ScorerClient.connect_tcp(host, port, timeout_ms=5000) as client:
                with pytest.raises(ProtocolError, match="unknown request id"):
                    client.score_tokens([0])

    def test_reply_naming_the_waiting_caller_is_protocol_error(self):
        # FIRST's request is 0, and its answer is labelled 1: the id that
        # SECOND's request takes once it is sent.
        def reply(conn, session, first):
            conn.sendall(logits_frame(1, first[0][1]))
            conn.sendall(answer(session.resolve(read_frames(conn, 1))))

        first, second, late_frames, early = second_caller_waits(reply)
        assert type(first) is ProtocolError and "unknown request id 1" in str(first)
        assert second == [2.0, 1.0, 0.0]
        assert late_frames == 0 and early == [False]


class TestReplyFormat:
    @pytest.mark.parametrize(
        "reply",
        [
            {"dense": [0.0, 1.0, 2.0]},
            {"dense": ["1.5", True, False]},
            {"topk": [[0, 2.5]], "rest": 0.0},
            {},
        ],
        ids=["dense", "dense-not-numbers", "topk", "empty"],
    )
    def test_logits_without_f64_rejected(self, reply):
        # A logits frame must announce its float64 payload in nbytes.
        def serve(conn):
            conn.sendall(HELLO)
            (frame,) = read_frames(conn, 1)
            conn.sendall(json.dumps({"type": "logits", "id": frame["id"], **reply}).encode() + b"\n")
            conn.recv(1024)

        with fake_server(serve) as (host, port):
            with ScorerClient.connect_tcp(host, port, timeout_ms=5000) as client:
                with pytest.raises(ProtocolError, match="nbytes None, expected 24") as excinfo:
                    client.score_tokens([0])
        assert type(excinfo.value) is ProtocolError

    @pytest.mark.parametrize(
        "nbytes", [16, 32, True, 24.0, "24", None], ids=["too-small", "too-large", "true", "float", "string", "null"]
    )
    def test_bad_nbytes_rejected_and_nothing_more_read(self, nbytes):
        # The right payload follows, then a good reply: a client that read
        # on after a bad header would decode the second request.
        stream = HELLO + logits_frame(0, [1.0, 2.0, 3.0], nbytes=nbytes) + logits_frame(1, [4.0, 5.0, 6.0])
        client, _ = scripted_client(stream)
        for prefix in ([0], [1]):
            with pytest.raises(ProtocolError, match=f"nbytes {nbytes!r}, expected 24") as excinfo:
                client.score_tokens(prefix)
            assert type(excinfo.value) is ProtocolError

    def test_logits_are_an_owned_writable_copy(self):
        client, _ = scripted_client(HELLO + logits_frame(0, [1.0, 2.0, 3.0]))
        logits = client.score_tokens([0])
        assert logits.flags.owndata and logits.flags.writeable
        assert logits.dtype == np.float64 and logits.tolist() == [1.0, 2.0, 3.0]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_payload_rejected(self, bad):
        stream = HELLO + logits_frame(0, [1.0, bad, 3.0]) + logits_frame(1, [4.0, 5.0, 6.0])
        client, _ = scripted_client(stream)
        with pytest.raises(RemoteScoreError, match="non-finite"):
            client.score_tokens([0])
        assert client.score_tokens([1]).tolist() == [4.0, 5.0, 6.0]


class TestLateFrames:
    def test_timed_out_request_is_retired(self):
        def reply(conn, session, first):
            # FIRST is answered only once SECOND arrives, after FIRST's deadline.
            conn.sendall(answer(first + session.resolve(read_frames(conn, 1))))

        first, second, late_frames, early = second_caller_waits(reply)
        assert isinstance(first, RemoteTimeoutError)
        assert second == [2.0, 1.0, 0.0]
        assert late_frames == 1 and early == [False]

    def test_stall_mid_payload_retires_id(self):
        def reply(conn, session, first):
            stalled = answer(first)
            # The header and part of the payload, then a stall past FIRST's
            # deadline; the rest comes ahead of SECOND's answer.
            conn.sendall(stalled[:-10])
            conn.sendall(stalled[-10:] + answer(session.resolve(read_frames(conn, 1))))

        first, second, late_frames, early = second_caller_waits(reply)
        assert isinstance(first, RemoteTimeoutError)
        assert second == [2.0, 1.0, 0.0]
        assert late_frames == 1 and early == [False]

    def test_timeouts_under_thread_contention(self):
        # The transport hands over the first reply only when released, which
        # keeps the first caller's request in flight past a second caller's
        # deadline. The second times out waiting for the connection, before
        # it takes a request id or sends a frame.
        waiting, release = threading.Event(), threading.Event()
        chunks = [HELLO, logits_frame(0, [0.0, 1.0, 2.0]) + logits_frame(1, [2.0, 1.0, 0.0])]

        def recv(timeout):
            if len(chunks) == 1:
                waiting.set()
                release.wait(10)
            return chunks.pop(0) if chunks else b""

        sent = []
        channel = _Channel(lambda data, timeout: sent.append(data), recv, lambda: None, "stream ended")
        client = ScorerClient(channel, timeout_ms=200)
        first = []
        holder = threading.Thread(target=lambda: first.append(client.score_tokens([0]).tolist()))
        holder.start()
        try:
            assert waiting.wait(10)
            with pytest.raises(RemoteTimeoutError, match="another request held the connection"):
                client.score_tokens([1])
            assert len(sent) == 1
        finally:
            release.set()
            holder.join(timeout=10)
        assert first == [[0.0, 1.0, 2.0]]
        assert client.score_tokens([2]).tolist() == [2.0, 1.0, 0.0]
        assert [json.loads(frame)["id"] for frame in sent] == [0, 1]
        assert client.late_frames == 0


class TestEndpoints:
    def test_parse_tcp(self):
        assert parse_endpoint("tcp:localhost:9000") == ("tcp", "localhost", 9000)

    def test_parse_stdio(self):
        kind, command = parse_endpoint("stdio:python -m server --flag")
        assert kind == "stdio"
        assert command == ["python", "-m", "server", "--flag"]

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            parse_endpoint("grpc:host:1")

    @pytest.mark.parametrize("timeout_ms", [0, -5, float("nan"), True, 2.5])
    @pytest.mark.parametrize("transport", ["tcp", "stdio", "channel"])
    def test_bad_timeout_rejected_before_any_transport(self, monkeypatch, transport, timeout_ms):
        opened, closed = [], []
        monkeypatch.setattr(socket, "create_connection", lambda *args, **kwargs: opened.append(args))
        monkeypatch.setattr(subprocess, "Popen", lambda *args, **kwargs: opened.append(args))
        connect = {
            "tcp": lambda: ScorerClient.connect_tcp("127.0.0.1", 9, timeout_ms),
            "stdio": lambda: ScorerClient.connect_stdio([sys.executable, "-c", "pass"], timeout_ms),
            "channel": lambda: ScorerClient(_Channel(None, None, lambda: closed.append(True), ""), timeout_ms),
        }[transport]
        with pytest.raises(ValueError, match=re.escape(f"timeout_ms must be a positive integer, got {timeout_ms!r}")):
            connect()
        assert opened == []
        assert closed == ([True] if transport == "channel" else [])

    def test_connect_endpoint_tcp(self):
        scorer = demo_scorer()
        with StubServer(scorer) as server:
            client = connect_endpoint(f"tcp:{server.host}:{server.port}")
            with client:
                assert client.vocab_size == scorer.vocab.size


def trigram_scorer():
    vocab = build_vocab([["a", "b", "c", "d"]])
    docs = [[0, 1, 2, 3, 0, 2, 1], [3, 3, 1, 0, 2], [2, 0, 1, 3]]
    return train_ngram(docs, order=3, vocab=vocab, smoothing_k=0.3, name="tri")


def constant_session(values):
    vocab = Vocabulary(surface=tuple(f"t{i}" for i in range(len(values))), eos=len(values) - 1)
    return StubSession(ConstantScorer(vocab, values))


class TestF64Codec:
    """The float64 payload: the server's little-endian bytes, the client's decode."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(FINITE, min_size=1, max_size=64))
    @example([-0.0, 0.0, 5e-324, -5e-324, 1.1125369292536007e-308, 1.7976931348623157e308, -1.7976931348623157e308])
    def test_round_trip_is_bitwise(self, values):
        logits = np.array(values, dtype=np.float64)
        header, payload = constant_session(values).step(extend(0, 0, []))
        assert header == {"type": "logits", "id": 0, "nbytes": 8 * len(values)}
        assert payload == logits.astype("<f8").tobytes()
        client, _ = scripted_client(hello(len(values)) + json.dumps(header).encode() + b"\n" + payload)
        got = client.score_tokens([])
        assert got.tobytes() == logits.tobytes()
        assert got.dtype == np.float64 and got.flags.owndata and got.flags.writeable

    @settings(max_examples=100, deadline=None)
    @given(st.lists(FINITE, min_size=1, max_size=16), st.data())
    def test_non_finite_rejected(self, values, data):
        values[data.draw(st.integers(0, len(values) - 1))] = data.draw(
            st.sampled_from([float("nan"), float("inf"), float("-inf")])
        )
        client, _ = scripted_client(hello(len(values)) + logits_frame(0, values))
        with pytest.raises(RemoteScoreError, match="non-finite"):
            client.score_tokens([])

    @settings(max_examples=100, deadline=None)
    @given(st.lists(FINITE, min_size=1, max_size=16), st.integers(-3, 3))
    def test_wrong_length_rejected(self, values, extra):
        # The payload is as long as the header says; the vocabulary is not.
        size = len(values) + (extra or 1)
        assume(size >= 1)
        client, _ = scripted_client(hello(size) + logits_frame(0, values))
        with pytest.raises(ProtocolError, match=f"nbytes {8 * len(values)}, expected {8 * size}"):
            client.score_tokens([])


# JSON text for one field of a request line: any JSON integer, or a value
# the compact extend line never holds.
ODD_VALUES = ["-1", "-0", "+1", "01", "00", "1.0", "1e2", "true", "false", "null", '"1"', " 1", "1 ", "[]"]
JSON_INT = st.integers(0, 2**64).map(str)
SMALL_INT = st.integers(0, 6).map(str)


@st.composite
def request_lines(draw, value=JSON_INT | st.sampled_from(ODD_VALUES)):
    """A request line: an extend frame's fields (or another type's) in any
    order, maybe with one key repeated, with compact or spaced separators."""
    tokens = "[" + draw(st.sampled_from([",", ", "])).join(draw(st.lists(value, max_size=4))) + "]"
    kind = draw(st.sampled_from(['"extend"', '"score"', '"extend" ', "1"]))
    fields = [("type", kind), ("id", draw(value)), ("keep", draw(value)), ("tokens", tokens)]
    fields = draw(st.sampled_from([fields, fields[::-1]]) | st.permutations(fields))
    if draw(st.booleans()):
        fields.insert(draw(st.integers(0, 4)), (draw(st.sampled_from(fields))[0], draw(value)))
    colon, comma = draw(st.sampled_from([":", ": "])), draw(st.sampled_from([",", ", "]))
    return ("{" + comma.join(f'"{key}"{colon}{text}' for key, text in fields) + "}").encode()


def canonical_lines():
    """An extend line as the client writes it, without its newline."""
    ids = st.integers(0, 6)
    keeps = st.just(0) | ids
    return st.builds(lambda *fields: _extend_line(*fields)[:-1], ids, keeps, st.lists(st.integers(0, 4), max_size=4))


def reference_replies(scorer, lines):
    """The server's replies to ``lines``, each read by ``json.loads`` and
    answered with ``_encode_frame`` of the header and then the payload."""
    session, replies = StubSession(scorer), [_encode_frame(_hello_frame(scorer))]
    for line in lines:
        try:
            frame = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            replies.append(_encode_frame({"type": "error", "id": None, "message": f"bad frame: {exc}"}))
            continue
        header, payload = session.step(frame)
        replies.append(_encode_frame(header) + bytes(payload))
    return replies


def served_replies(scorer, lines):
    """What ``_serve_channel`` sends for ``lines``, one entry per frame."""
    chunks, replies = [b"".join(line + b"\n" for line in lines)], []
    channel = _Channel(
        None,
        lambda timeout: chunks.pop() if chunks else b"",
        lambda: None,
        "stream ended",
        lambda header, payload: replies.append(header + bytes(payload)),
    )
    _serve_channel(scorer, channel)
    return replies


class TestCompactCodecs:
    """Each end writes and recognises the compact frames of a normal
    exchange field by field; every byte is what the JSON codec gives."""

    @settings(max_examples=300)
    @given(st.integers(0, 2**63), st.integers(0, 2**63), st.lists(st.integers(0, 2**63)))
    @example(0, 0, [])
    @example(2**63, 2**63, [2**63, 0])
    def test_client_writer_equals_encode_frame(self, request_id, keep, tokens):
        assert _extend_line(request_id, keep, tokens) == _encode_frame(extend(request_id, keep, tokens))

    @settings(max_examples=300)
    @given(st.data())
    def test_header_recogniser_equals_parse_line(self, data):
        client, _ = scripted_client(HELLO)
        request_id = data.draw(st.integers(0, 3))
        value = st.sampled_from([request_id, 24, 0, 1, True, None, 24.0, "24", -1, 2**70])
        header = data.draw(
            st.fixed_dictionaries({"type": st.sampled_from(["logits", "error", "hello"]), "id": value, "nbytes": value})
        )
        keys = data.draw(st.permutations(list(header)))
        separators = data.draw(st.sampled_from([(",", ":"), (", ", ": "), (",", ": ")]))
        line = json.dumps({key: header[key] for key in keys}, separators=separators).encode()
        line = data.draw(st.sampled_from([line, line + b" ", b" " + line]))
        got = client._header_frame(line, request_id)
        assert repr(got) == repr(ScorerClient._parse_line(line))

    def test_header_recogniser_rejects_what_parse_line_rejects(self):
        client, _ = scripted_client(HELLO)
        for line in (b'{"type":"logits","id":0,"nbytes":24', b"[]", b"\xff"):
            with pytest.raises(ProtocolError) as want:
                ScorerClient._parse_line(line)
            with pytest.raises(ProtocolError, match=re.escape(str(want.value))):
                client._header_frame(line, 0)

    @settings(max_examples=500)
    @given(request_lines() | canonical_lines())
    @example(b'{"type":"extend","id":0,"keep":0,"tokens":[]}')
    @example(b'{"type":"extend","id":00,"keep":0,"tokens":[]}')
    @example(b'{"type":"extend","id":-0,"keep":0,"tokens":[1]}')
    @example(b'{"type":"extend","id":1,"keep":0,"tokens":[1],"id":2}')
    def test_server_reader_accepts_only_what_json_reads_alike(self, line):
        try:
            want = json.loads(line.decode("utf-8"))
        except json.JSONDecodeError as exc:
            assert _EXTEND_LINE.fullmatch(line) is None
            with pytest.raises(json.JSONDecodeError, match=re.escape(str(exc))):
                _request_frame(line)
            return
        assert repr(_request_frame(line)) == repr(want)
        if _EXTEND_LINE.fullmatch(line) is not None:
            assert line == _extend_line(want["id"], want["keep"], want["tokens"])[:-1]

    @pytest.mark.parametrize("separator", [b",", b", "], ids=["compact", "spaced"])
    def test_overlong_integer_earns_an_error_frame(self, separator):
        """An id past ``int``'s 4300-digit limit is a bad frame, read by
        ``_EXTEND_LINE`` or ``json.loads``, and the connection serves on."""
        bad = separator.join([b'{"type":"extend"', b'"id":' + b"9" * 5000, b'"keep":0', b'"tokens":[]}'])
        good = _extend_line(1, 0, [0])[:-1]
        with pytest.raises(ValueError) as reading:
            int("9" * 5000)
        hello_line, error, logits = served_replies(demo_scorer(), [bad, good])
        assert json.loads(error) == {"type": "error", "id": None, "message": f"bad frame: {reading.value}"}
        assert logits == served_replies(demo_scorer(), [good])[1]

    def test_overlong_integer_from_server_is_a_protocol_error(self):
        client, _ = scripted_client(HELLO)
        line = b'{"type":"logits","id":' + b"9" * 5000 + b',"nbytes":24}'
        with pytest.raises(ProtocolError, match="^malformed frame from server: Exceeds the limit"):
            client._header_frame(line, 0)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(request_lines(SMALL_INT | st.sampled_from(ODD_VALUES)) | canonical_lines(), max_size=8))
    def test_server_replies_like_json_loads(self, lines):
        scorer = demo_scorer()
        assert served_replies(scorer, lines) == reference_replies(scorer, lines)


class TestExtendSession:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_extend_stream_equals_full_frames(self, data):
        scorer = trigram_scorer()
        size = scorer.vocab.size
        session = StubSession(scorer)
        model: list[int] = []
        for request_id in range(data.draw(st.integers(1, 12))):
            keep = data.draw(st.integers(0, len(model)))
            tokens = data.draw(st.lists(st.integers(0, size - 1), max_size=5))
            model = model[:keep] + tokens
            response, payload = session.step(extend(request_id, keep, tokens))
            assert list(session.prefix) == model
            assert response == {"type": "logits", "id": request_id, "nbytes": 8 * size}
            assert payload == scorer.score(model).tobytes()

    @pytest.mark.parametrize(
        "bad, message",
        [
            (extend(5, 3, [0]), "keep 3 exceeds the session's 2 ids"),
            (extend(5, 2, [99]), "position 2: token id 99 outside"),
            (extend(5, 2, [-1]), "position 2: token id -1 outside"),
            (extend(5, 2, [1.5]), "tokens must be a list of integers"),
            (extend(5, 2, [True]), "tokens must be a list of integers"),
            (extend(5, 2, ["0"]), "tokens must be a list of integers"),
            (extend(5, 2, "01"), "tokens must be a list of integers"),
            (extend(5, -1, [0]), "keep must be a non-negative integer"),
            (extend(5, True, [0]), "keep must be a non-negative integer"),
            (extend(5, None, [0]), "keep must be a non-negative integer"),
            (extend(None, 2, [0]), "extend frame needs an integer id"),
            (extend(True, 2, [0]), "extend frame needs an integer id"),
        ],
    )
    def test_unresolvable_frame_poisons_session(self, bad, message):
        scorer = trigram_scorer()
        session = StubSession(scorer)
        assert session.step(extend(1, 0, [0, 1]))[0]["type"] == "logits"
        response, payload = session.step(bad)
        assert response["type"] == "error" and message in response["message"] and payload == b""
        assert response["id"] == (5 if type(bad["id"]) is int else None)
        assert session.prefix is None
        for keep in (2, 1):
            response, _ = session.step(extend(6, keep, [2]))
            assert response["type"] == "error" and "reset" in response["message"]
        response, payload = session.step(extend(7, 0, [0, 1, 2]))
        assert response == {"type": "logits", "id": 7, "nbytes": 8 * scorer.vocab.size}
        assert payload == scorer.score([0, 1, 2]).tobytes()
        assert list(session.prefix) == [0, 1, 2]

    def test_scorer_failure_keeps_session(self):
        vocab = build_vocab([["a"]])
        session = StubSession(TableScorer(vocab, {(0,): [0.0, 1.0, 2.0]}))
        response, _ = session.step(extend(0, 0, [1]))
        assert response["type"] == "error" and "reset" not in response["message"]
        assert list(session.prefix) == [1]
        response, payload = session.step(extend(1, 0, [0]))
        assert response == {"type": "logits", "id": 1, "nbytes": 24}
        assert np.frombuffer(payload, dtype="<f8").tolist() == [0.0, 1.0, 2.0]


class TestProtocolV2:
    def test_long_decode_sends_one_token_per_frame(self, monkeypatch):
        frames = []
        step = StubSession.step

        def recording_step(self, frame):
            response = step(self, frame)
            frames.append((frame, response))
            return response

        monkeypatch.setattr(StubSession, "step", recording_step)
        corpus = [[i % 4 for i in range(j, j + 40)] + [j % 4, (j + 2) % 4] for j in range(4)]
        base, expert, expert_base = (
            train_ngram(corpus, 3, build_vocab([["a", "b", "c", "d"]]), smoothing_k=k, append_eos=False)
            for k in (0.05, 0.1, 0.2)
        )
        prompt = [0, 1, 2]
        config = DecodeConfig(mode="sample", max_tokens=1200, top_p=0.9, seed=3)
        local = decode(base, expert, expert_base, prompt=prompt, config=config)
        with StubServer(base) as server:
            with ScorerClient.connect_tcp(server.host, server.port) as client:
                remote = RemoteScorer(client, base.vocab, name="remote")
                got = decode(remote, expert, expert_base, prompt=prompt, config=config)
        assert len(local.generated) == 1200
        assert got.tokens == local.tokens
        assert [s.chosen_logprob.hex() for s in got.generated] == [
            s.chosen_logprob.hex() for s in local.generated
        ]
        assert len(frames) == 1200
        assert frames[0][0] == extend(0, 0, prompt)
        for request_id, (frame, response) in enumerate(frames[1:], start=1):
            assert frame == extend(request_id, len(prompt) + request_id - 1, [got.tokens[request_id - 1]])
            header, payload = response
            assert header == {"type": "logits", "id": request_id, "nbytes": 8 * base.vocab.size}
            assert len(payload) == 8 * base.vocab.size

    def test_keep_tracks_prefix_stream(self, monkeypatch):
        frames = []
        step = StubSession.step
        monkeypatch.setattr(StubSession, "step", lambda self, frame: frames.append(frame) or step(self, frame))
        scorer = trigram_scorer()
        rng = np.random.default_rng(62)
        prefix: list[int] = []
        keeps = []
        with StubServer(scorer) as server:
            with ScorerClient.connect_tcp(server.host, server.port) as client:
                for _ in range(200):
                    keep = int(rng.integers(0, len(prefix) + 1))
                    tail = [int(t) for t in rng.integers(0, scorer.vocab.size, size=int(rng.integers(0, 4)))]
                    previous, prefix = prefix, prefix[:keep] + tail
                    shared = next(
                        (i for i, (a, b) in enumerate(zip(previous, prefix)) if a != b),
                        min(len(previous), len(prefix)),
                    )
                    keeps.append(shared)
                    assert client.score_tokens(prefix).tobytes() == scorer.score(prefix).tobytes()
        assert [frame["keep"] for frame in frames] == keeps

    def test_client_restarts_session_after_error(self, monkeypatch):
        frames = []
        step = StubSession.step
        monkeypatch.setattr(StubSession, "step", lambda self, frame: frames.append(frame) or step(self, frame))
        scorer = trigram_scorer()
        with StubServer(scorer) as server:
            with ScorerClient.connect_tcp(server.host, server.port) as client:
                assert client.score_tokens([0, 1]).tobytes() == scorer.score([0, 1]).tobytes()
                with pytest.raises(RemoteScoreError, match="outside vocabulary"):
                    client.score_tokens([0, 1, 99])
                assert client.score_tokens([0, 1, 2]).tobytes() == scorer.score([0, 1, 2]).tobytes()
                assert client.score_tokens([0, 1, 2, 3]).tobytes() == scorer.score([0, 1, 2, 3]).tobytes()
        assert [(f["keep"], f["tokens"]) for f in frames] == [(0, [0, 1]), (2, [99]), (0, [0, 1, 2]), (3, [3])]

    @pytest.mark.parametrize("bad", [1.5, "0", None])
    def test_client_rejects_non_integer_ids(self, bad):
        with StubServer(demo_scorer()) as server:
            with ScorerClient.connect_tcp(server.host, server.port) as client:
                with pytest.raises(VocabularyMismatchError, match=f"position 1: token id {bad!r} is not an integer"):
                    client.score_tokens([0, bad])
                assert client.score_tokens([np.int64(1)]).tobytes() == demo_scorer().score([1]).tobytes()


def wide_scorer():
    """V = 16384, so one reply's payload (128 KB) spans several 64 KB reads."""
    vocab = build_vocab([[f"t{i}" for i in range(16382)]])
    rng = np.random.default_rng(64)
    docs = [[int(t) for t in rng.integers(0, 64, size=400)] for _ in range(4)]
    return train_ngram(docs, 2, vocab, smoothing_k=0.01, name="wide")


class TestWideReplies:
    CONFIG = DecodeConfig(mode="sample", max_tokens=24, top_p=0.95, seed=9)

    def assert_decodes_like_local(self, scorer, client):
        assert client.vocab_size == 16384
        local = decode(scorer, prompt=[0, 1], config=self.CONFIG)
        got = decode(RemoteScorer(client, scorer.vocab), prompt=[0, 1], config=self.CONFIG)
        assert got.tokens == local.tokens
        assert [s.chosen_logprob.hex() for s in got.generated] == [s.chosen_logprob.hex() for s in local.generated]
        assert client.score_tokens(list(local.tokens)).tobytes() == scorer.score(local.tokens).tobytes()

    def test_tcp(self):
        scorer = wide_scorer()
        with StubServer(scorer) as server:
            with ScorerClient.connect_tcp(server.host, server.port, timeout_ms=30_000) as client:
                self.assert_decodes_like_local(scorer, client)

    def test_stdio(self, tmp_path):
        scorer = wide_scorer()
        save_scorer(scorer, tmp_path / "wide.json")
        command = [sys.executable, "-m", "deltadecode.cli", "serve-stub", "--model", str(tmp_path / "wide.json"), "--stdio"]
        with ScorerClient.connect_stdio(command, timeout_ms=30_000) as client:
            self.assert_decodes_like_local(scorer, client)
