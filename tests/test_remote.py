import contextlib
import json
import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from deltadecode.core import DecodeConfig, VocabularyMismatchError
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
    connect_endpoint,
    densify,
    parse_endpoint,
    stub_server_step,
)
from deltadecode.scorers import BigramMatrixScorer, ConstantScorer, build_vocab, train_ngram


def demo_scorer():
    vocab = build_vocab([["a", "b", "c"]])
    docs = [[0, 1, 2, 0, 1], [2, 2, 1]]
    return train_ngram(docs, order=2, vocab=vocab, smoothing_k=0.5, name="demo")


class TestSparseLogits:
    def test_densify_worked_example(self):
        dense = densify(((5, 3.2), (9, 1.1)), -10.0, 12)
        expected = np.full(12, -10.0)
        expected[5] = 3.2
        expected[9] = 1.1
        np.testing.assert_array_equal(dense, expected)

    def test_duplicate_id_rejected(self):
        with pytest.raises(RemoteScoreError):
            densify(((1, 2.0), (1, 3.0)), 0.0, 4)

    def test_out_of_range_id_rejected(self):
        with pytest.raises(RemoteScoreError):
            densify(((9, 2.0),), 0.0, 4)

    def test_non_finite_rejected(self):
        with pytest.raises(RemoteScoreError):
            densify(((0, float("nan")),), 0.0, 4)
        with pytest.raises(RemoteScoreError):
            densify(((0, 1.0),), float("inf"), 4)


class TestStubServerStep:
    def test_score_round_trip(self):
        scorer = demo_scorer()
        frame = {"type": "score", "id": 7, "tokens": [0, 1]}
        response = stub_server_step(scorer, frame)
        assert response["type"] == "logits"
        assert response["id"] == 7
        np.testing.assert_array_equal(np.array(response["dense"]), scorer.score([0, 1]))

    def test_constant_scorer_any_prefix(self):
        vocab = build_vocab([["a"]])
        scorer = ConstantScorer(vocab, [1.0, 2.0, 0.0])
        response = stub_server_step(scorer, {"type": "score", "id": 1, "tokens": [0, 0]})
        assert response["dense"] == [1.0, 2.0, 0.0]

    def test_token_out_of_range_yields_error_frame(self):
        response = stub_server_step(demo_scorer(), {"type": "score", "id": 3, "tokens": [99]})
        assert response["type"] == "error"
        assert response["id"] == 3
        assert "99" in response["message"]

    def test_missing_id_yields_error_frame(self):
        response = stub_server_step(demo_scorer(), {"type": "score", "tokens": [0]})
        assert response["type"] == "error"
        assert response["id"] is None

    def test_wrong_type_yields_error_frame(self):
        response = stub_server_step(demo_scorer(), {"type": "shutdown", "id": 4})
        assert response["type"] == "error"

    def test_never_raises(self):
        for frame in ({}, {"type": "score"}, {"type": "score", "id": "x", "tokens": "y"}):
            response = stub_server_step(demo_scorer(), frame)
            assert response["type"] == "error"


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

    def test_pipelined_out_of_order_delivery(self):
        scorer = demo_scorer()
        with StubServer(scorer, reorder_window=4) as server:
            with ScorerClient.connect_tcp(server.host, server.port) as client:
                prefixes = [[0], [1], [2], [0, 1], [1, 2], [2, 0], [0, 0], [1, 1]]
                ids = [client.submit(p) for p in prefixes]
                for request_id, prefix in zip(ids, prefixes):
                    got = client.collect(request_id)
                    assert got.tobytes() == scorer.score(prefix).tobytes()

    def test_concurrent_callers_get_their_own(self):
        scorer = demo_scorer()
        failures = []

        def worker(client, prefix, repeats=25):
            want = scorer.score(prefix).tobytes()
            for _ in range(repeats):
                got = client.score_tokens(prefix)
                if got.tobytes() != want:
                    failures.append(prefix)

        with StubServer(scorer, reorder_window=3) as server:
            with ScorerClient.connect_tcp(server.host, server.port) as client:
                threads = [
                    threading.Thread(target=worker, args=(client, [i % 3]))
                    for i in range(4)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
        assert not failures

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

    def test_sparse_server_transparent(self):
        scorer = demo_scorer()
        with StubServer(scorer, sparse_topk=2) as server:
            with ScorerClient.connect_tcp(server.host, server.port) as client:
                for prefix in ([0], [1], [0, 2]):
                    local = scorer.score(prefix)
                    got = client.score_tokens(prefix)
                    np.testing.assert_array_equal(got, local)

    def test_malformed_frame_gets_error_not_logits(self):
        scorer = demo_scorer()
        with StubServer(scorer) as server:
            sock = socket.create_connection((server.host, server.port), timeout=5)
            try:
                reader = sock.makefile("rb")
                reader.readline()  # hello
                sock.sendall(b"this is not json\n")
                frame = json.loads(reader.readline())
                assert frame["type"] == "error"
                assert frame["id"] is None
                # connection stays usable afterwards
                sock.sendall(b'{"type":"score","id":1,"tokens":[0]}\n')
                frame = json.loads(reader.readline())
                assert frame["type"] == "logits"
                assert frame["id"] == 1
            finally:
                sock.close()

    def test_vocab_size_mismatch_rejected_by_wrapper(self):
        scorer = demo_scorer()
        other_vocab = build_vocab([["x", "y"]])
        with StubServer(scorer) as server:
            with ScorerClient.connect_tcp(server.host, server.port) as client:
                with pytest.raises(VocabularyMismatchError):
                    RemoteScorer(client, other_vocab)

    def test_unknown_response_id_rejected(self):
        scorer = demo_scorer()
        with StubServer(scorer) as server:
            with ScorerClient.connect_tcp(server.host, server.port) as client:
                with pytest.raises(ProtocolError):
                    client.collect(999)


HELLO = json.dumps({"type": "hello", "version": PROTOCOL_VERSION, "vocab_size": 3}).encode() + b"\n"


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
        hello = json.dumps({"type": "hello", "version": 2, "vocab_size": 7}).encode() + b"\n"
        self.assert_rejected(hello, match="2.*1|1.*2")

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
        from deltadecode.scorers import save_scorer

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


class TestLineFraming:
    @pytest.mark.parametrize("split", [1, len(HELLO) // 2, len(HELLO) - 1])
    def test_split_hello_and_coalesced_responses(self, split):
        def serve(conn):
            conn.sendall(HELLO[:split])
            time.sleep(0.05)
            conn.sendall(HELLO[split:])
            # Both answers go out in one send, newest first.
            conn.sendall(
                b"".join(
                    json.dumps({"type": "logits", "id": r["id"], "dense": r["tokens"]}).encode() + b"\n"
                    for r in reversed(read_frames(conn, 2))
                )
            )
            conn.recv(1024)

        with fake_server(serve) as (host, port):
            with ScorerClient.connect_tcp(host, port, timeout_ms=5000) as client:
                assert client.vocab_size == 3
                first = client.submit([0, 1, 2])
                second = client.submit([2, 2, 1])
                assert client.collect(first).tolist() == [0.0, 1.0, 2.0]
                assert client.collect(second).tolist() == [2.0, 2.0, 1.0]

    def test_peer_closing_mid_session(self):
        def serve(conn):
            conn.sendall(HELLO)
            read_frames(conn, 1)

        with fake_server(serve) as (host, port):
            with ScorerClient.connect_tcp(host, port, timeout_ms=5000) as client:
                with pytest.raises(ProtocolError, match="closed") as excinfo:
                    client.score_tokens([0])
        assert not isinstance(excinfo.value, RemoteTimeoutError)


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

    def test_connect_endpoint_tcp(self):
        scorer = demo_scorer()
        with StubServer(scorer) as server:
            client = connect_endpoint(f"tcp:{server.host}:{server.port}")
            with client:
                assert client.vocab_size == scorer.vocab.size


class TestProtocolStress:
    def test_thousand_pipelined_requests_bijective(self):
        scorer = demo_scorer()
        rng = np.random.default_rng(61)
        prefixes = [
            [int(t) for t in rng.integers(0, scorer.vocab.size, size=rng.integers(1, 5))]
            for _ in range(1000)
        ]
        with StubServer(scorer, reorder_window=7) as server:
            with ScorerClient.connect_tcp(server.host, server.port, timeout_ms=30_000) as client:
                ids = [client.submit(p) for p in prefixes]
                assert len(set(ids)) == 1000
                for request_id, prefix in zip(ids, prefixes):
                    got = client.collect(request_id)
                    assert got.tobytes() == scorer.score(prefix).tobytes()
