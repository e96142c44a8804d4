import base64
import contextlib
import json
import os
import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    StubSession,
    connect_endpoint,
    decode_f64,
    densify,
    encode_f64,
    parse_endpoint,
    stub_server_step,
)
from deltadecode.scorers import BigramMatrixScorer, ConstantScorer, TableScorer, build_vocab, train_ngram


FINITE = st.floats(allow_nan=False, allow_infinity=False)


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

    @pytest.mark.parametrize("bad", [True, 1.9, 1.0, "1"])
    def test_non_integer_id_rejected(self, bad):
        with pytest.raises(RemoteScoreError, match="must be an integer"):
            densify(((bad, 2.0),), 0.0, 4)
        assert densify(((np.int64(1), 2.0),), 0.0, 4).tolist() == [0.0, 2.0, 0.0, 0.0]

    def test_non_finite_rejected(self):
        with pytest.raises(RemoteScoreError):
            densify(((0, float("nan")),), 0.0, 4)
        with pytest.raises(RemoteScoreError):
            densify(((0, 1.0),), float("inf"), 4)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 40), FINITE, st.data())
    def test_densify_matches_full_and_assign(self, size, rest, data):
        entries = data.draw(st.dictionaries(st.integers(0, size - 1), FINITE))
        topk = data.draw(st.permutations([[i, v] for i, v in entries.items()]))
        expected = np.full(size, rest, dtype=np.float64)
        for i, v in entries.items():
            expected[i] = v
        assert densify(topk, rest, size).tobytes() == expected.tobytes()


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

    def test_boolean_ids_rejected(self):
        # JSON true/false parse to bool, which equals 1/0 and is an int subclass.
        response = stub_server_step(demo_scorer(), {"type": "score", "id": True, "tokens": [True, False]})
        assert response == {"type": "error", "id": None, "message": "score frame needs an integer id"}
        response = stub_server_step(demo_scorer(), {"type": "score", "id": 1, "tokens": [0, True]})
        assert response == {"type": "error", "id": 1, "message": "tokens must be a list of integers"}


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


# The fake servers below echo each v1 score frame's tokens back as logits.
HELLO = json.dumps({"type": "hello", "version": 1, "vocab_size": 3}).encode() + b"\n"


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
        hello = json.dumps({"type": "hello", "version": 3, "vocab_size": 7}).encode() + b"\n"
        self.assert_rejected(hello, match="version 3, client supports 1 and 2")

    @pytest.mark.parametrize("field", ["version", "vocab_size"])
    def test_boolean_hello_fields_rejected(self, field):
        hello = {"type": "hello", "version": 1, "vocab_size": 3, field: True}
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


def answer(requests):
    return b"".join(
        json.dumps({"type": "logits", "id": r["id"], "dense": r["tokens"]}).encode() + b"\n"
        for r in requests
    )


class TestResponseIds:
    @pytest.mark.parametrize("frame_id", [99, "0", [0], {"id": 0}, False])
    def test_unknown_response_id_is_protocol_error(self, frame_id):
        def serve(conn):
            conn.sendall(HELLO)
            read_frames(conn, 1)
            frame = {"type": "logits", "id": frame_id, "dense": [0.0, 0.0, 0.0]}
            conn.sendall(json.dumps(frame).encode() + b"\n")
            conn.recv(1024)

        with fake_server(serve) as (host, port):
            with ScorerClient.connect_tcp(host, port, timeout_ms=5000) as client:
                with pytest.raises(ProtocolError, match="unknown request id"):
                    client.score_tokens([0])


class TestLateFrames:
    def test_timed_out_request_is_retired(self):
        timed_out = threading.Event()

        def serve(conn):
            conn.sendall(HELLO)
            requests = read_frames(conn, 2)
            timed_out.wait(10)
            # Request 0 is answered after its deadline passed, then request 1.
            conn.sendall(answer(requests))
            conn.recv(1024)

        with fake_server(serve) as (host, port):
            with ScorerClient.connect_tcp(host, port, timeout_ms=200) as client:
                late = client.submit([0, 0, 0])
                wanted = client.submit([1, 2, 0])
                with pytest.raises(RemoteTimeoutError):
                    client.collect(late)
                timed_out.set()
                assert client.collect(wanted).tolist() == [1.0, 2.0, 0.0]
                assert client.late_frames == 1
                with pytest.raises(ProtocolError, match="not outstanding"):
                    client.collect(late)

    def test_timeouts_under_thread_contention(self):
        # Half the callers are answered at once, half only after every
        # deadline passed; however each one lands, it is collected or
        # counted late exactly once, with pumping and waiting callers mixed.
        callers = 2 * (os.cpu_count() or 1) + 2
        released = threading.Event()

        def serve(conn):
            conn.sendall(HELLO)
            requests = read_frames(conn, callers)
            conn.sendall(answer(r for r in requests if r["tokens"][0] == 0))
            released.wait(10)
            conn.sendall(answer(r for r in requests if r["tokens"][0] == 1))
            conn.sendall(answer(read_frames(conn, 1)))
            conn.recv(1024)

        results, timeouts = [], []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with fake_server(serve) as (host, port):
                with ScorerClient.connect_tcp(host, port, timeout_ms=500) as client:

                    def call(i):
                        prefix = [i % 2, i, 0]
                        try:
                            results.append((prefix, client.score_tokens(prefix).tolist()))
                        except RemoteTimeoutError:
                            timeouts.append(i)

                    threads = [threading.Thread(target=call, args=(i,)) for i in range(callers)]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join(timeout=10)
                    assert not any(thread.is_alive() for thread in threads)
                    released.set()
                    assert client.score_tokens([1, 1, 1]).tolist() == [1.0, 1.0, 1.0]
                    assert client.late_frames == len(timeouts)
        finally:
            sys.setswitchinterval(interval)
        assert len(results) + len(timeouts) == callers
        assert len(timeouts) >= callers // 2
        assert all(prefix == [float(t) for t in got] for prefix, got in results)


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


def trigram_scorer():
    vocab = build_vocab([["a", "b", "c", "d"]])
    docs = [[0, 1, 2, 3, 0, 2, 1], [3, 3, 1, 0, 2], [2, 0, 1, 3]]
    return train_ngram(docs, order=3, vocab=vocab, smoothing_k=0.3, name="tri")


class TestF64Codec:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(FINITE, min_size=1, max_size=64))
    @example([-0.0, 0.0, 5e-324, -5e-324, 1.1125369292536007e-308, 1.7976931348623157e308, -1.7976931348623157e308])
    def test_round_trip_is_bitwise(self, values):
        logits = np.array(values, dtype=np.float64)
        frame = json.loads(json.dumps({"f64": encode_f64(logits)}))
        got = decode_f64(frame["f64"], len(values))
        assert got.tobytes() == logits.tobytes()
        assert got.dtype == np.float64 and got.flags.owndata and got.flags.writeable

    @settings(max_examples=100, deadline=None)
    @given(st.lists(FINITE, min_size=1, max_size=16), st.data())
    def test_non_finite_rejected(self, values, data):
        values[data.draw(st.integers(0, len(values) - 1))] = data.draw(
            st.sampled_from([float("nan"), float("inf"), float("-inf")])
        )
        with pytest.raises(RemoteScoreError, match="non-finite"):
            decode_f64(encode_f64(np.array(values)), len(values))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(FINITE, min_size=1, max_size=16), st.integers(-3, 3), st.integers(0, 7))
    def test_wrong_length_rejected(self, values, extra, cut):
        raw = np.array(values, dtype="<f8").tobytes()
        if extra == 0 and cut == 0:
            cut = 1
        payload = base64.b64encode(raw[: len(raw) - cut]).decode()
        with pytest.raises(RemoteScoreError, match="bytes from .* base64 characters, expected"):
            decode_f64(payload, len(values) + extra)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(FINITE, min_size=1, max_size=16), st.data())
    def test_bad_base64_rejected(self, values, data):
        payload = encode_f64(np.array(values))
        at = data.draw(st.integers(0, len(payload)))
        bad = payload[:at] + data.draw(st.sampled_from(["!", "*", "-", " ", "\n", "é", "="])) + payload[at:]
        with pytest.raises(RemoteScoreError, match="base64"):
            decode_f64(bad, len(values))

    def test_excess_padding_rejected(self):
        # b64decode accepts trailing padding after a complete encoding.
        payload = encode_f64(np.zeros(3))
        assert not payload.endswith("=")
        with pytest.raises(RemoteScoreError, match="base64 characters"):
            decode_f64(payload + "=", 3)

    @pytest.mark.parametrize("payload", [None, 3, ["AAAAAAAAAAA="], b"AAAAAAAAAAA="])
    def test_non_string_rejected(self, payload):
        with pytest.raises(RemoteScoreError, match="base64 string"):
            decode_f64(payload, 1)


def extend(request_id, keep, tokens):
    return {"type": "extend", "id": request_id, "keep": keep, "tokens": tokens}


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
            response = session.step(extend(request_id, keep, tokens))
            assert list(session.prefix) == model
            full = stub_server_step(scorer, {"type": "score", "id": request_id, "tokens": model})
            assert response["type"] == "logits" and response["id"] == request_id
            assert decode_f64(response["f64"], size).tobytes() == np.array(full["dense"]).tobytes()

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
        assert session.step(extend(1, 0, [0, 1]))["type"] == "logits"
        response = session.step(bad)
        assert response["type"] == "error" and message in response["message"]
        assert response["id"] == (5 if type(bad["id"]) is int else None)
        assert session.prefix is None
        for keep in (2, 1):
            response = session.step(extend(6, keep, [2]))
            assert response["type"] == "error" and "reset" in response["message"]
        response = session.step(extend(7, 0, [0, 1, 2]))
        assert decode_f64(response["f64"], scorer.vocab.size).tobytes() == scorer.score([0, 1, 2]).tobytes()
        assert list(session.prefix) == [0, 1, 2]

    def test_scorer_failure_keeps_session(self):
        vocab = build_vocab([["a"]])
        session = StubSession(TableScorer(vocab, {(0,): [0.0, 1.0, 2.0]}))
        response = session.step(extend(0, 0, [1]))
        assert response["type"] == "error" and "reset" not in response["message"]
        assert list(session.prefix) == [1]
        response = session.step(extend(1, 0, [0]))
        assert decode_f64(response["f64"], 3).tolist() == [0.0, 1.0, 2.0]


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
                assert client.version == 2
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
            assert set(response) == {"type", "id", "f64"}

    def test_v1_server_gets_score_frames(self):
        scorer = trigram_scorer()
        kinds = []

        def serve(conn):
            hello = {"type": "hello", "version": 1, "vocab_size": scorer.vocab.size}
            conn.sendall(json.dumps(hello).encode() + b"\n")
            for line in conn.makefile("rb"):
                frame = json.loads(line)
                kinds.append(frame["type"])
                conn.sendall(json.dumps(stub_server_step(scorer, frame)).encode() + b"\n")

        config = DecodeConfig(mode="sample", max_tokens=20, seed=4)
        local = decode(scorer, prompt=[0, 1], config=config)
        with fake_server(serve) as (host, port):
            with ScorerClient.connect_tcp(host, port, timeout_ms=5000) as client:
                assert client.version == 1
                got = decode(RemoteScorer(client, scorer.vocab), prompt=[0, 1], config=config)
        assert got.tokens == local.tokens
        assert [s.chosen_logprob for s in got.generated] == [s.chosen_logprob for s in local.generated]
        assert kinds == ["score"] * len(local.generated)

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
                    client.submit([0, bad])
                assert client.score_tokens([np.int64(1)]).tobytes() == demo_scorer().score([1]).tobytes()
