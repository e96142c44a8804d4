import json
import socket
import threading

import pytest

from deltadecode.remote import (
    ProtocolError,
    StubSession,
    _encode_frame,
    _hello_frame,
    _socket_channel,
)


@pytest.fixture
def reordering_server():
    """``start(scorer, window, count)`` serves one TCP connection with a real
    :class:`StubSession` and returns its ``(host, port)``.

    The server answers ``count`` frames in reversed batches of ``window``
    (the last batch is shorter when ``window`` does not divide ``count``),
    which the protocol allows and :class:`StubServer` never does, so the
    client's matching of replies by id is exercised.
    """
    listeners, threads = [], []

    def start(scorer, window, count):
        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(10)
        listeners.append(listener)

        def serve():
            try:
                conn, _ = listener.accept()
            except OSError:
                return  # the test never connected
            channel = _socket_channel(conn)
            try:
                channel.send(_encode_frame(_hello_frame(scorer)))
                session = StubSession(scorer)
                batch = []
                for answered in range(1, count + 1):
                    header, payload = session.step(json.loads(channel.recv_line(None)))
                    batch.append(_encode_frame(header) + payload)
                    if len(batch) == window or answered == count:
                        for reply in reversed(batch):
                            channel.send(reply)
                        batch.clear()
                channel.recv_line(None)  # held open until the client closes
            except (ProtocolError, OSError):
                pass
            finally:
                channel.close()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        threads.append(thread)
        return listener.getsockname()[:2]

    yield start
    for thread in threads:
        thread.join(timeout=15)
    for listener in listeners:
        listener.close()
