import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from stub_server import StubChatServer  # noqa: E402


@pytest.fixture
def make_stub():
    """Factory for stub chat-completions servers; stops them on teardown."""
    servers = []

    def _make(responder, delay_s=0.0, **options):
        server = StubChatServer(responder, delay_s=delay_s, **options).start()
        servers.append(server)
        return server

    yield _make
    for server in servers:
        server.stop()
