import os
import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# CI selects this profile with --hypothesis-profile=ci: a property that sets no
# max_examples of its own then draws ten times the default.
settings.register_profile("ci", max_examples=1000)

from hicot import datasets  # noqa: E402
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


@pytest.fixture
def fsync_sizes(monkeypatch):
    """The size of the synced file at each ``os.fsync`` that ``hicot.datasets`` runs."""
    sizes = []
    fsync = os.fsync

    def counted(fd):
        fsync(fd)
        sizes.append(os.fstat(fd).st_size)

    monkeypatch.setattr(datasets.os, "fsync", counted)
    return sizes
