"""Client handshake against a host that is not wired yet.

A host answers `hello` before the launcher's `wire` frame arrives, but
its `welcome` then carries no cluster map, so the client cannot know
which host owns which pid.  `connect()` must refuse with a
`ConnectionError` naming the host.  Marked ``net`` (binds a real
socket).
"""

from __future__ import annotations

import asyncio

import pytest

from repro.net.client import SkueueClient
from repro.net.server import HostConfig, NodeHost

pytestmark = pytest.mark.net


def test_connect_to_an_unwired_host_fails_naming_it():
    async def scenario():
        host = NodeHost(HostConfig(host_index=0, n_hosts=1, n_processes=2))
        port = await host.start()
        client = SkueueClient({0: ("127.0.0.1", port)})
        try:
            with pytest.raises(ConnectionError, match="host 0 .* not wired"):
                await client.connect(timeout=5.0)
        finally:
            await client.close()
            host.stop()
            await host.wait_stopped()

    asyncio.run(scenario())
