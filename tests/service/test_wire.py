"""The TCP wire protocol: serve + ServiceClient/Pool round trips."""

import asyncio
import json

import numpy as np
import pytest

from repro.service import (
    FleetService,
    ServiceClient,
    ServiceClientPool,
    serve,
)


def _golden(service, seed=11):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, service.response_bits, dtype=np.uint8)


async def _with_server(run):
    """Boot a service on a free port, run the test body, tear down."""
    service = FleetService(seed=0)
    server = await serve(service, port=0)
    port = server.sockets[0].getsockname()[1]
    try:
        return await run(service, port)
    finally:
        server.close()
        await server.wait_closed()


class TestRoundTrip:
    def test_enroll_auth_key_status(self):
        async def body(service, port):
            bits = _golden(service)
            client = await ServiceClient.connect("127.0.0.1", port)
            try:
                enrolled = await client.enroll(0, [bits, bits, bits])
                assert enrolled["outcome"] == "ok"
                assert enrolled["n_bits"] == service.response_bits

                authed = await client.auth(0, bits)
                assert authed["outcome"] == "ok"
                assert authed["distance"] == 0.0

                keyed = await client.key(0, bits)
                assert keyed["outcome"] == "ok"
                assert len(bytes.fromhex(keyed["key"])) * 8 == keyed["key_bits"]

                status = await client.status()
                assert status["enrolled"] == 1
                # the status call itself is metered after its body runs
                assert status["requests"] == 3
            finally:
                await client.close()

        asyncio.run(_with_server(body))

    def test_bits_survive_hex_packing(self):
        """A non-byte-aligned width must round-trip exactly."""
        async def body(service, port):
            assert service.response_bits % 8 != 0  # the interesting case
            bits = _golden(service)
            client = await ServiceClient.connect("127.0.0.1", port)
            try:
                await client.enroll(0, [bits])
                authed = await client.auth(0, bits)
                assert authed["distance"] == 0.0  # every bit intact
            finally:
                await client.close()

        asyncio.run(_with_server(body))


class TestWireErrors:
    async def _raw_call(self, port, payload: bytes):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            writer.write(payload + b"\n")
            await writer.drain()
            return json.loads(await reader.readline())
        finally:
            writer.close()
            await writer.wait_closed()

    def test_malformed_json_is_served_as_bad_request(self):
        async def body(service, port):
            reply = await self._raw_call(port, b"{not json")
            assert reply["outcome"] == "bad_request"
            # wire garbage is metered, not dropped
            assert service.red.requests == {"wire": 1}

        asyncio.run(_with_server(body))

    def test_unknown_op_over_the_wire(self):
        async def body(service, port):
            reply = await self._raw_call(port, json.dumps({"op": "nope"}).encode())
            assert reply["outcome"] == "bad_request"
            assert "unknown op" in reply["error"]

        asyncio.run(_with_server(body))

    def test_short_bit_blob_is_bad_request(self):
        async def body(service, port):
            reply = await self._raw_call(
                port,
                json.dumps(
                    {
                        "op": "auth",
                        "chip_id": 0,
                        "bits": service.response_bits,
                        "response": "ff",
                    }
                ).encode(),
            )
            assert reply["outcome"] == "bad_request"

        asyncio.run(_with_server(body))

    def test_bool_chip_id_is_bad_request(self):
        """JSON ``true`` is not chip 1: it must not reach chip 1's record."""
        async def body(service, port):
            bits = _golden(service)
            assert (await service.enroll(1, [bits]))["outcome"] == "ok"
            blob = np.packbits(bits).tobytes().hex()
            for op in ("auth", "key"):
                reply = await self._raw_call(
                    port,
                    json.dumps(
                        {
                            "op": op,
                            "chip_id": True,
                            "bits": service.response_bits,
                            "response": blob,
                        }
                    ).encode(),
                )
                assert reply["outcome"] == "bad_request"
                assert reply["error"] == "chip_id must be an integer"

        asyncio.run(_with_server(body))

    def test_oversized_line_gets_one_reply_then_eof(self):
        """A line past the stream limit is answered once, metered, and the
        connection closed."""
        async def body(service, port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                writer.write(b"x" * 70_000 + b"\n")
                await writer.drain()
                reply = json.loads(await reader.readline())
                assert reply["outcome"] == "bad_request"
                assert await reader.readline() == b""
            finally:
                writer.close()
                await writer.wait_closed()
            assert service.red.total_requests() == 1
            assert service.red.requests == {"wire": 1}

        asyncio.run(_with_server(body))


class TestClientPool:
    def test_concurrent_calls_do_not_mispair_replies(self):
        """Workers sharing the pool must each get their own reply."""
        async def body(service, port):
            bits = _golden(service)
            pool = await ServiceClientPool.connect("127.0.0.1", port, size=4)
            try:
                await pool.enroll(0, [bits])

                async def probe(i):
                    # even i: genuine auth; odd i: unknown chip — the reply
                    # outcome proves which request this answer belongs to
                    if i % 2 == 0:
                        reply = await pool.auth(0, bits)
                        return reply["outcome"] == "ok"
                    reply = await pool.auth(1000 + i, bits)
                    return reply["outcome"] == "unknown_chip"

                results = await asyncio.gather(*(probe(i) for i in range(16)))
                assert all(results)
            finally:
                await pool.close()

        asyncio.run(_with_server(body))

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            ServiceClientPool([])
