"""The fleet workloads' server process: a ``serve()``d FleetService.

Started by ``run.py``.  The service keeps its helper data in a
file-backed :class:`HelperStore` and logs every request to an
:class:`AuditTrail`, both under ``--work``.  Prints ``READY <port>``
once bound, then takes line commands on stdin:

``trace on`` / ``trace off``
    install / remove the span wrappers on the service layers;
``reset``
    forget recorded spans (start of a measured window);
``layers``
    print one JSON line of per-layer totals for the recorded spans;
``stop``
    print one JSON line with the peak RSS, write the spans as a Chrome
    trace when ``--spans-out`` is given, and exit.

End of stdin also stops the server, so it never outlives ``run.py``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import pathlib
import sys

from common import peak_rss_mb, use_checkout_sources

use_checkout_sources()

from repro.service import AuditTrail, FleetService, HelperStore, serve  # noqa: E402
from layers import install_server  # noqa: E402
from spans import Recorder, layer_totals, write_chrome  # noqa: E402


async def main_async(args) -> None:
    work = args.work
    work.mkdir(parents=True, exist_ok=True)
    audit = AuditTrail(work / "audit.jsonl")
    service = FleetService(
        store=HelperStore(work / "helpers.jsonl"), audit=audit, seed=args.seed
    )
    server = await serve(service, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    recorder = Recorder()
    loop = asyncio.get_running_loop()
    reader = asyncio.StreamReader()
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(reader), sys.stdin
    )
    print(f"READY {port}", flush=True)
    try:
        while True:
            command = (await reader.readline()).decode().strip()
            if command == "trace on":
                install_server(recorder)
            elif command == "trace off":
                recorder.uninstall()
            elif command == "reset":
                recorder.reset()
            elif command == "layers":
                print(json.dumps(layer_totals(recorder.spans)), flush=True)
            elif command in ("stop", ""):
                break
            else:
                print(json.dumps({"error": f"unknown command {command!r}"}), flush=True)
    finally:
        recorder.uninstall()
        server.close()
        await server.wait_closed()
        audit.close()
    if args.spans_out is not None:
        write_chrome(args.spans_out, recorder.chrome_events(2, "server"))
    print(json.dumps({"peak_rss_mb": peak_rss_mb(), "audit_records": audit.n_records}),
          flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=pathlib.Path, required=True)
    parser.add_argument("--spans-out", type=pathlib.Path)
    args = parser.parse_args(argv)
    asyncio.run(main_async(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
