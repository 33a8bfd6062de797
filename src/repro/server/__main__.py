"""``python -m repro.server`` — run a PySQLJ network server.

Examples::

    # in-memory databases, ephemeral port (printed on startup)
    python -m repro.server --port 0

    # durable databases under /var/lib/mydata, 128 clients max
    python -m repro.server --host 0.0.0.0 --port 7878 \\
        --data-dir /var/lib/mydata --max-connections 128

The wire protocol is data-only (no code can reach the server through
frames), but it is cleartext: ``--auth-token`` gates the handshake and
nothing more.  Bind ``0.0.0.0`` only on trusted networks or behind a
TLS tunnel — see ``docs/SERVER.md``.
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading
from typing import Optional, Sequence

from repro.server.protocol import DEFAULT_PORT
from repro.server.server import ReproServer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server",
        description="Serve PySQLJ databases over TCP (repro:// protocol).",
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="listen address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT,
                        help=f"listen port, 0 for ephemeral "
                             f"(default {DEFAULT_PORT})")
    parser.add_argument("--data-dir", default=None,
                        help="directory for durable databases "
                             "(omit for in-memory)")
    parser.add_argument("--dialect", default="standard",
                        choices=["standard", "acme", "zenith"],
                        help="dialect for databases this server creates")
    parser.add_argument("--max-connections", type=int, default=64,
                        help="concurrent client cap (default 64)")
    parser.add_argument("--page-size", type=int, default=256,
                        help="rows per result page (default 256)")
    parser.add_argument("--max-cursors", type=int, default=64,
                        help="open paged-result cursors per session "
                             "before LRU eviction (default 64)")
    parser.add_argument("--auth-token", default=None,
                        help="require this token from clients (gates the "
                             "handshake only; traffic stays cleartext)")
    parser.add_argument("--slow-query-ms", type=float, default=None,
                        help="log statements slower than this many "
                             "milliseconds as JSON lines on stderr "
                             "(overrides REPRO_SLOW_QUERY_MS)")
    parser.add_argument("--drain-timeout", type=float, default=10.0,
                        help="seconds to drain in-flight work on "
                             "shutdown (default 10)")
    return parser


def serve_forever(server: ReproServer, drain_timeout: float) -> None:
    """Serve until SIGINT or SIGTERM, then drain and return.

    Ctrl-C, ``Popen.terminate()``, ``docker stop`` and systemd all end
    the same way: in-flight statements finish, every session gets
    GOODBYE, and the process exits 0.
    """
    stop = threading.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda *_: stop.set())
    server.start_background()
    print(f"repro server listening on {server.host}:{server.port}",
          flush=True)
    stop.wait()
    server.stop_background(drain_timeout)
    print("repro server stopped", flush=True)


def main(argv: Optional[Sequence[str]] = None) -> int:
    options = build_parser().parse_args(argv)
    server = ReproServer(
        options.host,
        options.port,
        data_dir=options.data_dir,
        dialect=options.dialect,
        max_connections=options.max_connections,
        page_size=options.page_size,
        max_cursors=options.max_cursors,
        auth_token=options.auth_token,
        slow_query_ms=options.slow_query_ms,
    )
    serve_forever(server, options.drain_timeout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
