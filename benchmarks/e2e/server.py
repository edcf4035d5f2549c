"""The benchmark's KVServer process: prints its port, serves until stdin closes."""
from __future__ import annotations

import sys

from repro.kvserver import KVServer


def main() -> int:
    server = KVServer('127.0.0.1', 0)
    _host, port = server.start()
    print(port, flush=True)
    sys.stdin.read()  # the driver closes our stdin to stop us
    server.stop()
    return 0


if __name__ == '__main__':
    sys.exit(main())
