"""``python -m repro.serving`` with per-layer clocks wrapped around it.

Usage: ``traced_server.py --trace-out FILE [repro.serving args...]``.

The clocks are installed before the app is built, so the batcher lanes
bind the timed kernels. SIGUSR1 zeroes the clocks (the benchmark sends
it after warm-up); on shutdown (SIGINT) the totals are written to FILE
as JSON.
"""

from __future__ import annotations

import json
import signal
import sys

from common import bootstrap


def main() -> int:
    bootstrap()
    argv = sys.argv[1:]
    if len(argv) < 2 or argv[0] != "--trace-out":
        print(__doc__, file=sys.stderr)
        return 2
    out_path, serve_args = argv[1], argv[2:]

    import instrument
    import layers
    from repro.serving.__main__ import main as serve_main

    instrument.install_kernels()
    instrument.install_serving()
    signal.signal(signal.SIGUSR1, lambda signum, frame: layers.reset())
    try:
        code = serve_main(serve_args)
    finally:
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(layers.snapshot(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
