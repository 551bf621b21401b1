"""Run ``python -m repro.service`` with the benchmark's span tracing on.

Usage: ``python3 perfbench/traced_server.py SPANS_OUT [service args...]``.
Installs the wrappers of :mod:`tracing`, serves until SIGINT (the
service's own clean shutdown path), then writes every recorded span to
``SPANS_OUT`` as JSON.  Needs ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import sys

from tracing import Tracer, instrument


def main(argv: list[str]) -> int:
    spans_out, service_args = argv[0], argv[1:]
    tracer = Tracer()
    instrument(tracer)
    from repro.service.__main__ import main as serve
    try:
        return serve(service_args)
    finally:
        tracer.dump(spans_out)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
