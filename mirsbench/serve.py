"""Start the same server as ``repro serve``, optionally with layer tracing.

    python3 mirsbench/serve.py [--trace-out FILE] -- serve --port 0 ...

Everything after ``--`` goes to :func:`repro.cli.main` unchanged.  With
``--trace-out`` the server-side layer wrappers of ``trace.py`` are
installed first, and the recorded spans and counters are written to FILE
when the server stops (on SIGINT, which ``repro serve`` handles as a
clean shutdown).
"""

from __future__ import annotations

import sys
from pathlib import Path

from common import SRC


def main(argv) -> int:
    sys.path.insert(0, str(SRC))
    split = argv.index("--")
    options, cli_args = argv[:split], argv[split + 1:]
    trace_out = Path(options[options.index("--trace-out") + 1]) if "--trace-out" in options else None

    from repro.cli import main as repro_main

    tracer = None
    if trace_out is not None:
        from spans import Tracer, install_engine_wrappers, install_service_wrappers

        tracer = Tracer("server")
        install_engine_wrappers(tracer)
        install_service_wrappers(tracer)
    code = repro_main(cli_args)
    if tracer is not None:
        tracer.dump(trace_out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
