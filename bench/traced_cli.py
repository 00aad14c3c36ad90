"""Run one lyapdim CLI call with every public function traced.

    python3 bench/traced_cli.py <lyapdim arguments...>

The CLI's output goes to stdout as usual.  The last line of stderr is
tracer.SPANS_MARKER followed by the call's spans as JSON (times from
perf_counter, the system-wide monotonic clock), including one for
`import lyapdim.cli`.
"""

import time

started = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import lyapdim.cli  # noqa: E402

imported = time.perf_counter()

from tracer import SPANS_MARKER, Span, Tracer  # noqa: E402


def main() -> int:
    tracer = Tracer()
    tracer.spans.append(Span(0, None, "cli.import", None, started, imported))
    tracer.install()
    code = lyapdim.cli.main(sys.argv[1:])
    tracer.uninstall()
    sys.stdout.flush()
    sys.stderr.write(SPANS_MARKER + json.dumps(tracer.dump()) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
