"""Run the validation daemon with the benchmark's span recorder installed.

    python perfbench/daemon_launcher.py --spans-out SPANS.json -- [daemon args]

Installs the same outside-in wrappers a traced batch run uses, calls the
daemon's own ``main`` with the remaining arguments, and writes every span
as JSON once the daemon has drained.  Parse and revalidate spans are tagged
with the module name the request carried, so the benchmark can pair each
client request with the daemon-side work that served it.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from repro.validator.service import daemon  # noqa: E402

from tracer import SpanRecorder  # noqa: E402


def _parsed_name(args, kwargs, result):
    return getattr(result, "name", None)


def _revalidated_name(args, kwargs, result):
    module = args[1] if len(args) > 1 else kwargs.get("module")
    return getattr(module, "name", None)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spans-out", required=True)
    parser.add_argument("daemon_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    daemon_args = args.daemon_args[1:] if args.daemon_args[:1] == ["--"] else args.daemon_args
    recorder = SpanRecorder().install(taggers={
        "parse_module": _parsed_name,
        "Revalidator.revalidate": _revalidated_name,
    })
    try:
        status = daemon.main(daemon_args)
    finally:
        recorder.uninstall()
        with open(args.spans_out, "w") as handle:
            json.dump([list(span) for span in recorder.spans], handle)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
