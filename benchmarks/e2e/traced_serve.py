"""``repro serve`` with the harness's per-layer wrappers.

Usage (from the checkout root, with ``src`` on ``PYTHONPATH``)::

    python3 benchmarks/e2e/traced_serve.py STEM serve --port 0 ...

The server starts untraced.  SIGUSR1 installs the wrappers of
``layers.py``, so the harness can measure the same server untraced and
then traced.  SIGTERM writes ``STEM.trace.json`` and
``STEM.layers.json`` (the span summary plus the server engine's own
``Tracer.stage_summary()``) and shuts the server down as Ctrl-C does.
"""

import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402


def main(argv):
    stem, serve_argv = argv[0], argv[1:]
    from repro.cli import main as cli_main
    from repro.service import server

    recorder = layers.SpanRecorder()
    services = []
    original_init = server.ContainmentService.__init__

    def capture(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        services.append(self)

    server.ContainmentService.__init__ = capture

    def on_usr1(signum, frame):
        layers.install(recorder)

    def on_term(signum, frame):
        tracer = services[0].engine().tracer()
        layers.write_outputs(recorder, stem,
                             {"stage_summary": tracer.stage_summary()})
        raise KeyboardInterrupt

    signal.signal(signal.SIGUSR1, on_usr1)
    signal.signal(signal.SIGTERM, on_term)
    return cli_main(serve_argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
