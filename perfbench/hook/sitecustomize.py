"""Traces a live peer process of the benchmark (traced samples only).

Python imports ``sitecustomize`` at start-up from the first directory
on ``sys.path`` that holds one; coverage.py measures subprocesses the
same way.  ``sample.py --trace`` puts this directory on the
``PYTHONPATH`` its live peers inherit and names the directory for their
span files in ``PERFBENCH_PEER_SPANS``.  Untraced samples do neither, so
their peers carry no hook.  Nothing here writes to standard output: it
is the peer's control channel.
"""

import os


def _start(directory: str) -> None:
    import atexit
    import sys

    sys.path.append(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import layers
    import spans

    layers.import_program()
    recorder = spans.SpanRecorder()
    spans.install(layers.TARGETS, recorder.wrap)

    def write() -> None:
        header = layers.process_header("peer", recorder)
        recorder.write(os.path.join(directory, f"peer-{os.getpid()}.jsonl"), header)

    atexit.register(write)


if os.environ.get("PERFBENCH_PEER_SPANS"):
    _start(os.environ["PERFBENCH_PEER_SPANS"])
