"""One benchmark repetition in a fresh interpreter.

Run by perfbench/run.py as ``python child.py SPEC`` where SPEC is a JSON
object with:

- ``src``: the checkout's ``src`` directory, put first on ``sys.path``;
- ``t0``: ``time.monotonic()`` in the parent just before it started this
  process (CLOCK_MONOTONIC is shared by all processes on Linux), so that
  ``setup_s`` covers interpreter start-up and ``import chowlab.cli``;
- ``calls``: the ``chowlab`` argument lists to run through ``chowlab.cli.main``
  (empty for a set-up-only process);
- ``trace``: whether to install perfbench/tracer.py before the calls.

It prints one JSON line: ``setup_s``, ``peak_rss_mb`` and, per call, the
exit code, the wall time including report serialisation, and the captured
report.  It exits 3 if chowlab was imported from anywhere but ``src``.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = os.path.realpath(spec["src"])
    sys.path.insert(0, src)
    import chowlab.cli

    setup_s = time.monotonic() - spec["t0"]
    origin = os.path.realpath(chowlab.__file__)
    if not origin.startswith(src + os.sep):
        print(f"chowlab was imported from {origin}, not from {src}", file=sys.stderr)
        return 3
    result = {"setup_s": setup_s, "calls": []}
    layers = None
    if spec["trace"]:
        import tracer

        layers = tracer.install()
    for argv in spec["calls"]:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = chowlab.cli.main(argv)
        wall_s = time.perf_counter() - start
        result["calls"].append(
            {"argv": argv, "exit": code, "wall_s": wall_s, "report": out.getvalue(), "stderr": err.getvalue()}
        )
    if layers is not None:
        result["trace"] = layers.snapshot()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
