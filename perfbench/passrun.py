"""One pass of a workload, in a fresh interpreter.

    python3 passrun.py SRC                        # set-up probe only
    python3 passrun.py SRC SPEC RESULT [SPANS]    # run a pass

Imports ``nhskin.cli`` from SRC and prints ``ready``; the parent times
interpreter start-up and import up to that line.  With SPEC it then calls
``nhskin.cli.main`` once per operation, one after another, capturing each
one's exit code, time, stdout and stderr, and writes them to RESULT with
the CPU time of the operations and the peak resident memory of this
process.  With SPANS the functions of nhskin are traced and the spans are
saved there.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def run_op(cli, argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            # an uncaught error is the operation's failure, not the pass's
            traceback.print_exc()
            rc = 1
    t1 = time.perf_counter()
    return {"start": t0, "end": t1, "rc": rc,
            "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}


def main(argv):
    src = Path(argv[0]).resolve()
    import nhskin.cli as cli
    if Path(cli.__file__).resolve().parent != src / "nhskin":
        print(f"nhskin imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    print("ready", flush=True)
    if len(argv) == 1:
        return 0
    spec = json.loads(Path(argv[1]).read_text())
    tracer = None
    if len(argv) > 3:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    before = resource.getrusage(resource.RUSAGE_SELF)
    ops = [run_op(cli, op) for op in spec["argv"]]
    after = resource.getrusage(resource.RUSAGE_SELF)
    result = {"ops": ops, "peak_rss_mb": after.ru_maxrss / 1024,
              "cpu_s": (after.ru_utime + after.ru_stime
                        - before.ru_utime - before.ru_stime)}
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.save(argv[3])
    Path(argv[2]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
