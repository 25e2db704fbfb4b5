"""Child process of the traced cli_cold workload.

Times the bare interpreter start and ``import qpamp.cli``, installs the span
tracer, runs ``qpamp.cli.main(argv)`` and writes a JSON summary (timestamps,
per-layer calls and self time, exit code) to SUMMARY on exit.  With
``--import-only`` it stops after the import and also reports the runtime
versions and the sweep worker count.

Usage::

    python perfbench/cli_shim.py SUMMARY SPAWN_TIME [--import-only | qpamp args...]

SPAWN_TIME is the parent's ``time.perf_counter()`` just before it started
this process (the same monotonic clock in every process on Linux).
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    summary_path, spawn, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    t_import0 = time.perf_counter()
    import qpamp.cli
    import qpamp.sweep

    t_import1 = time.perf_counter()
    src = Path(__file__).resolve().parent.parent / "src"
    if not Path(qpamp.__file__).resolve().is_relative_to(src):
        print(f"qpamp imported from {qpamp.__file__}, not from {src}", file=sys.stderr)
        return 2
    summary = {
        "interp_start_s": T_START - spawn,
        "shim_s": t_import0 - T_START,
        "import_s": t_import1 - t_import0,
        "t_import1": t_import1,
    }
    if argv == ["--import-only"]:
        import numpy
        import scipy

        summary.update(
            workers=qpamp.sweep.default_workers(),
            qpamp=qpamp.__version__,
            numpy=numpy.__version__,
            scipy=scipy.__version__,
        )
        code = 0
    else:
        import tracer

        trace = tracer.Tracer()
        trace.install()
        root = trace.open_root()
        code = qpamp.cli.main(argv)
        trace.close_root(root)
        spans = trace.take()
        trace.uninstall()
        summary.update(tracer.summarize(spans))
        summary.update(
            t_root0=root[2],
            t_root1=root[3],
            command_s=sum(s[3] - s[2] for s in spans if s[0] == "cli" and s[1] == "main"),
            workers=qpamp.sweep.default_workers(),
        )
    summary["exit_code"] = code
    with open(summary_path, "w", encoding="utf-8") as handle:
        json.dump(summary, handle)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
