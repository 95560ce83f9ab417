"""Run the primetop CLI in this process, the way its console script does.

    python3 perfbench/launch.py REPORT_FD TRACE_PATH PRIMETOP_ARGS...

Two lines go to the inherited file descriptor REPORT_FD: once `primetop.cli` is
imported, the CLOCK_MONOTONIC time (the end of set-up) and the path of the
imported module; when the CLI returns, the process's peak resident set in kB.
That peak is VmHWM, which starts afresh at exec; the rusage of a child would
also count the pages of the benchmark process it was forked from.  With a
TRACE_PATH other than "-", the package's layers are traced (see spans.py) and
the per-layer metrics are written there on exit.
"""

import os
import sys
import time


def peak_rss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> None:
    report_fd, trace_path, argv = int(sys.argv[1]), sys.argv[2], sys.argv[3:]
    import primetop.cli

    with os.fdopen(report_fd, "w") as report:
        report.write(f"{time.monotonic()!r} {primetop.cli.__file__}\n")
        report.flush()
        tracer = None
        if trace_path != "-":
            import spans

            tracer = spans.Tracer()
            tracer.install()
        try:
            code = primetop.cli.main(argv)
        finally:
            if tracer is not None:
                tracer.write(trace_path)
            report.write(f"{peak_rss_kb()}\n")
    sys.exit(code)


if __name__ == "__main__":
    main()
