"""One CLI command in a fresh interpreter, timed from inside.

Usage (from run.py): ``python3 perfbench/worker.py <spec.json> <t_spawn>``,
where ``t_spawn`` is the parent's ``time.perf_counter()`` just before the
spawn (CLOCK_MONOTONIC, shared by all processes), so set-up time counts
interpreter start, ``import fpet`` and reading the generated input files.
The result goes to the JSON file the spec names.
"""

import contextlib
import io
import json
import os
import sys
import time
import traceback


def peak_rss_mb() -> float:
    """This process's resident high-water mark.  VmHWM belongs to the memory
    map made at exec; ru_maxrss would also count the parent's resident set
    at fork time."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    t_spawn = float(sys.argv[2])
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    import fpet
    import fpet.cli

    if not os.path.abspath(fpet.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"fpet imported from {fpet.__file__}, not from {src}", file=sys.stderr)
        return 4
    for path in spec["files"]:
        with open(path, "rb") as fh:
            fh.read()
    setup_s = time.perf_counter() - t_spawn

    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    argv = ["--config", spec["config"], "--serial", "--out", spec["out"]]
    out = io.StringIO()
    rc, error = None, None
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out):
            rc = fpet.cli.main(argv)
    except Exception:  # the command's failure is a result to report, not a harness crash
        error = traceback.format_exc()
    wall_s, cpu_s = time.perf_counter() - t0, time.process_time() - c0
    result = {
        "rc": rc,
        "error": error,
        "stdout": out.getvalue()[-2000:],
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb(),
        "layers": tracer.report() if tracer else None,
    }
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
