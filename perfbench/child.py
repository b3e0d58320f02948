"""One fresh interpreter running one spincas CLI call; started by run.py.

    python3 perfbench/child.py RESULT MODE WORKLOAD SEED -- <spincas arguments>

MODE is ``setup`` (import the CLI and stop), ``plain`` (timed call) or
``trace`` (timed call with the per-layer spans of spans.py installed).  With
SEED other than ``-`` the output checks of checks.py run after the call.
RESULT receives one JSON object.  Set-up ends when ``spincas.cli`` is
imported, which also selects the kernel and rational backends; run.py takes
the launch time, and both sides read the system-wide monotonic clock.

Times are reported twice: as measured (``*_wall_s``) and at nominal host
speed, scaled by the speed of a reference unit timed in this process
(pace.py): right after set-up for the set-up time, and during the call for
the call's time.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import spincas.cli  # noqa: E402

READY = time.monotonic()

import pace  # noqa: E402

SETUP_FACTOR = pace.speed_factor([pace.timed_unit() for _ in range(pace.SETUP_UNITS)])


def main() -> int:
    import json
    import resource

    result_path, mode, workload, seed, sep, *cli_args = sys.argv[1:]
    src = os.path.join(ROOT, "src", "spincas")
    if os.path.dirname(os.path.abspath(spincas.__file__)) != src or sep != "--":
        print(f"spincas was imported from {spincas.__file__}, not {src}", file=sys.stderr)
        return 4
    result = {
        "ready": READY,
        "setup_factor": SETUP_FACTOR,
        "env": {
            "backend": spincas.BACKEND,
            "rational": f"{spincas.Rat.__module__}.{spincas.Rat.__name__}",
            "version": spincas.__version__,
        },
    }
    if mode != "setup":
        tracer = None
        if mode == "trace":
            from spans import COUNTS, Tracer

            tracer = Tracer()
            tracer.install()
        pacer = pace.Pacer()
        pacer.start()
        start, cpu_start = time.perf_counter(), time.process_time()
        code = spincas.cli.main(cli_args)
        end, cpu_end = time.perf_counter(), time.process_time()
        pacer.stop()
        paused_s = pacer.paused_s(before=end)
        wall_s, cpu_s = end - start - paused_s, cpu_end - cpu_start - paused_s
        factor = pacer.factor
        result.update(
            exit_code=code,
            verify_wall_s=wall_s,
            verify_s=wall_s * factor,
            speed_factor=factor,
            speed_samples=len(pacer.samples),
            cpu_s=cpu_s,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
        if tracer is not None:
            layers = tracer.metrics(wall_s, pacer.pauses)
            result["layers"] = {k: v if k.endswith(COUNTS) else v * factor for k, v in layers.items()}
            tracer.dump(result_path + ".spans.jsonl")
        if seed != "-":
            from checks import PROBES

            probe_start = time.perf_counter()
            result["checks"] = PROBES[workload](int(seed))
            result["probe_s"] = time.perf_counter() - probe_start
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
