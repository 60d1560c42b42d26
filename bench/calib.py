"""A fixed reference workload that gauges how fast the machine runs right now.

On a shared host the same Python code runs up to about twice as slow for
seconds to minutes at a time, in user CPU time as much as in wall time,
because neighbours contend for the cores and caches. The benchmark runs
this reference inside the timed process, every ``INTERVAL_S`` of wall time,
and scales each operation's times to the speed at which one reference call
takes ``REF_S`` seconds (README.md, "Calibrated times"). The reference
mixes the kinds of work gnbdim does: CSV parsing, string-to-number
conversion, small objects, scalar numpy calls, float math and JSON
encoding. It never changes with the program, so a faster program shows as
a smaller calibrated time.

Run as a script it is the calibrated stand-in for ``python -m gnbdim.cli``:

    python3 bench/calib.py --stats FILE -- dimension --config C

It runs the CLI module as ``-m`` would, under a :class:`Sampler`, and
writes the samples and the seconds spent in them to FILE as JSON.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import math
import runpy
import signal
import statistics
import sys
import time

import numpy as np

# About the median sample inside a CLI child on the shared 2-vCPU 2.1 GHz
# Xeon VM the benchmark was sized on (CPython 3.11, numpy 2). It sets only
# the scale of the calibrated times.
REF_S = 0.5e-3
INTERVAL_S = 0.02
# The reference for set-up time: a fixed interpreter start with imports
# gnbdim needs too, and about its median wall time on the same VM. Process
# start and imports (file reads, page faults, loading numpy's libraries)
# drift with the host independently of the reference below.
START_ARGV = ["-c", "import csv, json, logging, numpy"]
START_S = 0.2

_ROWS = "\n".join(
    f"LTE,310,260,{1000 + i},{7_000_000 + 37 * i},,{-97.5 + i * 1e-3!r},"
    f"{30.25 + i * 7e-4!r},{100 + i},{1 + i % 50},1,1500000000,1550000000,-{80 + i % 30}"
    for i in range(24)
)


def reference() -> int:
    """One unit of reference work; returns a value so nothing is optimised away."""
    sites = []
    for row in csv.reader(io.StringIO(_ROWS)):
        lon, lat = float(row[6]), float(row[7])
        x = np.asarray(lon) * (111.2 * math.cos(math.radians(lat)))
        sites.append({
            "type": "Feature",
            "geometry": {"type": "Point", "coordinates": [round(float(x), 7), lat]},
            "properties": {"cell": int(row[4]), "samples": int(row[9]),
                           "r": math.hypot(float(x), lat) ** 0.5},
        })
    return len(json.dumps({"type": "FeatureCollection", "features": sites}))


class Sampler:
    """Times one ``reference()`` call every ``INTERVAL_S`` of wall time (SIGALRM).

    Python runs the handler between bytecodes of the main thread, so the
    samples fall wherever the program is, in proportion to its run time.
    Each call starts from whatever 20 ms of the program left in the caches,
    and runs with the garbage collector off so that the size of the
    program's heap does not show in it. ``seconds`` is the time spent in
    samples so far, to be taken out of any interval timed around them.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.seconds = 0.0

    def _tick(self, _signum, _frame) -> None:
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        reference()
        seconds = time.perf_counter() - start
        if collecting:
            gc.enable()
        self.samples.append(seconds)
        self.seconds += seconds

    def start(self) -> None:
        reference()  # outside the samples: first-call set-up of csv, json, numpy
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def speed(samples: list[float]) -> float:
    """Calibration factor of one operation: ``REF_S`` over its median sample."""
    return REF_S / statistics.median(samples)


def main() -> None:
    ap = argparse.ArgumentParser(description="Run one gnbdim CLI command, calibrated.")
    ap.add_argument("--stats", required=True)
    ap.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    sys.argv = ["gnbdim", *cli_args]
    sampler = Sampler()
    sampler.start()
    try:
        # The CLI's own SystemExit, or an exception, leaves as under ``-m``.
        runpy.run_module("gnbdim.cli", run_name="__main__", alter_sys=True)
    finally:
        sampler.stop()
        with open(args.stats, "w", encoding="utf-8") as fh:
            json.dump({"samples": sampler.samples, "seconds": sampler.seconds}, fh)


if __name__ == "__main__":
    main()
