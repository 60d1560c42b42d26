"""Closed-loop scenario sweep: one client, one process, one plan at a time.

Each plan runs load_config_dict -> run_dimension -> build_summary and
dump_json -> sites_to_geojson and dump_json on a fixed record set read
once during set-up. A pass plans every generated config once; passes
repeat until the time is up, and from the second pass on every plan's
output must be byte-identical to the first once the timestamp is masked.

    python3 bench/sweep.py --work DIR --seconds S --trace 0|1 --result FILE [--spans FILE]

Untraced passes run under a ``calib.Sampler``: each plan's time leaves
out the reference samples that fell inside it, and each pass records its
samples, by which ``run.py`` calibrates that pass's plan times. With
``--trace 1`` untraced and traced passes alternate, so the trace overhead
is measured under the same conditions as the plans themselves; traced
passes run without the sampler.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import statistics
import time
from pathlib import Path

import calib
from tracer import Tracer

SETUP_REPEATS = 5
WARMUP_PLANS = 20
_TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--spans", type=Path)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    # Module attributes, not imported names, so the tracer's rebinding applies.
    from gnbdim import config, pipeline
    from gnbdim.errors import InfeasibleError
    from gnbdim.ingest import read_cells

    manifest = json.loads((args.work / "manifest.json").read_text(encoding="utf-8"))
    configs = json.loads((args.work / manifest["configs"]).read_text(encoding="utf-8"))
    input_path = args.work / manifest["input"]
    input_sha = hashlib.sha256(input_path.read_bytes()).hexdigest()
    want_area = manifest["window"]

    # Set-up: building the fixed record set, timed several times.
    setup = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        records, report = read_cells(input_path)
        setup.append(time.perf_counter() - t)

    digests: dict[int, str] = {}
    failures: list[str] = []
    attempted = 0

    def plan(i: int, doc: dict, sampler: calib.Sampler | None = None) -> tuple[float, float]:
        """One plan, timed; the output checks run after the clock stops.

        The times leave out the reference samples taken inside the plan.
        """
        nonlocal attempted
        attempted += 1
        sampled = sampler.seconds if sampler else 0.0
        t, c = time.perf_counter(), time.process_time()
        error = summary = None
        try:
            cfg = config.load_config_dict(doc["config"])
            outcome = pipeline.run_dimension(cfg, records)
            summary = pipeline.build_summary(cfg, report, outcome, input_sha)
            summary_text = pipeline.dump_json(summary)
            sites_text = pipeline.dump_json(pipeline.sites_to_geojson(
                outcome.sites_lonlat, outcome.result.deployment_radius_km))
        except InfeasibleError:
            error = "InfeasibleError"
        except Exception as exc:  # any other exception is a failed plan
            error = repr(exc)
        wall, cpu = time.perf_counter() - t, time.process_time() - c
        if sampler:
            sampled = sampler.seconds - sampled
            wall, cpu = wall - sampled, cpu - sampled

        expected = "InfeasibleError" if doc["infeasible"] else None
        problem = None
        if error != expected:
            problem = f"raised {error}, expected {expected}"
        elif summary is not None:
            area = summary["deployment_area"]
            got = {k: area[k] for k in ("row0", "col0", "total_weight")}
            digest = hashlib.sha256(
                (_TIMESTAMP.sub('"timestamp": ""', summary_text) + sites_text).encode()
            ).hexdigest()
            if got != want_area:
                problem = f"deployment area {got}, expected {want_area}"
            elif digests.setdefault(i, digest) != digest:
                problem = "output differs from the first pass"
        if problem:
            failures.append(f"config {i}: {problem}")
        return wall, cpu

    for i, doc in enumerate(configs[:WARMUP_PLANS]):
        plan(i, doc)
    attempted = 0
    failures.clear()

    tracer = Tracer(manifest["workload"], args.seed) if args.trace else None
    passes = []
    start = time.perf_counter()
    while (time.perf_counter() - start < args.seconds
           or len(passes) < (4 if args.trace else 3)):
        traced = bool(args.trace) and len(passes) % 2 == 1
        sampler = None if traced else calib.Sampler()
        if traced:
            tracer.op = len(passes)
            tracer.install()
        else:
            sampler.start()
        latencies, cpus = [], []
        try:
            for i, doc in enumerate(configs):
                if traced:
                    with tracer.span("sweep.plan"):
                        wall, cpu = plan(i, doc)
                else:
                    wall, cpu = plan(i, doc, sampler)
                latencies.append(wall)
                cpus.append(cpu)
        finally:
            if traced:
                tracer.uninstall()
            else:
                sampler.stop()
        passes.append({"traced": traced, "op": len(passes), "wall_s": sum(latencies),
                       "cpu_s": sum(cpus), "plans": len(latencies),
                       "latencies_s": latencies, "cpus_s": cpus,
                       "ref_samples_s": sampler.samples if sampler else []})

    if tracer is not None and args.spans:
        tracer.write(str(args.spans))
    args.result.write_text(json.dumps({
        "setup_build_s": statistics.median(setup),
        "records": len(records),
        "attempted": attempted,
        "failures": failures,
        "passes": passes,
    }), encoding="utf-8")


if __name__ == "__main__":
    main()
