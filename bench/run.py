"""gnbdim benchmark: one workload, one seed, one JSON result line at the end.

    python3 bench/run.py --workload export-clean --seed 1 --seconds 20 --trace 0

The program under test is this checkout's ``src/gnbdim``, its CLI module
run as ``python -m gnbdim.cli`` runs it (through the stand-ins ``calib.py``
and ``tracer.py``) with ``src`` on ``PYTHONPATH``; it only ever sees
the files the seeded generator (``gen.py``) writes before timing starts.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see README.md for every name and the layer ->
end-to-end map). Untraced operations run under the reference sampler of
``calib.py`` and their times are calibrated to its speed (README.md,
"Calibrated times"). Work files go to ``.bench_work/`` in the checkout
and are removed at the end; traced runs keep their spans in
``.bench_work/traces/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import calib
import gen
from tracer import LAYERS, summarize

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("export-clean", "ingest-dirty-gz", "wide-grid", "scenario-sweep")
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 150.0
_TIMESTAMP = re.compile(rb'"timestamp": "[^"]*"')

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "rows_per_s": "rows/s",
    "peak_rss_mb": "MB",
    "plans_per_s": "plans/s",
    "plan_p50_ms": "ms",
    "plan_p99_ms": "ms",
}
PER_LAYER = {
    "ingest.read_cells.s": "s",
    "ingest.read_cells.rows_per_s": "rows/s",
    "ingest.read_cells.rss_hwm_mb": "MB",
    "ingest.kept_ratio": "ratio",
    "ingest.filter_records.s": "s",
    "ingest.filter_records.kept_ratio": "ratio",
    "ingest.write_cells.s": "s",
    "ingest.write_cells.rows_per_s": "rows/s",
    "density.bin_records.s": "s",
    "density.bin_records.rss_hwm_mb": "MB",
    "density.tiles": "count",
    "density.outside_ratio": "ratio",
    "density.find_5gda.s": "s",
    "density.find_5gda.tiles_per_s": "tiles/s",
    "balance.iterate_balance.s": "s",
    "balance.iterations": "count",
    "balance.converged_ratio": "ratio",
    "economics.cost_per_bit.s": "s",
    "pipeline.site_lattice.s": "s",
    "pipeline.sites": "count",
    "pipeline.serialize.s": "s",
    "pipeline.output_bytes": "bytes",
    "pipeline.sha256_of.s": "s",
    "pipeline.sha256_of.mb_per_s": "MB/s",
    "config.load_config.s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot measure this tree at all."""


@dataclass
class Child:
    code: int
    wall: float
    cpu: float
    rss_mb: float
    stdout: bytes
    stderr: bytes


@dataclass
class Timing:
    """One untraced operation: its times without the samples, and its factor."""
    wall: float
    cpu: float
    speed: float


def run_child(argv: list[str], cwd: Path) -> Child:
    """Run ``python argv`` on this checkout's src; rusage of this child only.

    ``os.wait4`` gives the child's own peak RSS, where RUSAGE_CHILDREN
    would report the high-water mark over every child so far.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out_path, err_path = cwd / "child.stdout", cwd / "child.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err,
                                cwd=cwd, env=env)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        code=proc.returncode,
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        stdout=out_path.read_bytes(),
        stderr=err_path.read_bytes(),
    )


def _tail(data: bytes) -> str:
    return data.decode("utf-8", "replace").strip()[-300:]


def provenance(work: Path) -> dict:
    """Which tree was measured: the imported gnbdim, its sources, the commit."""
    child = run_child(["-c", "import gnbdim, gnbdim.cli; print(gnbdim.__file__)"], work)
    if child.code != 0:
        raise BenchError(f"cannot import gnbdim from {SRC}: {_tail(child.stderr)}")
    gnbdim_file = child.stdout.decode().strip()
    if not Path(gnbdim_file).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"gnbdim imported from {gnbdim_file}, not from {SRC}")
    digest = hashlib.sha256()
    for path in sorted((SRC / "gnbdim").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"gnbdim_file": gnbdim_file, "git_commit": commit,
            "src_sha256": digest.hexdigest()}


def setup_seconds(work: Path) -> tuple[float, float]:
    """Median of interpreter start plus ``import gnbdim.cli`` (a --version run).

    Returns it calibrated and uncalibrated: each --version run alternates
    with the fixed start reference of ``calib.py``, and the median is scaled
    by ``calib.START_S`` over the reference's median.
    """
    walls, refs = [], []
    for _ in range(SETUP_REPEATS):
        child = run_child(["-m", "gnbdim.cli", "--version"], work)
        if child.code != 0 or b"version" not in child.stdout:
            raise BenchError(f"gnbdim --version failed: {_tail(child.stderr)}")
        walls.append(child.wall)
        ref = run_child(calib.START_ARGV, work)
        if ref.code != 0:
            raise BenchError(f"start reference failed: {_tail(ref.stderr)}")
        refs.append(ref.wall)
    raw = statistics.median(walls)
    return raw * calib.START_S / statistics.median(refs), raw


def p99(values: list[float]) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[98]


# --- CLI workloads ------------------------------------------------------------


def cli_args(workload: str, manifest: dict, work: Path) -> list[str]:
    if workload == "ingest-dirty-gz":
        f = manifest["filters"]
        return ["ingest", "--input", str(work / manifest["input"]),
                "--out", str(work / "out"), "--radio", f["radio"],
                "--plmn", f["plmn"], "--bbox", f["bbox"]]
    return ["dimension", "--config", str(work / manifest["config"])]


def check_cli(workload: str, manifest: dict, work: Path, child: Child,
              input_sha: str, first: dict) -> str | None:
    """Compare one invocation's outputs with the manifest; None when correct."""
    if child.code != 0:
        return f"exit code {child.code}: {_tail(child.stderr)}"
    out = work / "out"
    if workload == "ingest-dirty-gz":
        report = json.loads(child.stdout)
        records = (out / "records.csv").read_bytes()
        outputs = child.stdout + records
    else:
        summary_bytes = (out / "summary.json").read_bytes()
        sites = (out / "sites.geojson").read_bytes()
        summary = json.loads(summary_bytes)
        report = summary["ingest"]
        outputs = _TIMESTAMP.sub(b'"timestamp": ""', summary_bytes) + sites
    want = {"rows_read": manifest["rows"], "rows_kept": manifest["rows_kept"],
            "rows_rejected": manifest["rows"] - manifest["rows_kept"],
            "reject_reasons": manifest["reject_reasons"]}
    got = {k: report.get(k) for k in want}
    if got != want:
        return f"ingest report {got}, expected {want}"
    if workload == "ingest-dirty-gz":
        kept = records.count(b"\n") - 1
        if kept != manifest["kept_after"]["radio+plmn+bbox"]:
            return f"records.csv has {kept} rows, expected {manifest['kept_after']}"
    else:
        if summary["input_sha256"] != input_sha:
            return "input_sha256 differs from sha256 of the input file"
        area = summary["deployment_area"]
        got_area = {k: area[k] for k in ("row0", "col0", "total_weight")}
        if got_area != manifest["window"]:
            return f"deployment area {got_area}, expected {manifest['window']}"
        if area["records_outside_grid"] != manifest["outside_grid"]:
            return f"{area['records_outside_grid']} records outside the grid, " \
                   f"expected {manifest['outside_grid']}"
        if not json.loads(sites)["features"]:
            return "sites.geojson has no sites"
    digest = hashlib.sha256(outputs).hexdigest()
    if first.setdefault("digest", digest) != digest:
        return "outputs differ from the first invocation (timestamp masked)"
    return None


def run_cli(workload, manifest, work, seed, seconds, trace):
    """Repeat the CLI invocation for ``seconds``; with trace, alternate traced."""
    args = cli_args(workload, manifest, work)
    input_sha = hashlib.sha256((work / manifest["input"]).read_bytes()).hexdigest()
    first: dict = {}
    untraced: list[Timing] = []
    traced: list[tuple[Child, list[dict]]] = []
    rss: list[float] = []
    failures: list[str] = []
    min_ops = 4 if trace else 3
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(untraced) + len(traced) < min_ops:
        shutil.rmtree(work / "out", ignore_errors=True)
        if trace and len(untraced) > len(traced):
            spans_path = work / "spans.jsonl"
            spans_path.unlink(missing_ok=True)
            child = run_child([str(BENCH / "tracer.py"), "--spans", str(spans_path),
                               "--workload", workload, "--seed", str(seed), "--", *args],
                              work)
            spans = [json.loads(line) for line in spans_path.read_text().splitlines()] \
                if spans_path.exists() else []
            for s in spans:
                s["op"] = len(traced)
            traced.append((child, spans))
        else:
            stats_path = work / "calib.json"
            stats_path.unlink(missing_ok=True)
            child = run_child([str(BENCH / "calib.py"), "--stats", str(stats_path),
                               "--", *args], work)
            rss.append(child.rss_mb)
            try:
                stats = json.loads(stats_path.read_text())
                untraced.append(Timing(child.wall - stats["seconds"],
                                       child.cpu - stats["seconds"],
                                       calib.speed(stats["samples"])))
            except (OSError, ValueError, KeyError, statistics.StatisticsError) as exc:
                # A failed invocation is counted below; a good one must be timed.
                if child.code == 0:
                    raise BenchError(f"cannot calibrate the CLI child: {exc!r}") from exc
        try:
            problem = check_cli(workload, manifest, work, child, input_sha, first)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problem = f"unreadable output: {exc!r}"
        if problem:
            failures.append(problem)

    if not untraced:
        raise BenchError(f"no invocation could be timed: {failures[:1]}")
    # Every invocation does identical work: the CLI workloads have one
    # distinct plan, so its latency percentiles are its median time.
    wall = statistics.median(t.wall * t.speed for t in untraced)
    metrics = {
        "wall_s": wall,
        "cpu_s": statistics.median(t.cpu * t.speed for t in untraced),
        "rows_per_s": manifest["rows"] / wall,
        "peak_rss_mb": statistics.median(rss),
        "plans_per_s": 1.0 / wall,
        "plan_p50_ms": wall * 1e3,
        "plan_p99_ms": wall * 1e3,
    }
    ops = [(c.wall, spans) for c, spans in traced]
    return metrics, ops, untraced, len(untraced) + len(traced), failures


# --- scenario sweep -----------------------------------------------------------


def run_sweep(workload, manifest, work, seed, seconds, trace):
    result_path, spans_path = work / "sweep.json", work / "spans.jsonl"
    child = run_child([str(BENCH / "sweep.py"), "--work", str(work),
                       "--seconds", str(seconds), "--trace", str(trace),
                       "--result", str(result_path), "--spans", str(spans_path),
                       "--seed", str(seed)], work)
    if child.code != 0 or not result_path.exists():
        raise BenchError(f"sweep worker exited {child.code}: {_tail(child.stderr)}")
    result = json.loads(result_path.read_text())
    untraced = [p for p in result["passes"] if not p["traced"]]
    # Each config is planned once per pass; its latency is the median over
    # the passes of its time calibrated at that pass's reference speed, and
    # the whole sweep is the sum over configs.
    speeds = [calib.speed(p["ref_samples_s"]) for p in untraced]

    def calibrated(key):
        return [statistics.median(x * f for x, f in zip(xs, speeds))
                for xs in zip(*(p[key] for p in untraced))]

    latencies, cpus = calibrated("latencies_s"), calibrated("cpus_s")
    wall = sum(latencies)
    metrics = {
        "setup_build_s": result["setup_build_s"],
        "wall_s": wall,
        "cpu_s": sum(cpus),
        "rows_per_s": result["records"] * len(latencies) / wall,
        "peak_rss_mb": child.rss_mb,
        "plans_per_s": len(latencies) / wall,
        "plan_p50_ms": statistics.median(latencies) * 1e3,
        "plan_p99_ms": p99(latencies) * 1e3,
    }
    ops = []
    if trace:
        spans = [json.loads(line) for line in spans_path.read_text().splitlines()]
        for p in result["passes"]:
            if p["traced"]:
                ops.append((p["wall_s"], [s for s in spans if s["op"] == p["op"]]))
    timings = [Timing(p["wall_s"], p["cpu_s"], f) for p, f in zip(untraced, speeds)]
    return metrics, ops, timings, result["attempted"], result["failures"]


# --- per-layer metrics from spans ---------------------------------------------


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer metrics of one operation (a CLI invocation or a sweep pass)."""
    s = summarize(spans)
    total, counts, hwm, self_s = s["total"], s["counts"], s["hwm"], s["layer_self"]

    def t(name):
        return total.get(name, 0.0)

    def c(name, key):
        return counts.get(name, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    read, filt, write = "ingest.read_cells", "ingest.filter_records", "ingest.write_cells"
    binr, find, bal = "density.bin_records", "density.find_5gda", "balance.iterate_balance"
    m = {
        "ingest.read_cells.s": t(read),
        "ingest.read_cells.rows_per_s": ratio(c(read, "rows_read"), t(read)),
        "ingest.read_cells.rss_hwm_mb": hwm.get(read, 0.0),
        "ingest.kept_ratio": ratio(c(read, "rows_kept"), c(read, "rows_read")),
        "ingest.filter_records.s": t(filt),
        "ingest.filter_records.kept_ratio": ratio(c(filt, "rows_out"), c(filt, "rows_in")),
        "ingest.write_cells.s": t(write),
        "ingest.write_cells.rows_per_s": ratio(c(write, "rows"), t(write)),
        "density.bin_records.s": t(binr),
        "density.bin_records.rss_hwm_mb": hwm.get(binr, 0.0),
        "density.tiles": c(binr, "tiles"),
        "density.outside_ratio": ratio(c(binr, "outside"), c(binr, "records")),
        "density.find_5gda.s": t(find),
        "density.find_5gda.tiles_per_s": ratio(c(find, "tiles"), t(find)),
        "balance.iterate_balance.s": t(bal),
        "balance.iterations": c(bal, "iterations"),
        "balance.converged_ratio": ratio(c(bal, "converged"), c(bal, "calls")),
        "economics.cost_per_bit.s": t("economics.cost_per_bit"),
        "pipeline.site_lattice.s": t("pipeline.site_lattice"),
        "pipeline.sites": c("pipeline.site_lattice", "sites"),
        "pipeline.serialize.s": t("pipeline.build_summary") + t("pipeline.dump_json")
        + t("pipeline.sites_to_geojson"),
        "pipeline.output_bytes": c("pipeline.dump_json", "bytes"),
        "pipeline.sha256_of.s": t("pipeline.sha256_of"),
        "pipeline.sha256_of.mb_per_s": ratio(c("pipeline.sha256_of", "bytes") / 1e6,
                                             t("pipeline.sha256_of")),
        "config.load_config.s": self_s["config"],
    }
    m.update({f"{layer}.self_s": v for layer, v in self_s.items()})
    return m


def traced_metrics(ops, untraced_wall: float) -> dict:
    """Per-layer metrics of the median traced operation, and the trace overhead.

    One operation's spans, rather than medians per metric, so the layer
    times add up to that operation. Traced operations run without the
    reference sampler, so these times are not calibrated, and the overhead
    compares them with the untraced operations' uncalibrated wall time.
    """
    ops = sorted(ops, key=lambda op: op[0])
    wall, spans = ops[(len(ops) - 1) // 2]
    metrics = layer_metrics(spans)
    metrics["trace.overhead_s"] = statistics.median(w for w, _ in ops) - untraced_wall
    return metrics


# --- main -----------------------------------------------------------------------


def measure(args, work: Path) -> tuple[dict, int, list[str]]:
    """Generate the inputs, run the workload and return its named metrics."""
    manifest = gen.generate(args.workload, args.seed, work)
    prov = provenance(work)
    setup_s, setup_raw = setup_seconds(work)
    runner = run_sweep if args.workload == "scenario-sweep" else run_cli
    e2e, ops, timings, attempted, failures = runner(
        args.workload, manifest, work, args.seed, args.seconds, args.trace)
    e2e["setup_s"] = setup_s + e2e.pop("setup_build_s", 0.0)
    untraced_wall = statistics.median(t.wall for t in timings)
    print(f"# provenance {json.dumps(prov)}")
    print(f"# {args.workload} seed {args.seed}: {attempted} operations, "
          f"{len(failures)} failed")
    print(f"# uncalibrated: set-up {setup_raw} s, median operation {untraced_wall} s; "
          f"calibration factor per untraced operation "
          f"{' '.join(f'{t.speed:.3f}' for t in timings)}")
    for problem in failures[:10]:
        print(f"# FAILED {problem}")
    if not args.trace:
        return {k: (e2e[k], END_TO_END[k]) for k in END_TO_END}, attempted, failures
    layers = traced_metrics(ops, untraced_wall)
    traces = WORK / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    with open(traces / f"{args.workload}-seed{args.seed}.jsonl", "w") as fh:
        fh.write(json.dumps({"provenance": prov, "workload": args.workload,
                             "seed": args.seed}) + "\n")
        for _, spans in ops:
            for s in spans:
                fh.write(json.dumps(s) + "\n")
    return {k: (layers[k], PER_LAYER[k]) for k in PER_LAYER}, attempted, failures


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # Unwind on SIGTERM too, so a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "gnbdim" / "cli.py").is_file():
        print(f"error: no gnbdim sources under {SRC}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        metrics, attempted, failures = measure(args, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(f"error_rate {len(failures) / attempted} ratio")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
