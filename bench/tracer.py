"""Spans around the calls into gnbdim's public functions, for the traced run.

No span lives inside ``src/``: :meth:`Tracer.install` rebinds each traced
function, in every loaded ``gnbdim`` module that refers to it, to a
wrapper that records a span. Spans are held in memory and written out
as JSON lines when the traced process ends.

Run as a script it is the traced stand-in for ``python -m gnbdim.cli``:

    python3 bench/tracer.py --spans FILE --workload W --seed N -- dimension --config C
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import os
import resource
import sys
import time
from contextlib import contextmanager

# Span name -> (module, function). The span name's prefix is its layer;
# ``coverage``, ``capacity`` and ``nr`` run inside ``balance.iterate_balance``.
TRACED = {
    "config.load_config": ("gnbdim.config", "load_config"),
    "config.load_config_dict": ("gnbdim.config", "load_config_dict"),
    "ingest.read_cells": ("gnbdim.ingest", "read_cells"),
    "ingest.filter_records": ("gnbdim.ingest", "filter_records"),
    "ingest.write_cells": ("gnbdim.ingest", "write_cells"),
    "density.bin_records": ("gnbdim.density", "bin_records"),
    "density.find_5gda": ("gnbdim.density", "find_5gda"),
    "balance.iterate_balance": ("gnbdim.balance", "iterate_balance"),
    "economics.cost_per_bit": ("gnbdim.economics", "cost_per_bit"),
    "pipeline.run_dimension": ("gnbdim.pipeline", "run_dimension"),
    "pipeline.site_lattice": ("gnbdim.pipeline", "site_lattice"),
    "pipeline.build_summary": ("gnbdim.pipeline", "build_summary"),
    "pipeline.dump_json": ("gnbdim.pipeline", "dump_json"),
    "pipeline.sites_to_geojson": ("gnbdim.pipeline", "sites_to_geojson"),
    "pipeline.sha256_of": ("gnbdim.pipeline", "sha256_of"),
}
LAYERS = ("cli", "config", "ingest", "density", "balance", "economics", "pipeline")


def _rss_hwm_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _counts(name: str, args: dict, result) -> dict:
    """Work counts at a span's boundary, read from its arguments and result."""
    if name == "ingest.read_cells":
        report = result[1]
        return {"rows_read": report.rows_read, "rows_kept": report.rows_kept}
    if name == "ingest.filter_records":
        return {"rows_in": len(args["records"]), "rows_out": len(result)}
    if name == "ingest.write_cells":
        return {"rows": len(args["records"])}
    if name == "density.bin_records":
        return {"records": len(args["records"]), "tiles": int(result.weight.size),
                "outside": int(result.n_outside)}
    if name == "density.find_5gda":
        return {"tiles": int(args["grid"].weight.size)}
    if name == "balance.iterate_balance":
        return {"iterations": result.iterations, "converged": bool(result.converged)}
    if name == "pipeline.site_lattice":
        return {"sites": len(result)}
    if name == "pipeline.dump_json":
        return {"bytes": len(result.encode("utf-8"))}
    if name == "pipeline.sha256_of":
        return {"bytes": os.path.getsize(args["path"])}
    return {}


class Tracer:
    """In-memory span recorder; ``op`` groups the spans of one operation."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.op = 0
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append({
            "id": idx, "name": name, "start": time.perf_counter(), "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op, "workload": self.workload, "seed": self.seed,
        })
        self._stack.append(idx)
        try:
            yield self.spans[idx]
        finally:
            self.spans[idx]["end"] = time.perf_counter()
            self._stack.pop()
            self.spans[idx]["rss_hwm_mb"] = _rss_hwm_mb()

    def _wrap(self, name: str, fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            rec["counts"] = _counts(name, sig.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every traced function wherever a gnbdim module refers to it."""
        import gnbdim.cli  # noqa: F401  (loads every module the CLI uses)

        modules = [m for n, m in sys.modules.items()
                   if n == "gnbdim" or n.startswith("gnbdim.")]
        for name, (mod_name, attr) in TRACED.items():
            original = getattr(sys.modules[mod_name], attr)
            wrapped = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def summarize(spans: list[dict]) -> dict:
    """Per-layer self time and per-function totals over one operation's spans.

    A span's self time is its duration minus the durations of its direct
    children; spans of one process never overlap except by nesting.
    """
    child: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] = child.get(s["parent"], 0.0) + s["end"] - s["start"]
    layer_self = {layer: 0.0 for layer in LAYERS}
    total: dict[str, float] = {}
    counts: dict[str, dict] = {}
    hwm: dict[str, float] = {}
    for s in spans:
        dur = s["end"] - s["start"]
        layer = s["name"].split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += dur - child.get(s["id"], 0.0)
        total[s["name"]] = total.get(s["name"], 0.0) + dur
        agg = counts.setdefault(s["name"], {})
        agg["calls"] = agg.get("calls", 0) + 1
        for k, v in s.get("counts", {}).items():
            agg[k] = agg.get(k, 0) + v
        hwm[s["name"]] = max(hwm.get(s["name"], 0.0), s["rss_hwm_mb"])
    return {"layer_self": layer_self, "total": total, "counts": counts, "hwm": hwm}


def main() -> None:
    ap = argparse.ArgumentParser(description="Run one gnbdim CLI command with spans.")
    ap.add_argument("--spans", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    tracer = Tracer(args.workload, args.seed)
    tracer.install()
    from gnbdim import cli

    code = 0
    try:
        with tracer.span("cli.main"):
            cli.main.main(args=cli_args, prog_name="gnbdim", standalone_mode=False)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.write(args.spans)
    sys.exit(code)


if __name__ == "__main__":
    main()
