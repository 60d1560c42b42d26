"""Command-line entry points orchestrating the dimensioning pipeline.

Exit codes partition outcomes: 0 success (a non-converged fixed point is
still a reportable success), 2 bad input or configuration, 3 model
infeasibility (no path-loss budget or no subscriber fits a cell).
"""

from __future__ import annotations

import logging
import os
import sys
from contextlib import contextmanager

# gnbdim makes no BLAS call, and OpenBLAS starts worker threads when numpy is
# imported; a caller's own setting wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import click

from . import __version__, density, pipeline
from .config import RunConfig, flag_number, load_config_dict, load_filters, read_document
from .errors import ConfigError, GnbdimError, InfeasibleError
from .ingest import filter_records, read_cells, write_cells

EXIT_BAD_INPUT = 2
EXIT_INFEASIBLE = 3


def _setup_logging() -> None:
    # A level name maps to its number; any other text to a "Level ..." string.
    level = logging.getLevelName(os.environ.get("GNBDIM_LOG", "WARNING").upper())
    logging.basicConfig(
        level=level if isinstance(level, int) else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )


@contextmanager
def _exit_codes():
    """Exit 3 on model infeasibility, naming its class, and 2 on any other
    :class:`GnbdimError`, with one ``error:`` line: the one place that
    picks an exit code."""
    try:
        yield
    except InfeasibleError as exc:
        click.echo(f"error: {type(exc).__name__}: {exc}", err=True)
        sys.exit(EXIT_INFEASIBLE)
    except GnbdimError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_BAD_INPUT)


def _write_outputs(out_dir: str | None, texts: dict[str, str]) -> None:
    """Write the named texts into ``out_dir``, all or none, and say where."""
    paths = pipeline.write_outputs(out_dir or ".", texts)
    click.echo("wrote " + " and ".join(map(str, paths)))


def _window(text: str | None) -> dict:
    """``--window WxH`` as ``window`` section values."""
    if text is None:
        return {}
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise ConfigError(f"--window expects WxH, got {text}")
    return {"w_cols": flag_number(parts[0]), "h_rows": flag_number(parts[1])}


def _filter_flags(radio: str | None, plmn: str | None, bbox: str | None) -> dict:
    """The filter flags as ``filters`` section values; None where not given."""
    return {
        "radio": None if radio is None else radio.upper(),
        "plmn": plmn,
        "bbox": None if bbox is None else [flag_number(p) for p in bbox.split(",")],
    }


def _load_config(path: str, flags: dict) -> RunConfig:
    """The config file with the given flags written over its keys, loaded.

    ``flags`` maps a top-level key to its flag value, or a section to a
    dict of them; None means not given. A section that is not an object
    is left as it is, for the loader to reject. The result names an input.
    """
    doc = read_document(path)
    if isinstance(doc, dict):
        for name, value in flags.items():
            if isinstance(value, dict):
                target = doc.setdefault(name, {})
                if isinstance(target, dict):
                    target.update((k, v) for k, v in value.items() if v is not None)
            elif value is not None:
                doc[name] = value
    cfg = load_config_dict(doc)
    if not cfg.input_path:
        raise ConfigError("no input: give --input or set 'input' in the config")
    return cfg


@click.group()
@click.version_option(version=__version__, prog_name="gnbdim")
def main() -> None:
    """Dimension a 5G deployment area from crowdsourced tower data."""
    _setup_logging()


@main.command()
@click.option("--input", "input_path", required=True, help="Tower CSV (.gz accepted).")
@click.option("--out", "out_dir", default=".", help="Output directory.")
@click.option("--radio", default=None, help="Keep one radio technology (e.g. LTE).")
@click.option("--plmn", default=None, help="Keep one operator (5-6 digit PLMN).")
@click.option("--bbox", default=None, help="minlon,minlat,maxlon,maxlat")
def ingest(input_path, out_dir, radio, plmn, bbox) -> None:
    """Validate and filter records; write canonical CSV, report to stdout."""
    with _exit_codes():
        radio, plmn, bbox = load_filters(_filter_flags(radio, plmn, bbox))
        records, report = read_cells(input_path)
        records = filter_records(records, radio=radio, plmn=plmn, bbox=bbox)
        pipeline.write_outputs(out_dir, {"records.csv": lambda path: write_cells(path, records)})
        click.echo(pipeline.dump_json(report.to_dict()), nl=False)


@main.command("density")
@click.option("--config", "config_path", required=True, help="JSON run configuration.")
@click.option("--input", "input_path", default=None, help="Tower CSV; defaults to config input.")
@click.option("--out", "out_dir", default=None, help="Output directory.")
@click.option("--window", default=None, help="Search window as WxH tiles.")
def density_cmd(config_path, input_path, out_dir, window) -> None:
    """Rasterize records and locate the deployment area."""
    with _exit_codes():
        cfg = _load_config(
            config_path, {"input": input_path, "out": out_dir, "window": _window(window)}
        )
        records, _report = read_cells(cfg.input_path)
        grid, area = pipeline.locate_area(cfg, records)
        _write_outputs(cfg.out_dir, {
            "grid.csv": density.grid_to_csv(grid),
            "fivegda.geojson": pipeline.dump_json(density.area_to_geojson(area, cfg.grid)),
        })


@main.command()
@click.option("--config", "config_path", required=True, help="JSON run configuration.")
@click.option("--input", "input_path", default=None, help="Tower CSV; defaults to config input.")
@click.option("--out", "out_dir", default=None, help="Output directory.")
@click.option("--window", default=None, help="Search window as WxH tiles.")
@click.option("--radio", default=None, help="Filter override.")
@click.option("--plmn", default=None, help="Filter override.")
@click.option("--bbox", default=None, help="Filter override.")
def dimension(config_path, input_path, out_dir, window, radio, plmn, bbox) -> None:
    """Run the full pipeline and write summary.json plus sites.geojson."""
    with _exit_codes():
        cfg = _load_config(config_path, {
            "input": input_path,
            "out": out_dir,
            "window": _window(window),
            "filters": _filter_flags(radio, plmn, bbox),
        })
        records, report = read_cells(cfg.input_path)
        outcome = pipeline.run_dimension(cfg, records)
        summary = pipeline.build_summary(
            cfg, report, outcome, pipeline.sha256_of(cfg.input_path)
        )
        sites = pipeline.sites_to_geojson(
            outcome.sites_lonlat, outcome.result.deployment_radius_km
        )
        _write_outputs(cfg.out_dir, {
            "summary.json": pipeline.dump_json(summary),
            "sites.geojson": pipeline.dump_json(sites),
        })
        result = outcome.result
        if not result.converged:
            click.echo(
                f"warning: load fixed point did not converge after {result.iterations} "
                f"iterations (assumed {result.assumed_load:.3f}, actual {result.actual_load:.3f})",
                err=True,
            )


if __name__ == "__main__":
    main()
