"""Command-line entry points orchestrating the dimensioning pipeline.

Exit codes partition outcomes: 0 success (a non-converged fixed point is
still a reportable success), 2 bad input or configuration, 3 model
infeasibility (no path-loss budget or no subscriber fits a cell).
"""

from __future__ import annotations

import csv
import logging
import os
import sys
import zlib
from pathlib import Path

import click

from . import __version__, density, pipeline
from .config import RunConfig, load_config_dict, load_filters, read_document
from .errors import ConfigError, GnbdimError, InfeasibleError, MissingHeaderError
from .ingest import filter_records, read_cells, write_cells

log = logging.getLogger("gnbdim")

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_INFEASIBLE = 3


def _setup_logging() -> None:
    level = os.environ.get("GNBDIM_LOG", "WARNING").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _number(text: str):
    """A flag's number; other text is passed on for the config check to reject."""
    try:
        return float(text)
    except ValueError:
        return text


def _window(text: str | None) -> dict:
    """``--window WxH`` as ``window`` section values."""
    if text is None:
        return {}
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise ConfigError(f"--window expects WxH, got {text}")
    return {"w_cols": _number(parts[0]), "h_rows": _number(parts[1])}


def _filter_flags(radio: str | None, plmn: str | None, bbox: str | None) -> dict:
    """The filter flags as ``filters`` section values; None where not given."""
    return {
        "radio": None if radio is None else radio.upper(),
        "plmn": plmn,
        "bbox": None if bbox is None else [_number(p) for p in bbox.split(",")],
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


def _read_input(path: str):
    try:
        return read_cells(path)
    except FileNotFoundError:
        _fail(EXIT_BAD_INPUT, f"input file not found: {path}")
    except MissingHeaderError as exc:
        _fail(EXIT_BAD_INPUT, f"{path}: {exc}")
    except (OSError, EOFError, UnicodeDecodeError, zlib.error, csv.Error) as exc:
        # Undecodable text, a corrupt or truncated .gz, or a path that is
        # not a readable file.
        _fail(EXIT_BAD_INPUT, f"cannot read input {path}: {exc}")


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
    try:
        radio, plmn, bbox = load_filters(_filter_flags(radio, plmn, bbox))
        records, report = _read_input(input_path)
        records = filter_records(records, radio=radio, plmn=plmn, bbox=bbox)
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_cells(out / "records.csv", records)
        click.echo(pipeline.dump_json(report.to_dict()), nl=False)
    except GnbdimError as exc:
        _fail(EXIT_BAD_INPUT, str(exc))


@main.command("density")
@click.option("--config", "config_path", required=True, help="JSON run configuration.")
@click.option("--input", "input_path", default=None, help="Tower CSV; defaults to config input.")
@click.option("--out", "out_dir", default=None, help="Output directory.")
@click.option("--window", default=None, help="Search window as WxH tiles.")
def density_cmd(config_path, input_path, out_dir, window) -> None:
    """Rasterize records and locate the deployment area."""
    try:
        cfg = _load_config(
            config_path, {"input": input_path, "out": out_dir, "window": _window(window)}
        )
        records, _report = _read_input(cfg.input_path)
        grid, area = pipeline.locate_area(cfg, records)

        out = Path(cfg.out_dir or ".")
        out.mkdir(parents=True, exist_ok=True)
        (out / "grid.csv").write_text(density.grid_to_csv(grid), encoding="utf-8")
        (out / "fivegda.geojson").write_text(
            pipeline.dump_json(density.area_to_geojson(area, cfg.grid)), encoding="utf-8"
        )
        click.echo(f"wrote {out / 'grid.csv'} and {out / 'fivegda.geojson'}")
    except GnbdimError as exc:
        _fail(EXIT_BAD_INPUT, str(exc))


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
    try:
        cfg = _load_config(config_path, {
            "input": input_path,
            "out": out_dir,
            "window": _window(window),
            "filters": _filter_flags(radio, plmn, bbox),
        })
        records, report = _read_input(cfg.input_path)
        outcome = pipeline.run_dimension(cfg, records)

        out = Path(cfg.out_dir or ".")
        out.mkdir(parents=True, exist_ok=True)
        summary = pipeline.build_summary(
            cfg, report, outcome, pipeline.sha256_of(cfg.input_path)
        )
        (out / "summary.json").write_text(pipeline.dump_json(summary), encoding="utf-8")
        (out / "sites.geojson").write_text(
            pipeline.dump_json(
                pipeline.sites_to_geojson(
                    outcome.sites_lonlat, outcome.result.deployment_radius_km
                )
            ),
            encoding="utf-8",
        )
        click.echo(f"wrote {out / 'summary.json'} and {out / 'sites.geojson'}")
        if not outcome.result.converged:
            click.echo("warning: load fixed point did not converge", err=True)
    except InfeasibleError as exc:
        _fail(EXIT_INFEASIBLE, f"{type(exc).__name__}: {exc}")
    except GnbdimError as exc:
        _fail(EXIT_BAD_INPUT, str(exc))


if __name__ == "__main__":
    main()
