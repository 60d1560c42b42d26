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
from .config import RunConfig, load_config
from .errors import ConfigError, GnbdimError, InfeasibleError, MissingHeaderError
from .identifiers import parse_plmn
from .ingest import Radio, filter_records, read_cells, write_cells

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


def _parse_bbox(text: str | None):
    if text is None:
        return None
    parts = text.split(",")
    if len(parts) != 4:
        raise ConfigError("--bbox expects minlon,minlat,maxlon,maxlat")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"--bbox has a non-numeric component: {text}") from None


def _parse_window(text: str | None):
    if text is None:
        return None
    try:
        w, h = text.lower().split("x")
        return int(w), int(h)
    except ValueError:
        raise ConfigError(f"--window expects WxH, got {text}") from None


def _parse_radio(text: str | None):
    if text is None:
        return None
    try:
        return Radio(text.upper())
    except ValueError:
        raise ConfigError(f"unknown radio technology {text!r}") from None


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
        records, report = _read_input(input_path)
        records = filter_records(
            records,
            radio=_parse_radio(radio),
            plmn=None if plmn is None else parse_plmn(plmn),
            bbox=_parse_bbox(bbox),
        )
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
        cfg = load_config(config_path)
        input_path = input_path or cfg.input_path
        if not input_path:
            raise ConfigError("no input: give --input or set 'input' in the config")
        records, _report = _read_input(input_path)
        records = filter_records(records, radio=cfg.radio, plmn=cfg.plmn, bbox=cfg.bbox)
        w_cols, h_rows = _parse_window(window) or (cfg.w_cols, cfg.h_rows)

        grid = density.bin_records(records, cfg.grid)
        area = density.find_5gda(grid, w_cols, h_rows)

        out = Path(out_dir or cfg.out_dir or ".")
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
        cfg = load_config(config_path)
        cfg = _apply_overrides(cfg, input_path, out_dir, window, radio, plmn, bbox)
        if not cfg.input_path:
            raise ConfigError("no input: give --input or set 'input' in the config")

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


def _apply_overrides(
    cfg: RunConfig, input_path, out_dir, window, radio, plmn, bbox
) -> RunConfig:
    from dataclasses import replace

    updates = {}
    if input_path:
        updates["input_path"] = input_path
    if out_dir:
        updates["out_dir"] = out_dir
    if window:
        w, h = _parse_window(window)
        updates["w_cols"], updates["h_rows"] = w, h
    if radio:
        updates["radio"] = _parse_radio(radio)
    if plmn:
        updates["plmn"] = parse_plmn(plmn)
    if bbox:
        updates["bbox"] = _parse_bbox(bbox)
    return replace(cfg, **updates) if updates else cfg


if __name__ == "__main__":
    main()
