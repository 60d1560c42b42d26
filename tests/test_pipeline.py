"""The summary and area documents hold copies of the plan's records."""

from __future__ import annotations

from gnbdim.density import area_to_geojson
from gnbdim.ingest import IngestReport
from gnbdim.pipeline import build_summary, run_dimension


def test_summary_sections_are_copies(base_config, dense_records):
    outcome = run_dimension(base_config, dense_records)
    assert outcome.cost is not None
    report = IngestReport(rows_read=49, rows_kept=49, rows_rejected=0, reject_reasons={})
    records = (outcome.area, outcome.result, outcome.cost, report)
    before = [dict(vars(record)) for record in records]

    summary = build_summary(base_config, report, outcome, "0" * 64)
    sections = [summary[name] for name in ("deployment_area", "dimensioning", "cost", "ingest")]
    sections.append(area_to_geojson(outcome.area, base_config.grid)["properties"])
    for section in sections:
        for key in section:
            section[key] = "changed"

    assert [vars(record) for record in records] == before
