"""The summary and area documents hold copies of the plan's records; outputs
are written all or none."""

from __future__ import annotations

import pytest

from gnbdim.density import area_to_geojson
from gnbdim.ingest import IngestReport
from gnbdim.pipeline import build_summary, run_dimension, write_outputs


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


@pytest.mark.parametrize("error", [ValueError("a writer's bug"), KeyboardInterrupt()])
def test_an_exception_in_a_writer_leaves_out_dir_as_it_was(tmp_path, error):
    (tmp_path / "a.txt").write_text("before", encoding="utf-8")

    def writer(path):
        path.write_text("half a file", encoding="utf-8")
        raise error

    with pytest.raises(type(error)) as caught:
        write_outputs(tmp_path, {"a.txt": "after", "records.csv": writer})
    assert caught.value is error
    assert [path.name for path in tmp_path.iterdir()] == ["a.txt"]
    assert (tmp_path / "a.txt").read_text(encoding="utf-8") == "before"
