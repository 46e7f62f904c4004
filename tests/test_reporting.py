"""Report serialization: JSON round trips, CSV/.dat layout, SVG charts."""

import json
import math

import pytest

from pdlab.experiments import ExperimentReport, ReportRow
from pdlab.reporting import (
    report_from_dict,
    report_series_points,
    report_to_dict,
    svg_line_chart,
    write_csv,
    write_report_csv,
    write_report_dat,
    write_report_json,
    write_report_svg,
)


def sample_report() -> ExperimentReport:
    rows = (
        ReportRow(0, "residual", 1.25e-12, "max |lhs - rhs|"),
        ReportRow(1, "ratio[N=2]", 1.6644794391276474, "||a v||/||v||"),
        ReportRow(2, "ratio[N=3]", 2.468820964213923, "||a v||/||v||"),
        ReportRow(3, "sigma_hat[alpha=0]", math.inf, "localized fit"),
        ReportRow(4, "onset", math.nan, "first stable s"),
        ReportRow(5, "slope[s=-2.0]", 1.97, "log2 fit"),
    )
    return ExperimentReport(
        name="demo",
        parameters={"d": 0.0, "N_list": [2, 3], "symbol": "ChingSymbol d=0.0"},
        rows=rows,
        verdicts={"identity": True, "class": "blow-up"},
        environment={"grid": {"n": 1, "N": 2048}},
    )


class TestJsonRoundTrip:
    def test_dict_encodes_nonfinite_as_strings(self):
        obj = report_to_dict(sample_report())
        by_q = {r["quantity"]: r["value"] for r in obj["rows"]}
        assert by_q["sigma_hat[alpha=0]"] == "inf"
        assert by_q["onset"] == "nan"
        assert by_q["ratio[N=2]"] == 1.6644794391276474
        # strict parsers must accept the serialized form
        json.loads(json.dumps(obj))

    def test_round_trip_preserves_everything(self):
        rep = sample_report()
        back = report_from_dict(report_to_dict(rep))
        assert back.name == rep.name
        assert back.verdicts == rep.verdicts
        assert len(back.rows) == len(rep.rows)
        for a, b in zip(back.rows, rep.rows):
            assert a.quantity == b.quantity and a.formula == b.formula
            assert a.value == b.value or (math.isnan(a.value) and math.isnan(b.value))

    def test_file_round_trip_and_config_embedding(self, tmp_path):
        rep = sample_report()
        cfg = {"grid": {"n": 1, "N": 2048}, "params": {"d": 0.0}}
        path = tmp_path / "r.json"
        write_report_json(rep, path, config=cfg)
        obj = json.loads(path.read_text())
        assert obj["config"] == cfg
        back = report_from_dict(json.loads(path.read_text()))
        assert back.value("ratio[N=2]") == 1.6644794391276474
        assert math.isinf(back.value("sigma_hat[alpha=0]"))

    def test_no_config_key_when_absent(self, tmp_path):
        path = tmp_path / "r.json"
        write_report_json(sample_report(), path)
        assert "config" not in json.loads(path.read_text())


class TestCsv:
    def test_flat_csv_round_trips_floats(self, tmp_path):
        path = tmp_path / "r.csv"
        write_report_csv(sample_report(), path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "index,quantity,value,formula"
        assert len(lines) == 7
        cells = lines[2].split(",")
        assert cells[1] == "ratio[N=2]"
        assert float(cells[2]) == 1.6644794391276474

    def test_write_csv_basic(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ("a", "b"), [(1, 2), (3, 4)])
        assert path.read_text().strip().splitlines() == ["a,b", "1,2", "3,4"]


class TestDat:
    def test_series_points_extract_numeric_keys(self):
        pts = report_series_points(sample_report())
        assert [x for x, _, _ in pts["ratio"]] == [2.0, 3.0]
        assert pts["sigma_hat"][0][0] == 0.0
        assert pts["slope"][0][0] == -2.0

    def test_positional_fallback_for_non_numeric_keys(self):
        rows = (
            ReportRow(0, "est[F:s=0 -> L2]", 1.0, "f"),
            ReportRow(1, "est[B:s=0 -> L2]", 2.0, "f"),
        )
        rep = ExperimentReport("t", {}, rows, {}, {})
        pts = report_series_points(rep)
        assert [x for x, _, _ in pts["est"]] == [0.0, 1.0]

    def test_dat_blocks_are_gnuplot_readable(self, tmp_path):
        path = tmp_path / "r.dat"
        write_report_dat(sample_report(), path)
        text = path.read_text()
        blocks = [b for b in text.split("\n\n\n") if b.strip()]
        # header comment, three series, one scalars block
        assert len(blocks) == 5
        for block in blocks[1:]:
            for line in block.splitlines():
                if line.startswith("#") or not line.strip():
                    continue
                x, v = line.split("#")[0].split()
                float(x), float(v)
        assert "# series: ratio" in text
        assert "# scalars" in text


class TestSvg:
    def test_chart_has_polyline_per_series(self, tmp_path):
        path = tmp_path / "c.svg"
        svg_line_chart(
            {"a": [(0, 1.0), (1, 2.0), (2, 4.0)], "b": [(0, 3.0), (2, 1.0)]},
            path,
            title="demo",
        )
        text = path.read_text()
        assert text.count("<polyline") == 2
        assert text.startswith("<svg")
        assert "demo" in text

    def test_single_point_becomes_marker(self, tmp_path):
        path = tmp_path / "c.svg"
        svg_line_chart({"a": [(1.0, 2.0)]}, path)
        assert "<circle" in path.read_text()

    def test_log_axis_requires_positive(self, tmp_path):
        with pytest.raises(ValueError):
            svg_line_chart({"a": [(0, -1.0), (1, 2.0)]}, tmp_path / "c.svg", log_y=True)
        with pytest.raises(ValueError):
            svg_line_chart({}, tmp_path / "c.svg")

    def test_report_chart_skips_nonfinite(self, tmp_path):
        path = tmp_path / "r.svg"
        write_report_svg(sample_report(), path)
        text = path.read_text()
        assert "<polyline" in text
        assert "inf" not in text.lower().replace("information", "")

    def test_deterministic_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        write_report_svg(sample_report(), p1)
        write_report_svg(sample_report(), p2)
        assert p1.read_bytes() == p2.read_bytes()
