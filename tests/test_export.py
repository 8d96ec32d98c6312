"""export_csv writes rows without a CSV writer, so nothing may need quoting.

Every exported file must parse back with csv.reader into rows of the
header's width, every float cell must be the shortest text of the very
double it came from, and no label that reaches a cell may hold a comma, a
quote or a line break.
"""

import csv
import math

import pytest

from cablewatch import localization, retiming
from cablewatch.simulate import export_csv, run
from test_golden import GOLDEN

UNSAFE = (",", '"', "\r", "\n")


def float_columns(report):
    """The doubles behind each float column of each file, in row order."""
    return {
        "detections.csv": {
            "arrival_ref_us": [d.arrival_ref_us for d in report.detections],
            "max_amplitude_g": [d.max_amplitude_g for d in report.detections],
        },
        "retimed.csv": {
            "retimed_us": [e.retimed_us for e in report.retimed],
            "amplitude_g": [e.amplitude_g for e in report.retimed],
        },
        "estimates.csv": {
            "v_est_m_s": [e.estimate.v_est_m_s for e in report.estimates],
            "x_est_m": [e.estimate.x_est_m for e in report.estimates],
            "x_true_m": [e.x_true_m for e in report.estimates],
            "abs_error_m": [e.abs_error_m for e in report.estimates],
        },
    }


def reads_back_as(text, value):
    x = float(text)
    return repr(x) == text and (x == value or (math.isnan(x) and math.isnan(value)))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_exported_csvs_parse_back_cell_for_cell(name, tmp_path):
    make, _ = GOLDEN[name]
    report = run(make())
    tables = {}
    for path in export_csv(report, tmp_path):
        with path.open(newline="") as f:
            header, *rows = csv.reader(f)
        assert all(len(row) == len(header) for row in rows), path.name
        tables[path.name] = [dict(zip(header, row)) for row in rows]
    for file, columns in float_columns(report).items():
        for column, values in columns.items():
            cells = [row[column] for row in tables[file]]
            assert len(cells) == len(values)
            assert all(isinstance(v, float) for v in values)
            assert all(reads_back_as(c, v) for c, v in zip(cells, values)), (file, column)
    # pre_sync is the text form of period_index -1
    assert [row["pre_sync"] for row in tables["detections.csv"]] == [
        "true" if d.period_index == -1 else "false" for d in report.detections
    ]
    summary = tables["summary.csv"]
    assert [row["metric"] for row in summary] == list(report.summary)
    for row, value in zip(summary, report.summary.values()):
        if isinstance(value, float):
            assert reads_back_as(row["value"], value), row
        else:
            assert row["value"] == str(value), row


def test_no_label_needs_quoting():
    flags = [v for mod in (localization, retiming)
             for k, v in vars(mod).items() if k.startswith("FLAG_")]
    assert len(flags) == 5
    labels = set(flags)
    for name, (make, _) in GOLDEN.items():
        report = run(make())
        labels |= {d.source for d in report.detections}
        labels |= {e.matched for e in report.estimates}
        labels |= {e.flag for e in report.retimed if e.flag}
        labels |= {f for e in report.estimates for f in e.estimate.flags}
    # both source forms and the matched form are among them
    assert {label.split(":")[0] for label in labels if ":" in label} == {"rupture", "spurious"}
    assert not [label for label in labels if any(c in label for c in UNSAFE)]
