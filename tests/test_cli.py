"""Command-line interface."""

import csv
import re
import textwrap
import threading
import time

import pytest

from cablewatch.cli import main
from cablewatch.localization import FLAG_INSUFFICIENT_SENSORS

SCENARIO_YAML = textwrap.dedent(
    """
    geometry:
      sensor_ids: [1, 2, 3, 4]
      positions_m: [0.0, 10.0, 20.0, 30.0]
    drift_ppm: {1: 37, 2: -12, 3: 50, 4: -50}
    ruptures:
      - {position_m: 14.0, time_ref_us: 1500000}
    seed: 3
    """
)

GEOMETRY_YAML = "geometry:\n  sensor_ids: [1, 2, 3, 4]\n  positions_m: [0.0, 10.0, 20.0, 30.0]\n"

RETIMED_CSV = (
    "period_index,sensor_id,retimed_us,raw_ticks,amplitude_g,flag\n"
    "1,1,500002.8,1500003,1.0,\n"
)


@pytest.fixture
def scenario_file(tmp_path):
    p = tmp_path / "scene.yaml"
    p.write_text(SCENARIO_YAML)
    return p


class TestSimulate:
    def test_writes_four_csvs_and_exits_zero(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["simulate", str(scenario_file), "--out", str(out)])
        assert rc == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["detections.csv", "estimates.csv", "retimed.csv", "summary.csv"]
        stdout = capsys.readouterr().out
        assert "estimates_matched: 1" in stdout
        assert "wrote" in stdout

    def test_missing_scenario_exits_nonzero(self, tmp_path, capsys):
        rc = main(["simulate", str(tmp_path / "nope.yaml"), "--out", str(tmp_path)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_far_rupture_is_refused_before_any_run(self, tmp_path, capsys):
        # a typo of 1e13 us would mean ten million periods; the scenario
        # check names the field at once and nothing is run or written
        p = tmp_path / "far.yaml"
        p.write_text(SCENARIO_YAML.replace("time_ref_us: 1500000", "time_ref_us: 1e13"))
        out = tmp_path / "out"
        start = time.monotonic()
        rc = main(["simulate", str(p), "--out", str(out)])
        assert time.monotonic() - start < 0.5
        assert rc == 1
        assert "ruptures[0].time_ref_us needs a run of" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_scenario_reports_every_problem(self, tmp_path, capsys):
        p = tmp_path / "bad.yaml"
        p.write_text("geometry:\n  sensor_ids: [1, 2]\n  positions_m: [0.0, 5.0]\ncolour: red\n")
        rc = main(["simulate", str(p), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "colour" in err
        assert "at least 3 sensors" in err


@pytest.mark.parametrize("argv", [
    ["simulate", "scene.yaml", "--out", "out", "--seed", "1"],
    ["localize", "retimed.csv", "--geometry", "scene.yaml", "--window-us", "inf"],
], ids=["simulate_seed", "localize_window"])
def test_scenario_settings_have_no_override_flag(argv, capsys):
    # the scenario file is their one source; --window-us inf clustered a
    # whole period into one event, which the scenario check refuses
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


class TestLocalize:
    def test_localizes_exported_retimed_csv(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "out"
        main(["simulate", str(scenario_file), "--out", str(out)])
        geom = tmp_path / "geom.yaml"
        geom.write_text(GEOMETRY_YAML)
        capsys.readouterr()
        rc = main(["localize", str(out / "retimed.csv"), "--geometry", str(geom)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "x_est_m" in stdout
        # the 14 m rupture shows up in the offline pass too
        assert any(
            line.split()[3].startswith("14.0") or line.split()[3].startswith("13.9")
            for line in stdout.splitlines()[1:]
            if line.strip()
        )

    def test_clusters_with_the_scenario_files_window(self, tmp_path, capsys):
        # two ruptures 20 ms apart: the file's 5 ms window keeps them apart,
        # the 100 ms default would merge them
        scenario = tmp_path / "scene.yaml"
        scenario.write_text(
            GEOMETRY_YAML
            + "coincidence_window_us: 5000\n"
            + "ruptures:\n"
            + "  - {position_m: 14.0, time_ref_us: 1500000}\n"
            + "  - {position_m: 24.0, time_ref_us: 1520000}\n"
        )
        out = tmp_path / "out"
        main(["simulate", str(scenario), "--out", str(out)])
        assert len((out / "estimates.csv").read_text().splitlines()) == 1 + 2
        capsys.readouterr()
        rc = main(["localize", str(out / "retimed.csv"), "--geometry", str(scenario)])
        assert rc == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 2

    def test_reproduces_every_row_of_the_simulated_estimates(self, tmp_path, capsys):
        # ruptures in two periods, two of them 20 ms apart, and a lone
        # spurious hit that is flagged rather than localized
        scenario = tmp_path / "scene.yaml"
        scenario.write_text(
            GEOMETRY_YAML
            + "coincidence_window_us: 5000\n"
            + "ruptures:\n"
            + "  - {position_m: 14.0, time_ref_us: 1500000}\n"
            + "  - {position_m: 24.0, time_ref_us: 1520000}\n"
            + "  - {position_m: 3.5, time_ref_us: 2300000}\n"
            + "spurious_events:\n"
            + "  - {sensor_id: 2, time_ref_us: 2600000}\n"
        )
        out = tmp_path / "out"
        main(["simulate", str(scenario), "--out", str(out)])
        with open(out / "estimates.csv", newline="") as f:
            want = [
                [
                    row["period_index"], row["cluster_index"], row["n_sensors"],
                    f"{float(row['x_est_m']):.4f}", f"{float(row['v_est_m_s']):.2f}",
                    row["flags"] or "-",
                ]
                for row in csv.DictReader(f)
            ]
        assert len(want) == 4
        assert {w[5] for w in want} == {"-", FLAG_INSUFFICIENT_SENSORS}
        # the same rows reversed: each period is localized from its own rows
        header, *rows = (out / "retimed.csv").read_text().splitlines(keepends=True)
        reversed_csv = tmp_path / "reversed.csv"
        reversed_csv.write_text(header + "".join(reversed(rows)))
        for retimed in (out / "retimed.csv", reversed_csv):
            capsys.readouterr()
            rc = main(["localize", str(retimed), "--geometry", str(scenario)])
            assert rc == 0
            lines = capsys.readouterr().out.splitlines()
            assert [line.split() for line in lines[1:]] == want

    def test_empty_csv_is_fine(self, tmp_path, capsys):
        p = tmp_path / "retimed.csv"
        p.write_text("period_index,sensor_id,retimed_us,raw_ticks,amplitude_g,flag\n")
        geom = tmp_path / "geom.yaml"
        geom.write_text(GEOMETRY_YAML)
        rc = main(["localize", str(p), "--geometry", str(geom)])
        assert rc == 0
        assert "no retimed events" in capsys.readouterr().out

    def test_flagged_row_keeps_its_nan(self, tmp_path, capsys):
        p = tmp_path / "retimed.csv"
        p.write_text(RETIMED_CSV + "1,2,nan,77,0.9,out_of_period\n")
        geom = tmp_path / "geom.yaml"
        geom.write_text(GEOMETRY_YAML)
        rc = main(["localize", str(p), "--geometry", str(geom)])
        assert rc == 0
        assert FLAG_INSUFFICIENT_SENSORS in capsys.readouterr().out

    @pytest.mark.parametrize(
        "text, problem",
        [
            (
                "geometry:\n  sensor_ids: 5\n  positions_m: [0.0, 1.0]\n",
                "field 'geometry.sensor_ids' must be a list, got 5",
            ),
            ("geometry:\n  sensor_ids: [1, 2, 3\n", "scenario is not valid YAML"),
            (GEOMETRY_YAML + "colour: red\n", "unknown field 'colour'"),
            (GEOMETRY_YAML + "  colour: red\n", "unknown field 'geometry.colour'"),
            # --geometry takes a scenario file; its sensors sit under geometry:
            (
                "sensor_ids: [1, 2, 3, 4]\npositions_m: [0.0, 10.0, 20.0, 30.0]\n",
                "field 'geometry' is required",
            ),
        ],
        ids=[
            "sensor_ids_scalar", "invalid_yaml", "unknown_field", "unknown_field_nested",
            "bare_geometry",
        ],
    )
    def test_bad_geometry_file_is_an_error(self, tmp_path, capsys, text, problem):
        p = tmp_path / "retimed.csv"
        p.write_text(RETIMED_CSV)
        geom = tmp_path / "geom.yaml"
        geom.write_text(text)
        rc = main(["localize", str(p), "--geometry", str(geom)])
        assert rc == 1
        assert problem in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, problem",
        [
            (
                "period_index,sensor_id,retimed_us,amplitude_g,flag\n1,1,500002.8,1.0,\n",
                "retimed.csv: missing column raw_ticks",
            ),
            (
                RETIMED_CSV + "2,two,512.0,512,1.0,\n",
                "retimed.csv, line 3, column sensor_id: bad value 'two'",
            ),
            *(
                (
                    RETIMED_CSV + f"1,2,{time},1500000,1.0,\n",
                    f"retimed.csv, line 3, column retimed_us: bad value '{time}'",
                )
                for time in ("nan", "inf", "-inf")
            ),
        ],
        ids=["missing_column", "bad_cell", "unflagged_nan", "unflagged_inf", "unflagged_-inf"],
    )
    def test_malformed_retimed_csv_is_named_by_line_and_column(
        self, tmp_path, capsys, text, problem
    ):
        p = tmp_path / "retimed.csv"
        p.write_text(text)
        geom = tmp_path / "geom.yaml"
        geom.write_text(GEOMETRY_YAML)
        rc = main(["localize", str(p), "--geometry", str(geom)])
        assert rc == 1
        assert problem in capsys.readouterr().err


class TestMonteCarlo:
    def test_prints_percentiles(self, capsys):
        rc = main(["montecarlo", "--trials", "20", "--jitter-us", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "p50 error:" in out
        assert "p99 error:" in out
        assert "max error:" in out

    def test_accepts_scenario_file(self, scenario_file, capsys):
        rc = main(["montecarlo", str(scenario_file), "--trials", "5"])
        assert rc == 0
        assert "trials:     5" in capsys.readouterr().out


class TestLiveCommands:
    def test_supervise_and_agents_complete_over_loopback(self, tmp_path, capsys):
        # fixed ports picked from the ephemeral range to avoid collisions
        cfg = tmp_path / "live.yaml"
        cfg.write_text(
            textwrap.dedent(
                """
                periods: 3
                report_port: 52611
                sync_ports: {1: 52612, 2: 52613, 3: 52614, 4: 52615}
                timeout_s: 10.0
                scenario:
                  geometry:
                    sensor_ids: [1, 2, 3, 4]
                    positions_m: [0.0, 10.0, 20.0, 30.0]
                  drift_ppm: {1: 37, 2: -12, 3: 50, 4: -50}
                  ruptures:
                    - {position_m: 14.0, time_ref_us: 1500000}
                """
            )
        )
        rcs = {}
        threads = [
            threading.Thread(
                target=lambda sid=sid: rcs.__setitem__(
                    sid, main(["agent", str(cfg), "--sensor-id", str(sid)])
                ),
                daemon=True,
            )
            for sid in (1, 2, 3, 4)
        ]
        for t in threads:
            t.start()
        # agents print their listening line only after binding; wait for all
        # four before the supervisor starts sending (agents start first in a
        # real deployment too)
        collected = []
        deadline = time.monotonic() + 5.0
        while (
            sum(s.count("listening on") for s in collected) < 4
            and time.monotonic() < deadline
        ):
            collected.append(capsys.readouterr().out)
            time.sleep(0.01)
        rc = main(["supervise", str(cfg)])
        for t in threads:
            t.join(timeout=10.0)
        assert rc == 0
        assert rcs == {1: 0, 2: 0, 3: 0, 4: 0}
        out = "".join(collected) + capsys.readouterr().out
        assert "period 0: 4 reports, complete" in out
        assert "period 1: 4 reports, complete" in out
        m = re.search(r"x_est = ([0-9.]+) m", out)
        assert m is not None
        assert abs(float(m.group(1)) - 14.0) <= 0.15

    def test_supervise_port_out_of_range_errors(self, tmp_path, capsys):
        cfg = tmp_path / "live.yaml"
        cfg.write_text(
            "periods: 2\n"
            "report_port: 70000\n"
            "scenario:\n"
            "  geometry:\n"
            "    sensor_ids: [1, 2, 3]\n"
            "    positions_m: [0.0, 1.0, 2.0]\n"
        )
        rc = main(["supervise", str(cfg)])
        assert rc == 1
        assert "error: report_port must be a port in 0-65535" in capsys.readouterr().err

    def test_agent_unknown_sensor_errors(self, tmp_path, capsys):
        cfg = tmp_path / "live.yaml"
        cfg.write_text(
            "periods: 2\n"
            "scenario:\n"
            "  geometry:\n"
            "    sensor_ids: [1, 2, 3]\n"
            "    positions_m: [0.0, 1.0, 2.0]\n"
        )
        rc = main(["agent", str(cfg), "--sensor-id", "9"])
        assert rc == 1
        assert "unknown sensor id 9" in capsys.readouterr().err
