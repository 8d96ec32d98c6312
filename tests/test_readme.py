"""The README's examples run as written: its YAML examples load through the
same reader as any input, and its quick start prints what it says."""

import argparse
import contextlib
import dataclasses
import io
import re
from pathlib import Path

from cablewatch.cli import build_parser
from cablewatch.live import load_live_config
from cablewatch.scenario import NetworkConfig, load_scenario

README = Path(__file__).resolve().parents[1] / "README.md"


def code_block(section, language):
    """The first code block in language under the README heading '## <section>'."""
    body = README.read_text().split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", body, re.S).group(1)


def test_quick_start_runs_as_written(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code_block("Quick start", "python"), "README quick start", "exec"), {})
    x_est, matched = out.getvalue().splitlines()[:2]
    assert x_est.startswith("13.9976")
    assert matched == "rupture:0"
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "detections.csv", "estimates.csv", "retimed.csv", "summary.csv"
    ]


def test_scenario_and_live_examples_load(tmp_path):
    # live.yaml names its scenario file scenario.yaml, next to it
    (tmp_path / "scenario.yaml").write_text(code_block("Scenario files", "yaml"))
    (tmp_path / "live.yaml").write_text(code_block("Live mode", "yaml"))
    scenario = load_scenario(tmp_path / "scenario.yaml")
    assert scenario.drift_ppm == {1: 37.0, 2: -12.0, 3: 50.0, 4: -50.0}
    assert scenario.ruptures[0].time_ref_us == 1_500_000.0
    assert scenario.spurious_events[0].sensor_id == 2
    live = load_live_config(tmp_path / "live.yaml")
    assert live.scenario == scenario
    assert live.periods == 5
    assert live.sync_ports == {1: 47801, 2: 47803, 3: 47804, 4: 47805}


def test_network_field_list_names_every_link_field():
    # the parenthesised list after "`network:` block" under Scenario files
    text = " ".join(README.read_text().split())
    listed = text.split("`network:` block (", 1)[1].split(")", 1)[0]
    assert sorted(re.findall(r"`(\w+)`", listed)) == sorted(
        f.name for f in dataclasses.fields(NetworkConfig)
    )


def long_options(parser):
    return {
        s for a in parser._actions for s in a.option_strings if s.startswith("--") and s != "--help"
    }


def test_command_line_block_names_every_subcommand_and_option():
    # each line of the block is "cablewatch [<subcommand>] ...": a line
    # without a subcommand shows the options that go before one
    parser = build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    named = {}
    for line in code_block("Command line", "").splitlines():
        words = line.split()
        assert words[0] == "cablewatch"
        command = words[1] if words[1] in subparsers.choices else None
        assert command not in named, line
        named[command] = set(re.findall(r"--[\w-]+", line))
    assert named == {
        None: long_options(parser),
        **{name: long_options(sub) for name, sub in subparsers.choices.items()},
    }
