"""The README's YAML examples load through the same reader as any input."""

import re
from pathlib import Path

from cablewatch.live import load_live_config
from cablewatch.scenario import load_scenario

README = Path(__file__).resolve().parents[1] / "README.md"


def yaml_block(section):
    """The first yaml code block under the README heading '## <section>'."""
    body = README.read_text().split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```yaml\n(.*?)```", body, re.S).group(1)


def test_scenario_and_live_examples_load(tmp_path):
    # live.yaml names its scenario file scenario.yaml, next to it
    (tmp_path / "scenario.yaml").write_text(yaml_block("Scenario files"))
    (tmp_path / "live.yaml").write_text(yaml_block("Live mode"))
    scenario = load_scenario(tmp_path / "scenario.yaml")
    assert scenario.drift_ppm == {1: 37.0, 2: -12.0, 3: 50.0, 4: -50.0}
    assert scenario.ruptures[0].time_ref_us == 1_500_000.0
    assert scenario.spurious_events[0].sensor_id == 2
    live = load_live_config(tmp_path / "live.yaml")
    assert live.scenario == scenario
    assert live.periods == 5
    assert live.sync_ports == {1: 47801, 2: 47803, 3: 47804, 4: 47805}
