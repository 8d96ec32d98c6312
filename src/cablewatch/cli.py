"""Command-line front end.

Subcommands:
    simulate    run a scenario file, write the four CSV tables
    localize    offline position estimates from an exported retimed.csv, all
                its rows in one call, by the scenario file's geometry and
                coincidence window
    supervise   run the live supervisor endpoint (UDP)
    agent       run one live sensor agent endpoint (UDP)
    montecarlo  randomized accuracy study, prints error percentiles
"""

from __future__ import annotations

import argparse
import csv
import logging
import math
import sys
import typing
from pathlib import Path

from . import montecarlo as mc
from .live import LiveSupervisor, SensorAgent, load_live_config
from .retiming import RetimedEvent
from .scenario import load_scenario
from .simulate import (
    RETIMED_HEADER, export_csv, localize_events, postprocess_periods, run, sensor_nodes,
)

log = logging.getLogger(__name__)


def _fmt_flags(flags) -> str:
    return "|".join(sorted(flags)) if flags else "-"


def cmd_simulate(args) -> int:
    report = run(load_scenario(args.scenario))
    paths = export_csv(report, args.out)
    for k, v in report.summary.items():
        print(f"{k}: {v}")
    for p in paths:
        print(f"wrote {p}")
    return 0


def _load_retimed(path: Path, sensor_ids) -> list[RetimedEvent]:
    """The events of a retimed.csv in file order; each bad cell, a sensor
    id outside sensor_ids included, is named by file, line and column."""
    kinds = typing.get_type_hints(RetimedEvent)
    events: list[RetimedEvent] = []
    with open(path, newline="") as f:
        rows = csv.DictReader(f)
        missing = [c for c in RETIMED_HEADER if c not in (rows.fieldnames or ())]
        if missing:
            raise ValueError(f"{path}: missing column {', '.join(missing)}")
        for row in rows:
            values = {"flag": row["flag"] or None}
            for column in RETIMED_HEADER:
                if column == "flag":
                    continue
                try:
                    values[column] = value = kinds[column](row[column])
                    # only a flagged event may lack a time
                    if column == "retimed_us" and not (values["flag"] or math.isfinite(value)):
                        raise ValueError
                    if column == "sensor_id" and value not in sensor_ids:
                        raise ValueError
                except (TypeError, ValueError):
                    raise ValueError(
                        f"{path}, line {rows.line_num}, column {column}: "
                        f"bad value {row[column]!r}"
                    ) from None
            events.append(RetimedEvent(**values))
    return events


def cmd_localize(args) -> int:
    scenario = load_scenario(args.geometry)
    events = _load_retimed(Path(args.retimed), scenario.geometry.sensor_ids)
    if not events:
        print("no retimed events")
        return 0
    print(f"{'period':>6} {'cluster':>7} {'sensors':>7} {'x_est_m':>12} {'v_est_m_s':>12} flags")
    for row in localize_events(scenario, events):
        est = row.estimate
        print(
            f"{row.period_index:>6} {row.cluster_index:>7} {row.n_sensors:>7} "
            f"{est.x_est_m:>12.4f} {est.v_est_m_s:>12.2f} {_fmt_flags(est.flags)}"
        )
    return 0


def cmd_supervise(args) -> int:
    config = load_live_config(args.config)
    supervisor = LiveSupervisor(config).run()
    print(
        f"reports received: {supervisor.reports_received} "
        f"(decode errors: {supervisor.decode_errors})"
    )
    released = supervisor.protocol.released
    periods = [released[k] for k in sorted(released)]
    for p in periods:
        state = "complete" if p.complete else f"timeout, missing {list(p.missing)}"
        print(f"period {p.period_index}: {len(p.reports)} reports, {state}")
    _, estimates = postprocess_periods(config.scenario, periods)
    for row in estimates:
        est = row.estimate
        print(
            f"period {row.period_index} cluster {row.cluster_index}: "
            f"x_est = {est.x_est_m:.4f} m, v_est = {est.v_est_m_s:.2f} m/s, "
            f"flags = {_fmt_flags(est.flags)}"
        )
    if not estimates:
        print("no event clusters")
    return 0


def cmd_agent(args) -> int:
    config = load_live_config(args.config)
    scenario = config.scenario
    if args.sensor_id not in scenario.geometry.sensor_ids:
        raise ValueError(f"unknown sensor id {args.sensor_id}")
    node = sensor_nodes(scenario)[args.sensor_id]
    agent = SensorAgent(config, node, scenario.network_model())
    # launch scripts sequence on this line, so it must not sit in a buffer
    print(
        f"sensor {args.sensor_id}: listening on {config.host}:{agent.port}",
        flush=True,
    )
    agent.run()
    print(
        f"sensor {args.sensor_id}: {agent.frames_seen} sync frames, "
        f"{agent.reports_sent} reports sent"
    )
    return 0


def cmd_montecarlo(args) -> int:
    base = load_scenario(args.scenario) if args.scenario else mc.accuracy_study_scenario()
    result = mc.run_study(
        base=base,
        trials=args.trials,
        master_seed=args.seed,
        jitter_us=args.jitter_us,
    )
    for line in result.summary_lines():
        print(line)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cablewatch",
        description="Rupture localization over drift-synchronized sensor networks.",
    )
    parser.add_argument(
        "--log-level", default="WARNING",
        choices=["DEBUG", "INFO", "WARNING", "ERROR"],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a scenario file, write CSV tables")
    p.add_argument("scenario", help="scenario YAML file")
    p.add_argument("--out", required=True, help="output directory for the CSVs")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("localize", help="estimate positions from a retimed.csv")
    p.add_argument("retimed", help="retimed.csv as written by simulate")
    p.add_argument(
        "--geometry", required=True,
        help="scenario YAML file; its geometry places the sensors and its "
        "coincidence_window_us clusters the events",
    )
    p.set_defaults(func=cmd_localize)

    p = sub.add_parser("supervise", help="run the live supervisor endpoint")
    p.add_argument("config", help="live config YAML")
    p.set_defaults(func=cmd_supervise)

    p = sub.add_parser("agent", help="run one live sensor agent endpoint")
    p.add_argument("config", help="live config YAML")
    p.add_argument("--sensor-id", type=int, required=True)
    p.set_defaults(func=cmd_agent)

    p = sub.add_parser("montecarlo", help="randomized accuracy study")
    p.add_argument(
        "scenario", nargs="?", default=None,
        help="base scenario YAML (default: built-in 4-sensor study setup)",
    )
    p.add_argument("--trials", type=int, default=mc.DEFAULT_TRIALS)
    p.add_argument("--jitter-us", type=float, default=mc.DEFAULT_JITTER_US)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_montecarlo)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=getattr(logging, args.log_level))
    try:
        return args.func(args)
    except (ValueError, OSError) as e:  # ScenarioError is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
