"""Command-line entry point.

  mimosim run <config>                 execute a sweep, write the CSV
  mimosim check                        run the theorem property suites
  mimosim dump-channels <config> <path>  write fixture channels as text

Exit codes: 0 success, 1 configuration error, 2 numerical failure.
"""

import argparse
import sys

from .checks import run_all_checks
from .errors import ConfigError, MimoSimError
from .experiment import parse_config, run_sweep, write_csv
from .system import Scenario, dump_channels, generate_channels


def _load_config(path: str):
    try:
        with open(path) as f:
            text = f.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config '{path}': {exc}") from exc
    return parse_config(text)


def _write(write, data, path: str) -> None:
    """`write(data, path)`, with an OSError raised as a ConfigError naming the path."""
    try:
        write(data, path)
    except OSError as exc:
        raise ConfigError(f"cannot write '{path}': {exc}") from exc


def _cmd_run(args) -> int:
    config = _load_config(args.config)
    rows = run_sweep(config)
    _write(write_csv, rows, config.output_path)
    print(f"wrote {len(rows)} rows to {config.output_path}")
    return 0


def _cmd_check(args) -> int:
    results = run_all_checks()
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] {res.name}: {res.detail}")
        if not res.passed:
            failed += 1
    if failed:
        print(f"{failed} of {len(results)} suites failed")
        return 2
    print(f"all {len(results)} suites passed")
    return 0


def _cmd_dump_channels(args) -> int:
    config = _load_config(args.config)
    scenario = Scenario(config.t, config.users, config.total_power, config.base_seed)
    channels = generate_channels(scenario)
    _write(dump_channels, channels, args.path)
    print(f"wrote channels for {scenario.num_users} users to {args.path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mimosim",
        description="Multi-user MIMO link-level sweeps and theorem checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a sweep config and write its CSV")
    p_run.add_argument("config", help="path to a key = value sweep config")
    p_run.set_defaults(func=_cmd_run)

    p_check = sub.add_parser("check", help="run the built-in property suites")
    p_check.set_defaults(func=_cmd_check)

    p_dump = sub.add_parser(
        "dump-channels", help="generate and dump fixture channels for a config"
    )
    p_dump.add_argument("config", help="path to a sweep config")
    p_dump.add_argument("path", help="output path for the channel fixture")
    p_dump.set_defaults(func=_cmd_dump_channels)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except MimoSimError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
