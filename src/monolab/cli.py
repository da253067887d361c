"""Command-line interface.

Subcommands mirror the experiment families, plus ``plot``; every run is
reproducible from ``--seed`` and the printed CSV is byte-stable across
``--workers`` choices.  Each subcommand is generated from its config
dataclass: a field's metadata names its flag (``noise_sd`` is ``--noise-sd``),
which is also its config-file key, and the field default is the built-in
default.  The command's action then runs on the built config.
Parameter precedence: command-line flag, then ``--config`` JSON file, then
the built-in default.  Exit codes: 0 success, 2 usage or validation error,
3 I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import experiments

ENV_WORKERS = "MONOLAB_WORKERS"


def _parse_grid(text):
    if isinstance(text, list):
        return tuple(text)  # a JSON list: the config checks its entries
    try:
        return tuple(int(part) for part in str(text).split(","))
    except ValueError:
        raise ValueError(f"expected a comma-separated integer list, got {text!r}") from None


def _parse_rankings(value):
    # "A>B>C;A>C>B" - one firm per semicolon group, candidates best-first.
    # A config file may instead give a JSON list of label lists.
    if not isinstance(value, str):
        if not (isinstance(value, list) and all(
                isinstance(r, list) and all(isinstance(c, str) for c in r)
                for r in value)):
            raise ValueError(
                f'expected a string like "A>B;B>A" or a list of label '
                f'lists like [["A", "B"], ["B", "A"]], got {value!r}'
            )
        return tuple(tuple(ranking) for ranking in value)
    rankings = []
    for group in value.split(";"):
        ranking = tuple(c.strip() for c in group.split(">") if c.strip())
        if not ranking:
            raise ValueError(f"empty ranking in {value!r}")
        rankings.append(ranking)
    return tuple(rankings)


def _text(parse):
    # Text is parsed; a typed JSON value goes to the config as it is, so a
    # value of the wrong type is rejected there, not converted.
    return lambda value: parse(value) if isinstance(value, str) else value


# Field annotation -> parser of a config-file value or a grid or rankings flag.
_PARSERS = {
    "int": _text(int),
    "float": _text(float),
    "str": _text(str),
    "tuple[int, ...]": _parse_grid,
    "tuple[tuple[str, ...], ...]": _parse_rankings,
}


def _kind_of(f: dataclasses.Field) -> str:
    return f.type.removesuffix(" | None")


def _help_of(f: dataclasses.Field) -> str | None:
    """The field's help text, followed by its default unless that is None."""
    if f.default is None or f.default is dataclasses.MISSING:
        return f.metadata["help"]
    default = ",".join(map(str, f.default)) if isinstance(f.default, tuple) else f.default
    return f"{f.metadata['help'] or ''} (default {default})".lstrip()


def _merge_params(args, allowed) -> dict:
    """File values under CLI flags; unknown file keys are rejected."""
    params = {}
    if args.config == "":
        raise ValueError("config must not be empty")
    if args.config is not None:
        with open(args.config) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as err:
                raise ValueError(f"{args.config}: not valid JSON: {err}") from None
        if not isinstance(data, dict):
            raise ValueError(f"{args.config}: config must be a JSON object")
        for key, value in data.items():
            if key not in allowed:
                raise ValueError(
                    f"{args.config}: unknown config key {key!r} for "
                    f"command {args.command!r} (allowed: {', '.join(allowed)})"
                )
            params[key] = value
    for key in allowed:
        flag_value = getattr(args, key)
        if flag_value is not None:
            params[key] = flag_value
    return params


def _run_and_write(cfg) -> None:
    rows = experiments.run(cfg)
    if cfg.out:
        experiments.write_csv(rows, cfg.out)
        print(f"wrote {cfg.out} ({len(rows)} rows)")
    else:
        sys.stdout.write(experiments.rows_to_csv_text(rows))


def _plot(cfg) -> None:
    experiments.plot_csv(cfg)
    print(f"wrote {cfg.out}")


# command -> (config class, help text, action on the built config)
COMMANDS = {
    "hiring": (experiments.HiringConfig,
               "noisy-score hiring market sweep over firm counts", _run_and_write),
    "bandit2": (experiments.Bandit2Config,
                "two-arm greedy bandit failure-rate sweep", _run_and_write),
    "hiring-bandit": (experiments.HiringBanditConfig,
                      "many-arm bandit with hiring externalities", _run_and_write),
    "enumerate": (experiments.EnumerateConfig,
                  "exact joblessness probabilities by enumeration", _run_and_write),
    "order-sensitivity": (experiments.OrderSensitivityConfig,
                          "does the unmatched set depend on the firm order?",
                          _run_and_write),
    "plot": (experiments.PlotConfig,
             "render a results CSV as an SVG line chart", _plot),
}


def _run_command(args) -> int:
    config_cls, _, action = COMMANDS[args.command]
    fields = dataclasses.fields(config_cls)
    keys = [f.metadata["flag"] for f in fields]
    params = _merge_params(args, keys)
    if "workers" in keys and params.get("workers") is None and os.environ.get(ENV_WORKERS):
        raw = os.environ[ENV_WORKERS]
        try:
            params["workers"] = int(raw)
        except ValueError:
            raise ValueError(f"{ENV_WORKERS}={raw!r} is not an integer") from None
    kwargs = {}
    for f in fields:
        key = f.metadata["flag"]
        if params.get(key) is not None:
            try:
                kwargs[f.name] = _PARSERS[_kind_of(f)](params[key])
            except ValueError as err:
                raise ValueError(f"{key}: {err}") from None
        elif f.default is dataclasses.MISSING:
            raise ValueError(f"{args.command} requires --{key} ({f.metadata['help']})")
    action(config_cls(**kwargs))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monolab",
        description=(
            "Seeded simulations of monoculture, polyculture, and ensemble "
            "decision regimes in hiring markets and bandit exploration."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for command, (config_cls, help_text, _) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for f in dataclasses.fields(config_cls):
            key = f.metadata["flag"]
            # Grids and rankings stay strings here so that a bad value is
            # reported the same way from a flag and from a config file.
            p.add_argument("--" + key.replace("_", "-"), dest=key,
                           type={"int": int, "float": float}.get(_kind_of(f)),
                           choices=f.metadata["choices"], default=None,
                           help=_help_of(f))
        p.add_argument("--config", default=None, help="JSON config file")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        return exit_.code if isinstance(exit_.code, int) else 2
    try:
        return _run_command(args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
