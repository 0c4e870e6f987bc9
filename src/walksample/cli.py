"""Command-line interface.

Subcommands: stats, run, sweep-budget, sweep-c, analyze. Flags can also be
given through ``--config FILE`` holding flat ``key = value`` lines (same
names as the flags, without the leading dashes); explicit flags override
file values. Exit codes: 0 success, 1 internal or numeric error, 2 usage
or I/O error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path
from typing import Optional, Sequence

from .graph import EdgeListParseError, EmptyGraphError
from .harness import (
    OUTPUT_FORMATS,
    SAMPLER_ORDER,
    WEIGHT_MODES,
    ExperimentConfig,
    UsageError,
    cmd_analyze,
    cmd_run,
    cmd_stats,
    cmd_sweep_budget,
    cmd_sweep_c,
)

_TRUE_WORDS = ("1", "true", "yes", "on")
_FALSE_WORDS = ("0", "false", "no", "off")


def _parse_bool(text: str) -> bool:
    low = text.lower()
    if low in _TRUE_WORDS:
        return True
    if low in _FALSE_WORDS:
        return False
    raise UsageError(f"expected a boolean, got {text!r}")


_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig)}

# Flag (also its config key) -> the ExperimentConfig field it sets (None for
# --config) and its add_argument keywords, in --help order; the dest is the
# flag with "-" as "_". A file value is read by the flag's type (str without
# one, ``_parse_bool`` for the switch). Fields resolve in this order, so a
# missing dataset is reported before any malformed value. Repeatable flags
# (``_LIST_KEYS``) accumulate over file lines; otherwise the last line wins.
_FLAGS = {
    "dataset": ("dataset_path", dict(help="edge-list file (whitespace separated node pairs)")),
    "config": (None, dict(help="flat key=value config file; flags override it")),
    "out": ("output_path", dict(help="output file (default: stdout)")),
    "sampler": ("samplers", dict(action="append", choices=SAMPLER_ORDER, help="repeatable")),
    "budget": ("budgets", dict(action="append", type=int, help="trace length; repeatable")),
    "c": ("c_values", dict(action="append", type=int, help="padding threshold; repeatable")),
    "c-frac": (
        "c_fractions",
        dict(action="append", type=float, help="threshold as a fraction of the maximum degree; repeatable"),
    ),
    "alpha": ("alpha", dict(type=float, help="uniform-jump weight for rwe (default: mean degree)")),
    "reps": ("repetitions", dict(type=int, help=f"repetitions per configuration (default {_DEFAULTS['repetitions']})")),
    "seed": (
        "base_seed",
        dict(type=int, help=f"base seed for derived per-repetition seeds (default {_DEFAULTS['base_seed']})"),
    ),
    "weights": (
        "weight_mode",
        dict(
            choices=WEIGHT_MODES,
            help="estimation weights: closed-form stationary (paper) or exact stationary (oracle)",
        ),
    ),
    "format": (
        "output_format",
        dict(choices=OUTPUT_FORMATS, help=f"output format (default {_DEFAULTS['output_format']})"),
    ),
    "parallel": ("parallel", dict(type=int, help="worker processes (default: one per usable CPU)")),
    "burn-in": ("burn_in", dict(type=int, help="unrecorded steps before the first sample")),
    "timing": (
        "timing",
        dict(
            action="store_true",
            default=None,
            help="fill wall_millis (makes output non-reproducible): each repetition's share of its slice's walk "
            "time, by burn-in plus budget, plus its own scoring time",
        ),
    ),
}
_COMMON_FLAGS = ("dataset", "config", "out")
_LIST_KEYS = tuple(flag for flag, (_, kw) in _FLAGS.items() if kw.get("action") == "append")

# Subcommand -> handler, help and the flags it takes. analyze walks nothing:
# its --seed and --format are accepted and ignored, so that one argument list
# can carry them to every command.
_COMMANDS = {
    "stats": (cmd_stats, "dataset summary (n, m, degrees, component sizes)", _COMMON_FLAGS),
    "run": (cmd_run, "one sampler at one budget, seeded repetitions", tuple(_FLAGS)),
    "sweep-budget": (cmd_sweep_budget, "samplers x budgets grid with mean rows", tuple(_FLAGS)),
    "sweep-c": (cmd_sweep_c, "padding-threshold sweep for gmd/wjrw", tuple(_FLAGS)),
    "analyze": (
        cmd_analyze,
        "dense spectral and stationary diagnostics",
        _COMMON_FLAGS + ("sampler", "c", "c-frac", "alpha", "seed", "format"),
    ),
}


def parse_config_file(path: str) -> dict[str, list[str]]:
    """Read flat ``key = value`` lines; later scalar lines win, lists extend."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: not UTF-8 (byte 0x{exc.object[exc.start]:02x}: {exc.reason})") from None
    values: dict[str, list[str]] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, val = line.partition("=")
        if not sep:
            raise UsageError(f"{path}:{lineno}: expected key = value")
        key = key.strip()
        val = val.strip()
        if key in _LIST_KEYS:
            values.setdefault(key, []).extend(p.strip() for p in val.split(",") if p.strip())
        elif key in _FLAGS and _FLAGS[key][0]:
            values[key] = [val]
        else:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="walksample",
        description="Random-walk node sampling, estimation, and analysis on edge-list graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for flag in flags:
            p.add_argument(f"--{flag}", **_FLAGS[flag][1])
    return parser


def resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    """Combine flags with the config file (flags win) into one config.

    Only the values a flag or the file gives reach ``ExperimentConfig``, which
    holds the defaults.
    """
    file_vals = parse_config_file(args.config) if args.config else {}
    # c and c-frac are one setting, the threshold: a flag for either drops
    # the file's values for both.
    if any(getattr(args, dest, None) is not None for dest in ("c", "c_frac")):
        file_vals = {key: raw for key, raw in file_vals.items() if key not in ("c", "c-frac")}
    given = {}
    for key, (field, kw) in _FLAGS.items():
        if field is None:
            continue
        flag = getattr(args, key.replace("-", "_"), None)  # None: not given, or not a flag of this command
        if flag is not None:
            given[field] = tuple(flag) if key in _LIST_KEYS else flag
        elif key in file_vals:
            raw = file_vals[key]
            convert = _parse_bool if kw.get("action") == "store_true" else kw.get("type", str)
            try:
                given[field] = tuple(map(convert, raw)) if key in _LIST_KEYS else convert(raw[-1])
            except ValueError as exc:
                raise UsageError(f"config key {key!r}: {exc}") from exc
        if key == "dataset" and not given.get(field):
            raise UsageError("--dataset is required")
    return ExperimentConfig(**given)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = resolve_config(args)
        if config.output_path and not Path(config.output_path).parent.is_dir():
            raise UsageError(f"--out {config.output_path}: no such directory")
        if config.output_path and Path(config.output_path).is_dir():
            raise UsageError(f"--out {config.output_path}: is a directory")
        text = _COMMANDS[args.command][0](config)
        if config.output_path:
            Path(config.output_path).write_text(text, encoding="utf-8", newline="\n")
        else:
            sys.stdout.write(text)
    except (UsageError, EdgeListParseError, EmptyGraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # numeric/internal failures
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
