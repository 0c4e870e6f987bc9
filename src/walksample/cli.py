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

_LIST_KEYS = ("sampler", "budget", "c", "c-frac")
_SCALAR_KEYS = (
    "dataset",
    "alpha",
    "reps",
    "seed",
    "weights",
    "out",
    "format",
    "parallel",
    "burn-in",
    "timing",
)
_TRUE_WORDS = ("1", "true", "yes", "on")
_FALSE_WORDS = ("0", "false", "no", "off")


def parse_config_file(path: str) -> dict[str, list[str]]:
    """Read flat ``key = value`` lines; later scalar lines win, lists extend."""
    values: dict[str, list[str]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
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
            elif key in _SCALAR_KEYS:
                values[key] = [val]
            else:
                raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
    return values


def _parse_bool(text: str) -> bool:
    low = text.lower()
    if low in _TRUE_WORDS:
        return True
    if low in _FALSE_WORDS:
        return False
    raise UsageError(f"expected a boolean, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="walksample",
        description="Random-walk node sampling, estimation, and analysis on edge-list graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--dataset", help="edge-list file (whitespace separated node pairs)")
        p.add_argument("--config", help="flat key=value config file; flags override it")
        p.add_argument("--out", help="output file (default: stdout)")

    def add_sampling(p: argparse.ArgumentParser) -> None:
        p.add_argument("--sampler", action="append", choices=SAMPLER_ORDER, help="repeatable")
        p.add_argument("--budget", action="append", type=int, help="trace length; repeatable")
        p.add_argument("--c", action="append", type=int, help="padding threshold; repeatable")
        p.add_argument(
            "--c-frac",
            action="append",
            type=float,
            dest="c_frac",
            help="threshold as a fraction of the maximum degree; repeatable",
        )
        p.add_argument("--alpha", type=float, help="uniform-jump weight for rwe (default: mean degree)")
        p.add_argument("--reps", type=int, help="repetitions per configuration (default 100)")
        p.add_argument("--seed", type=int, help="base seed for derived per-repetition seeds (default 0)")
        p.add_argument(
            "--weights",
            choices=WEIGHT_MODES,
            help="estimation weights: closed-form stationary (paper) or exact stationary, one sparse solve (oracle)",
        )
        p.add_argument("--format", choices=OUTPUT_FORMATS, dest="fmt", help="output format (default csv)")
        p.add_argument("--parallel", type=int, help="worker processes (default: one per usable CPU)")
        p.add_argument("--burn-in", type=int, dest="burn_in", help="unrecorded steps before the first sample")
        p.add_argument(
            "--timing",
            action="store_true",
            default=None,
            help=(
                "fill wall_millis (makes output non-reproducible): each repetition's share of its "
                "slice's walk time, by burn-in plus budget, plus its own scoring time"
            ),
        )

    p_stats = sub.add_parser("stats", help="dataset summary (n, m, degrees, component sizes)")
    add_common(p_stats)

    p_run = sub.add_parser("run", help="one sampler at one budget, seeded repetitions")
    add_common(p_run)
    add_sampling(p_run)

    p_sb = sub.add_parser("sweep-budget", help="samplers x budgets grid with mean rows")
    add_common(p_sb)
    add_sampling(p_sb)

    p_sc = sub.add_parser("sweep-c", help="padding-threshold sweep for gmd/wjrw")
    add_common(p_sc)
    add_sampling(p_sc)

    p_an = sub.add_parser("analyze", help="dense spectral and stationary diagnostics")
    add_common(p_an)
    add_sampling(p_an)

    return parser


def _scalar(file_vals: dict[str, list[str]], key: str) -> Optional[str]:
    vals = file_vals.get(key)
    return vals[-1] if vals else None


def resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    """Combine flags with the config file (flags win) into one config."""
    file_vals = parse_config_file(args.config) if getattr(args, "config", None) else {}

    def pick(flag_value, key: str, convert, default):
        if flag_value is not None:
            return flag_value
        raw = _scalar(file_vals, key)
        if raw is not None:
            try:
                return convert(raw)
            except ValueError as exc:
                raise UsageError(f"config key {key!r}: {exc}") from exc
        return default

    def pick_list(flag_values, key: str, convert) -> tuple:
        if flag_values:
            return tuple(flag_values)
        raw = file_vals.get(key)
        if raw:
            try:
                return tuple(convert(v) for v in raw)
            except ValueError as exc:
                raise UsageError(f"config key {key!r}: {exc}") from exc
        return ()

    dataset = pick(getattr(args, "dataset", None), "dataset", str, None)
    if not dataset:
        raise UsageError("--dataset is required")
    return ExperimentConfig(
        dataset_path=dataset,
        samplers=pick_list(getattr(args, "sampler", None), "sampler", str),
        budgets=pick_list(getattr(args, "budget", None), "budget", int),
        c_values=pick_list(getattr(args, "c", None), "c", int),
        c_fractions=pick_list(getattr(args, "c_frac", None), "c-frac", float),
        alpha=pick(getattr(args, "alpha", None), "alpha", float, None),
        repetitions=pick(getattr(args, "reps", None), "reps", int, 100),
        base_seed=pick(getattr(args, "seed", None), "seed", int, 0),
        output_path=pick(getattr(args, "out", None), "out", str, None),
        output_format=pick(getattr(args, "fmt", None), "format", str, "csv"),
        weight_mode=pick(getattr(args, "weights", None), "weights", str, "paper"),
        parallel=pick(getattr(args, "parallel", None), "parallel", int, 0),
        burn_in=pick(getattr(args, "burn_in", None), "burn-in", int, 0),
        timing=pick(getattr(args, "timing", None), "timing", _parse_bool, False),
    )


_COMMANDS = {
    "stats": cmd_stats,
    "run": cmd_run,
    "sweep-budget": cmd_sweep_budget,
    "sweep-c": cmd_sweep_c,
    "analyze": cmd_analyze,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = resolve_config(args)
        text = _COMMANDS[args.command](config)
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
