"""Command-line front end for the verification suites.

Exit codes: 0 all checks passed, 1 a mathematical check failed (the
report carries the witness), 2 bad input or configuration, 3 I/O
failure while writing the report.
"""

import argparse
import sys
from fractions import Fraction

from .errors import (
    InputError,
    InvariantViolation,
    NumericError,
    ResourceLimitError,
    UnsupportedElementError,
)
from .serialize import emit_reports
from .suites import ScenarioConfig, run_scenario


def _parse_p_grid(text):
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise InputError(f"bad p grid {text!r}; use a number or a "
                         f"comma-separated list") from None
    if not values:
        raise InputError("empty p grid")
    return values


def _parse_fraction(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"bad rational value {text!r}") from None


def _parse_int(text):
    try:
        return int(text)
    except ValueError:
        raise InputError(f"bad integer value {text!r}") from None


# the options of `check` in `--help` order: each one's cast and help.
# Every option but --config may also be set in the config file
_OPTIONS = {
    "suite": (str, "strong-hyp | green | cocycle | properness | boundary | "
                   "kms | all"),
    "group": (str, "group spec: free:k, surface:g, modular, or a "
                   "presentation file path"),
    "metric": (str, "word | green (default word)"),
    "radius": (_parse_int, "ball radius (per-suite default)"),
    "K": (_parse_fraction, "band distance K (rational, default 1)"),
    "C": (_parse_fraction, "band width C (rational, default: the metric's "
                           "rough constant)"),
    "p": (_parse_p_grid, "exponent or comma-separated grid"),
    "depth": (_parse_int, "cylinder depth for boundary/kms"),
    "seed": (_parse_int, "seed for sampled checks (default 0)"),
    "format": (str, "json | csv (default json)"),
    "out": (str, "write the report to this file"),
    "config": (None, "flat key=value config file"),
    "g": (str, "single group element for cocycle or properness reports"),
}


def _parse_config_file(path):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read config file {path!r}: {exc}") from None
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InputError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _OPTIONS or key == "config":
            raise InputError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value.strip()
    return values


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hyperlab",
        description="Exact desk-scale checks for hyperbolic group geometry, "
                    "boundary measures and crossed-product flows.")
    sub = parser.add_subparsers(dest="command", required=True)
    check = sub.add_parser(
        "check", help="run a verification suite and emit a report")
    for key, (_, text) in _OPTIONS.items():
        check.add_argument(f"--{key}", help=text)
    return parser


def _resolve_config(args):
    file_values = _parse_config_file(args.config) if args.config else {}
    resolved = {}
    for key, (cast, _) in _OPTIONS.items():
        value = getattr(args, key)
        if value is None:
            value = file_values.get(key)
        if cast and value is not None:
            resolved[key] = cast(value)
    if "suite" not in resolved:
        raise InputError("no suite selected; pass --suite or put suite= in "
                         "the config file")
    cfg = ScenarioConfig(**resolved)
    return cfg.validated()


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
        reports = run_scenario(cfg)
        payload = emit_reports(reports, cfg.format)
    except (InputError, UnsupportedElementError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, InvariantViolation) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    try:
        if cfg.out:
            with open(cfg.out, "wb") as fh:
                fh.write(payload)
        else:
            sys.stdout.buffer.write(payload)
            sys.stdout.flush()
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    for rep in reports:
        print(f"{rep.suite}: {rep.counts['checks']} checks, "
              f"{rep.counts['failures']} failures, {rep.duration:.2f}s",
              file=sys.stderr)
    return 0 if all(r.passed for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
