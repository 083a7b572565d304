"""Command-line front end: GDoF evaluation, bound families, scheme layout,
Monte Carlo simulation and minimum-distance tables, all file-based and
reproducible.

Exit codes: 0 success, 1 validation failure, 2 certification failure,
3 enumeration cap exceeded.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
from fractions import Fraction

from .channel import sample_channel
from .gdof_core import (
    AlphaProfile,
    CertificationError,
    achievable_gdof,
    achievable_gdof_limit,
    certify_family,
    converse_family,
    family_size_exponent,
    make_pair_bound,
    optimal_sum_gdof,
    parse_rational,
)
from .link_sim import DEFAULT_ENUM_CAP, SimConfig, run_monte_carlo
from .scheme import EnumerationCapError, build_geometry, build_layer_plan, power_normalizer

SCHEMA_VERSION = "mlia-cli-1"

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CERTIFICATION = 2
EXIT_CAP = 3

# dense weight entries (2^jl bounds of 2K weights each) ``bounds`` will
# write; the family is generated and certified as sparse rows, so this
# bounds the size of the report, not the computation (K=2048 holds
# exactly this many)
MAX_BOUND_WEIGHTS = 1 << 22


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); route to code 1
        raise ValueError(message)


def _read_config_file(path: str) -> dict[str, str]:
    values = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: expected key=value, got {raw!r}")
            key, value = line.split("=", 1)
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _require(value, name: str):
    if value is None:
        raise ValueError(f"missing required option --{name.replace('_', '-')}")
    return value


def _parse_alphas(text: str) -> AlphaProfile:
    return AlphaProfile.parse([parse_rational(part) for part in text.split(",")])


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(","))


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(","))


def _parse_bool(text: str) -> bool:
    return text.strip().lower() in ("1", "true", "yes", "on")


class _Flag(argparse.Action):
    """A flag without a value; a config file may still set it to a word
    that ``_parse_bool`` reads, since argparse converts string defaults
    with the action's type."""

    def __init__(self, option_strings, dest, default=False, **kwargs):
        super().__init__(option_strings, dest, nargs=0, default=default,
                         type=_parse_bool, **kwargs)

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, True)


def _emit(text: str, output: str | None):
    if output:
        with open(output, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _json_text(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _csv_text(rows: list[list]) -> str:
    buffer = io.StringIO()
    buffer.write(f"# schema_version={SCHEMA_VERSION}\n")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerows(rows)
    return buffer.getvalue()


# ---------------------------------------------------------------------------
# subcommands


def cmd_gdof(args) -> int:
    alpha = _parse_alphas(_require(args.alphas, "alphas"))
    optimal = optimal_sum_gdof(alpha)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "alphas": [str(a) for a in alpha.alphas],
        "optimal": str(optimal),
        "optimal_decimal": float(optimal),
        "limit": str(achievable_gdof_limit(alpha)),
        "achievable": [
            {"n": n, "value": str(achievable_gdof(alpha, n)),
             "decimal": float(achievable_gdof(alpha, n))}
            for n in args.n
        ],
    }
    if args.format == "csv":
        rows = [["quantity", "n", "value", "decimal"],
                ["optimal", "", str(optimal), float(optimal)]]
        for entry in payload["achievable"]:
            rows.append(["achievable", entry["n"], entry["value"], entry["decimal"]])
        _emit(_csv_text(rows), args.output)
    else:
        _emit(_json_text(payload), args.output)
    return EXIT_OK


def cmd_bounds(args) -> int:
    symbolic = args.alphas is None
    if symbolic and args.k is None:
        raise ValueError("provide --alphas or --k")
    k_users = args.k if symbolic else len(args.alphas.split(","))
    if symbolic and k_users < 2:
        raise ValueError("need K >= 2 users")
    # the size check comes before the profile or the family is built
    entries = (1 << family_size_exponent(k_users)) * 2 * k_users if k_users > 2 else 0
    if entries > MAX_BOUND_WEIGHTS:
        raise EnumerationCapError(
            f"bound family for K={k_users}", entries, MAX_BOUND_WEIGHTS
        )
    # weight structure does not depend on the profile, so any strictly
    # sorted valid profile stands in when only K is given
    alpha = (
        AlphaProfile.parse([Fraction(i, k_users) for i in range(1, k_users + 1)])
        if symbolic else _parse_alphas(args.alphas)
    )

    if alpha.k_users == 2:
        bounds = [make_pair_bound(alpha, 1, 2)]
        jl = 0
        average = optimal_sum_gdof(alpha)
        if bounds[0].rhs_value != average:
            raise CertificationError("pair bound does not match the optimum for K=2")
    else:
        family = converse_family(alpha)
        average = certify_family(alpha, family)
        bounds = list(family.bounds)
        jl = family.jl

    payload = {
        "schema_version": SCHEMA_VERSION,
        "k": alpha.k_users,
        "jl": jl,
        "bounds": [b.to_json_dict() for b in bounds],
        "certified": True,
    }
    if symbolic:
        for entry in payload["bounds"]:
            del entry["rhs_value"]
    else:
        payload["alphas"] = [str(a) for a in alpha.alphas]
        payload["certified_average"] = str(average)
        payload["optimal"] = str(optimal_sum_gdof(alpha))

    if args.format == "csv":
        k = alpha.k_users
        header = (["bound"] + [f"d{i}" for i in range(1, k + 1)]
                  + [f"a{i}" for i in range(1, k + 1)] + ["rhs_value"])
        rows = [header]
        for idx, b in enumerate(bounds, start=1):
            rows.append([idx, *b.lhs_weights, *b.rhs_weights,
                         "" if symbolic else str(b.rhs_value)])
        _emit(_csv_text(rows), args.output)
    else:
        _emit(_json_text(payload), args.output)
    return EXIT_OK


def cmd_scheme(args) -> int:
    alpha = _parse_alphas(_require(args.alphas, "alphas"))
    channel = sample_channel(alpha.k_users, args.h_min, args.h_max, args.seed)
    eps = parse_rational(args.eps) if args.eps else None
    plan = build_layer_plan(alpha, args.n, eps=eps, p=args.p)
    geometry = build_geometry(channel, args.n)
    eta, gamma = power_normalizer(geometry, plan)
    sets = []
    for ell in range(1, alpha.k_users - 1):
        lay = plan.layer(ell)
        sets.append(
            {
                "layer": ell,
                "v_size": lay.n_dims,
                "s_size": lay.n_dims,
                "i_size": (lay.m_dims - lay.n_dims) if lay.m_dims else None,
                "ratio": lay.n_dims / lay.m_dims if lay.m_dims else None,
            }
        )
    payload = {
        "schema_version": SCHEMA_VERSION,
        "plan": plan.to_json_dict(),
        "set_cardinalities": sets,
        "eta": eta,
        "gamma": gamma,
        "channel_seed": channel.seed,
    }
    if args.dump_exponents:
        v_set = geometry.v_set(args.layer)
        header = ["index"] + [f"h_{i}_{j}" for i, j in v_set.pair_order] + ["value"]
        rows = [header]
        for idx, (exps, value) in enumerate(zip(v_set.exponent_rows(), v_set.values)):
            rows.append([idx, *exps.tolist(), repr(float(value))])
        with open(args.dump_exponents, "w", encoding="utf-8", newline="") as handle:
            handle.write(_csv_text(rows))
    _emit(_json_text(payload), args.output)
    return EXIT_OK


def _sim_config(args) -> SimConfig:
    alpha = _parse_alphas(_require(args.alphas, "alphas"))
    return SimConfig(
        alphas=alpha.alphas,
        n=args.n,
        p_grid=_require(args.p_grid, "p-grid"),
        trials=args.trials,
        seed=args.seed,
        eps=parse_rational(args.eps) if args.eps else None,
        h_min=args.h_min,
        h_max=args.h_max,
        noise_std=args.noise_std,
        enum_cap=args.cap,
        ser_threshold=args.ser_threshold,
        with_dmin=args.with_dmin,
    )


def cmd_simulate(args) -> int:
    report = run_monte_carlo(_sim_config(args))
    if args.format == "csv":
        _emit(_csv_text(report.csv_rows()), args.output)
    else:
        _emit(report.to_json(), args.output)
    return EXIT_OK


def _mindist_entries(cells: list[dict], k_users: int) -> list[dict]:
    """The alignment cells of a zero-trial ``simulate`` report, per P point
    in layer-major order (layer, then receiver).

    ``simulate`` lists each P point's cells receiver-major, so among the
    alignment cells a drop in the receiver index starts the next P point
    (even when the grid repeats a P value).
    """
    blocks: list[list[dict]] = []
    last_user = k_users + 1
    for cell in cells:
        if cell["layer"] > k_users - 2:
            continue
        if cell["user"] < last_user:
            blocks.append([])
        last_user = cell["user"]
        blocks[-1].append(
            {name: cell[name] for name in ("p", "user", "layer", "dmin", "tbound")}
        )
    return [entry for block in blocks
            for entry in sorted(block, key=lambda e: (e["layer"], e["user"]))]


def cmd_mindist(args) -> int:
    config = _sim_config(args)
    # no trial is run and no noise is drawn, so the noise level is not
    # checked; the report echoes it as given
    report = run_monte_carlo(
        dataclasses.replace(config, trials=0, with_dmin=True, noise_std=0.0)
    )
    entries = _mindist_entries(report.cells, len(config.alphas))
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": config.to_json_dict(),
        "entries": entries,
    }
    if args.format == "csv":
        rows = [["p", "user", "layer", "dmin", "tbound"]]
        for e in entries:
            rows.append([e["p"], e["user"], e["layer"], e["dmin"], e["tbound"]])
        _emit(_csv_text(rows), args.output)
    else:
        _emit(_json_text(payload), args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The parser and its subcommand parsers, by name."""
    parser = _Parser(prog="mlia", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--output", help="write result to this path")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--alphas", help="comma list of exact rationals, sorted")

    def channel_options(p):
        p.add_argument("--n", type=int, default=1)
        p.add_argument("--eps")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--h-min", dest="h_min", type=float, default=0.5)
        p.add_argument("--h-max", dest="h_max", type=float, default=2.0)

    p = sub.add_parser("gdof", help="optimal and achievable sum GDoF")
    common(p)
    p.add_argument("--n", type=_parse_ints, default=(),
                   help="comma list of exponent ranges")

    p = sub.add_parser("bounds", help="generate and certify the bound family")
    common(p)
    p.add_argument("--k", type=int, help="user count for weight-only output")

    p = sub.add_parser("scheme", help="layer plan, set sizes and power scaling")
    common(p)
    channel_options(p)
    p.add_argument("--p", type=float, default=1.0)
    p.add_argument("--dump-exponents", dest="dump_exponents")
    p.add_argument("--layer", type=int, default=1)

    for name, help_text in (
        ("simulate", "Monte Carlo SER sweep"),
        ("mindist", "minimum-distance and residual-bound tables"),
    ):
        p = sub.add_parser(name, help=help_text)
        common(p)
        channel_options(p)
        p.add_argument("--p-grid", dest="p_grid", type=_parse_floats)
        p.add_argument("--trials", type=int, default=0)
        p.add_argument("--noise-std", dest="noise_std", type=float, default=1.0)
        p.add_argument("--cap", type=int, default=DEFAULT_ENUM_CAP)
        p.add_argument("--ser-threshold", dest="ser_threshold", type=float,
                       default=1e-2)
        p.add_argument("--with-dmin", dest="with_dmin", action=_Flag)
    return parser, sub.choices


_COMMANDS = {
    "gdof": cmd_gdof,
    "bounds": cmd_bounds,
    "scheme": cmd_scheme,
    "simulate": cmd_simulate,
    "mindist": cmd_mindist,
}


def _parse_args(argv):
    """Flags override the config file, which overrides the defaults: the
    file's values become the subcommand's defaults, and argparse converts
    them with each option's type.  Keys that name no option are ignored."""
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    if args.config:
        known = vars(args).keys() - {"command", "config"}
        values = _read_config_file(args.config)
        commands[args.command].set_defaults(
            **{key: value for key, value in values.items() if key in known}
        )
        args = parser.parse_args(argv)
    return args


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
        return _COMMANDS[args.command](args)
    except EnumerationCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except CertificationError as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
