"""Command-line front end: GDoF evaluation, bound families, scheme layout,
Monte Carlo simulation and minimum-distance tables, all file-based and
reproducible.

Exit codes: 0 success, 1 validation failure, 2 certification failure,
3 enumeration cap exceeded.
"""

from __future__ import annotations

import argparse
import csv
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
    make_pair_bound,
    optimal_sum_gdof,
    parse_rational,
)
from .link_sim import SimConfig, dmin_bruteforce, run_monte_carlo, t_bound
from .scheme import (
    EnumerationCapError,
    build_layer_plan,
    monomial_set,
    power_normalizer,
)

SCHEMA_VERSION = "mlia-cli-1"

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CERTIFICATION = 2
EXIT_CAP = 3


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


def _opt(args, file_cfg: dict, key: str, default=None, cast=None):
    """CLI flag wins over config file, which wins over the default."""
    value = getattr(args, key, None)
    if value is None:
        value = file_cfg.get(key)
        if value is not None and cast is not None:
            value = cast(value)
    if value is None:
        value = default
    return value


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


def cmd_gdof(args, file_cfg) -> int:
    alpha = _parse_alphas(_require(_opt(args, file_cfg, "alphas"), "alphas"))
    n_values = _opt(args, file_cfg, "n", default=(), cast=_parse_ints)
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
            for n in n_values
        ],
    }
    fmt = _opt(args, file_cfg, "format", default="json")
    if fmt == "csv":
        rows = [["quantity", "n", "value", "decimal"],
                ["optimal", "", str(optimal), float(optimal)]]
        for entry in payload["achievable"]:
            rows.append(["achievable", entry["n"], entry["value"], entry["decimal"]])
        _emit(_csv_text(rows), _opt(args, file_cfg, "output"))
    else:
        _emit(_json_text(payload), _opt(args, file_cfg, "output"))
    return EXIT_OK


def cmd_bounds(args, file_cfg) -> int:
    alphas_text = _opt(args, file_cfg, "alphas")
    k_users = _opt(args, file_cfg, "k", cast=int)
    if alphas_text is not None:
        alpha = _parse_alphas(alphas_text)
        symbolic = False
    elif k_users is not None:
        if k_users < 2:
            raise ValueError("need K >= 2 users")
        # weight structure does not depend on the profile, so any strictly
        # sorted valid profile stands in when only K is given
        alpha = AlphaProfile.parse([Fraction(i, k_users) for i in range(1, k_users + 1)])
        symbolic = True
    else:
        raise ValueError("provide --alphas or --k")

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

    fmt = _opt(args, file_cfg, "format", default="json")
    if fmt == "csv":
        k = alpha.k_users
        header = (["bound"] + [f"d{i}" for i in range(1, k + 1)]
                  + [f"a{i}" for i in range(1, k + 1)] + ["rhs_value"])
        rows = [header]
        for idx, b in enumerate(bounds, start=1):
            rows.append([idx, *b.lhs_weights, *b.rhs_weights,
                         "" if symbolic else str(b.rhs_value)])
        _emit(_csv_text(rows), _opt(args, file_cfg, "output"))
    else:
        _emit(_json_text(payload), _opt(args, file_cfg, "output"))
    return EXIT_OK


def _channel_from(args, file_cfg):
    alpha = _parse_alphas(_require(_opt(args, file_cfg, "alphas"), "alphas"))
    seed = _opt(args, file_cfg, "seed", default=0, cast=int)
    h_min = _opt(args, file_cfg, "h_min", default=0.5, cast=float)
    h_max = _opt(args, file_cfg, "h_max", default=2.0, cast=float)
    return alpha, sample_channel(alpha.k_users, h_min, h_max, seed)


def cmd_scheme(args, file_cfg) -> int:
    alpha, channel = _channel_from(args, file_cfg)
    n = _opt(args, file_cfg, "n", default=1, cast=int)
    eps_text = _opt(args, file_cfg, "eps")
    eps = parse_rational(eps_text) if eps_text else None
    p = _opt(args, file_cfg, "p", default=1.0, cast=float)
    plan = build_layer_plan(alpha, n, eps=eps, p=p)
    eta, gamma = power_normalizer(channel, plan)
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
    dump = _opt(args, file_cfg, "dump_exponents")
    if dump:
        ell = _opt(args, file_cfg, "layer", default=1, cast=int)
        v_set = monomial_set(channel, ell, n)
        header = ["index"] + [f"h_{i}_{j}" for i, j in v_set.pair_order] + ["value"]
        rows = [header]
        for idx, (exps, value) in enumerate(zip(v_set.exponent_rows(), v_set.values)):
            rows.append([idx, *exps.tolist(), repr(float(value))])
        with open(dump, "w", encoding="utf-8", newline="") as handle:
            handle.write(_csv_text(rows))
    _emit(_json_text(payload), _opt(args, file_cfg, "output"))
    return EXIT_OK


def _sim_config(args, file_cfg) -> SimConfig:
    alpha = _parse_alphas(_require(_opt(args, file_cfg, "alphas"), "alphas"))
    eps_text = _opt(args, file_cfg, "eps")
    return SimConfig(
        alphas=alpha.alphas,
        n=_opt(args, file_cfg, "n", default=1, cast=int),
        p_grid=_require(
            _opt(args, file_cfg, "p_grid", cast=_parse_floats), "p-grid"
        ),
        trials=_opt(args, file_cfg, "trials", default=0, cast=int),
        seed=_opt(args, file_cfg, "seed", default=0, cast=int),
        eps=parse_rational(eps_text) if eps_text else None,
        h_min=_opt(args, file_cfg, "h_min", default=0.5, cast=float),
        h_max=_opt(args, file_cfg, "h_max", default=2.0, cast=float),
        noise_std=_opt(args, file_cfg, "noise_std", default=1.0, cast=float),
        enum_cap=_opt(args, file_cfg, "cap", default=500_000, cast=int),
        ser_threshold=_opt(args, file_cfg, "ser_threshold", default=1e-2, cast=float),
        with_dmin=bool(_opt(args, file_cfg, "with_dmin", default=False, cast=_parse_bool)),
    )


def cmd_simulate(args, file_cfg) -> int:
    config = _sim_config(args, file_cfg)
    report = run_monte_carlo(config)
    fmt = _opt(args, file_cfg, "format", default="json")
    if fmt == "csv":
        _emit(_csv_text(report.csv_rows()), _opt(args, file_cfg, "output"))
    else:
        _emit(report.to_json(), _opt(args, file_cfg, "output"))
    return EXIT_OK


def cmd_mindist(args, file_cfg) -> int:
    config = _sim_config(args, file_cfg)
    alpha = config.profile()
    channel = sample_channel(alpha.k_users, config.h_min, config.h_max, config.seed)
    entries = []
    for p in config.p_grid:
        plan = build_layer_plan(alpha, config.n, eps=config.eps, p=p)
        _, gamma = power_normalizer(channel, plan)
        for ell in range(1, alpha.k_users - 1):
            if not plan.layer(ell).active:
                continue
            for k in range(ell, alpha.k_users + 1):
                entries.append(
                    {
                        "p": p,
                        "user": k,
                        "layer": ell,
                        "dmin": dmin_bruteforce(
                            channel, k, ell, plan, gamma, config.enum_cap
                        ),
                        "tbound": t_bound(channel, plan, k, ell, gamma),
                    }
                )
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": config.to_json_dict(),
        "entries": entries,
    }
    fmt = _opt(args, file_cfg, "format", default="json")
    if fmt == "csv":
        rows = [["p", "user", "layer", "dmin", "tbound"]]
        for e in entries:
            rows.append([e["p"], e["user"], e["layer"], e["dmin"], e["tbound"]])
        _emit(_csv_text(rows), _opt(args, file_cfg, "output"))
    else:
        _emit(_json_text(payload), _opt(args, file_cfg, "output"))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> _Parser:
    parser = _Parser(prog="mlia", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--output", help="write result to this path")
        p.add_argument("--format", choices=("json", "csv"))
        p.add_argument("--alphas", help="comma list of exact rationals, sorted")

    p = sub.add_parser("gdof", help="optimal and achievable sum GDoF")
    common(p)
    p.add_argument("--n", type=_parse_ints, help="comma list of exponent ranges")

    p = sub.add_parser("bounds", help="generate and certify the bound family")
    common(p)
    p.add_argument("--k", type=int, help="user count for weight-only output")

    p = sub.add_parser("scheme", help="layer plan, set sizes and power scaling")
    common(p)
    p.add_argument("--n", type=int)
    p.add_argument("--eps")
    p.add_argument("--p", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--h-min", dest="h_min", type=float)
    p.add_argument("--h-max", dest="h_max", type=float)
    p.add_argument("--dump-exponents", dest="dump_exponents")
    p.add_argument("--layer", type=int)

    for name, help_text in (
        ("simulate", "Monte Carlo SER sweep"),
        ("mindist", "minimum-distance and residual-bound tables"),
    ):
        p = sub.add_parser(name, help=help_text)
        common(p)
        p.add_argument("--n", type=int)
        p.add_argument("--eps")
        p.add_argument("--p-grid", dest="p_grid", type=_parse_floats)
        p.add_argument("--trials", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--h-min", dest="h_min", type=float)
        p.add_argument("--h-max", dest="h_max", type=float)
        p.add_argument("--noise-std", dest="noise_std", type=float)
        p.add_argument("--cap", type=int)
        p.add_argument("--ser-threshold", dest="ser_threshold", type=float)
        p.add_argument("--with-dmin", dest="with_dmin", action="store_const", const=True)
    return parser


_COMMANDS = {
    "gdof": cmd_gdof,
    "bounds": cmd_bounds,
    "scheme": cmd_scheme,
    "simulate": cmd_simulate,
    "mindist": cmd_mindist,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        file_cfg = _read_config_file(args.config) if args.config else {}
        return _COMMANDS[args.command](args, file_cfg)
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
