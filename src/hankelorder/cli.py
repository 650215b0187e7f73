"""Command-line front end: generate, rank, estimate, experiment, list.

All numerics live in the library modules; the CLI parses flags, wires
files, and prints one headline per invocation.  Exit code 0 means the
requested artifact was fully written; argument or data errors, and
sizes that do not fit in memory, exit 2.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .estimators import (
    _order_str,
    _rank_sweeps,
    aic_order,
    covariance_determinants,
    covdet_order,
    hokalman_order,
    write_aic_csv,
    write_covdet_csv,
    write_sweep_csv,
)
from .experiments import ExperimentSpec, list_experiments, run_experiment
from .rank import RankPolicy
from .signals import (
    Mode,
    ModeSum,
    gen_high_order,
    gen_mode_sum,
    gen_nonhomogeneous,
    gen_y5,
    read_signal_csv,
    write_pair_csv,
    write_signal_csv,
)

GENERATE_FAMILIES = ("mode_sum", "y5", "high_order", "nonhomogeneous")
ESTIMATE_METHODS = ("hokalman", "aic", "covdet")
# Each flag that some command does not read, with the commands, generate
# families and estimate methods that do.  main rejects such a flag set away
# from its parser default anywhere else, checking in this order.
_READERS = {
    "--seed": ("experiment",),
    "--policy": ("rank", "estimate --method hokalman"),
    "--tol": ("rank", "estimate --method hokalman"),
    "--n-max": ("rank", "estimate --method hokalman"),
    "--p-max": ("estimate --method aic",),
    "--m-range": ("estimate --method covdet",),
    "--mode": ("generate mode_sum",),
    "--sample-period": ("generate mode_sum", "generate high_order", "generate nonhomogeneous"),
    "--f0": ("generate high_order",),
    "--n0": ("generate high_order",),
    "--m": ("generate high_order",),
    "--out": ("generate", "rank", "estimate", "experiment"),
}


def _build_policy(args) -> RankPolicy | None:
    """The --policy/--tol rank policy; None (the default policy) without
    flags."""
    name, tol = args.policy, args.tol
    if name is None:
        if tol is not None:
            raise ValueError("--tol requires --policy")
        return None
    if name == "relative":
        return RankPolicy.relative(tol if tol is not None else 1e-10)
    if name == "absolute":
        if tol is None:
            raise ValueError("--policy absolute requires --tol")
        return RankPolicy.absolute(tol)
    return RankPolicy.gap(tol) if tol is not None else RankPolicy.gap()


# argparse names the type function in the message for its ValueError, so
# these raise ArgumentTypeError, whose text it prints after the flag.
def _parse_mode(text: str) -> Mode:
    try:
        parts = [float(x) for x in text.split(",")]
    except ValueError:
        parts = []
    if len(parts) not in (2, 3):
        raise argparse.ArgumentTypeError(f"expects coeff,decay[,freq] numbers, got {text!r}")
    try:
        return Mode(*parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{exc}, got {text!r}") from None


def _parse_m_range(text: str) -> range:
    lo, _, hi = text.partition(":")
    try:
        return range(int(lo), int(hi) + 1)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects lo:hi with integer ends, got {text!r}") from None


def _parse_override(token: str):
    for cast in (int, float):
        try:
            return cast(token)
        except ValueError:
            continue
    return token


def _experiment_epilog() -> str:
    lines = ["registered experiments:"]
    for name, description, _ in list_experiments():
        lines.append(f"  {name}: {description}")
    return "\n".join(lines)


def _add_common(parser: argparse.ArgumentParser, suppress: bool) -> None:
    # Global flags are accepted both before and after the subcommand; the
    # subparser copies use SUPPRESS so they never clobber earlier values.
    d = argparse.SUPPRESS if suppress else None
    parser.add_argument("--seed", type=int, default=d, help="experiment seed (experiment only)")
    parser.add_argument("--policy", choices=("relative", "absolute", "gap"), default=d,
                        help="rank tolerance policy (default: relative max(shape)*eps)")
    parser.add_argument("--tol", type=float, default=d, help="policy value (threshold or min ratio)")
    parser.add_argument("--out", type=Path, default=d, help="output CSV path")


# Built on the first main() call and shared by later ones: parsing leaves a
# parser as it was, and every default it holds (the --mode append list
# included) is immutable or None.
@functools.cache
def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hankelorder",
        description="Model-order estimation via Hankel-matrix rank analysis.",
        epilog=_experiment_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    _add_common(parser, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    _add_common(common, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="synthesize a response family to CSV", parents=[common])
    p_gen.add_argument("family", choices=GENERATE_FAMILIES)
    p_gen.add_argument("--count", type=int, default=40)
    p_gen.add_argument("--sample-period", type=float, default=1.0)
    p_gen.add_argument("--mode", type=_parse_mode, action="append", default=None,
                       help="mode_sum term 'coeff,decay[,freq]' (repeatable)")
    p_gen.add_argument("--f0", choices=("sinusoid", "exponential"), default="exponential")
    p_gen.add_argument("--n0", type=int, default=50)
    p_gen.add_argument("--m", type=int, default=1)

    p_rank = sub.add_parser("rank", help="rank sweep (or single-n rank) of a signal CSV", parents=[common])
    p_rank.add_argument("input", type=Path)
    group = p_rank.add_mutually_exclusive_group()
    group.add_argument("--n", type=int, default=None, help="rank of the single n x n matrix")
    group.add_argument("--n-max", type=int, default=8, help="sweep n = 2..n_max")

    p_est = sub.add_parser("estimate", help="order estimation report for a signal CSV", parents=[common])
    p_est.add_argument("input", type=Path)
    p_est.add_argument("--method", choices=ESTIMATE_METHODS, required=True)
    p_est.add_argument("--n-max", type=int, default=8)
    p_est.add_argument("--p-max", type=int, default=10)
    p_est.add_argument("--m-range", type=_parse_m_range, default=range(2, 9),
                       help="covdet orders as lo:hi (inclusive)")

    # no abbreviations here: fig3's --p override would otherwise parse as --policy
    p_exp = sub.add_parser(
        "experiment",
        help="run a registered experiment (extra --key value pairs override parameters)",
        epilog=_experiment_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
        parents=[common],
        allow_abbrev=False,
    )
    p_exp.add_argument("name")

    sub.add_parser("list", help="list registered experiments", parents=[common])
    return parser


@functools.cache
def _flag_defaults(parser: argparse.ArgumentParser) -> dict:
    """Each flag's parser default; commands that share a flag share its
    default, and the subcommand copies of the global flags SUPPRESS theirs."""
    [commands] = parser._subparsers._group_actions
    return {
        flag: action.default
        for p in (parser, *commands.choices.values())
        for action in p._actions
        for flag in action.option_strings
        if action.default is not argparse.SUPPRESS
    }


def _cmd_generate(args) -> int:
    family = args.family
    out = args.out or Path(f"{family}.csv")
    if family == "y5":
        sig = gen_y5(args.count)
        write_signal_csv(sig, out)
    elif family == "mode_sum":
        modes = args.mode or [Mode(1.0, 0.5)]
        sig = gen_mode_sum(ModeSum(modes), args.count, args.sample_period)
        write_signal_csv(sig, out)
    elif family == "high_order":
        sig = gen_high_order(args.f0, args.n0, args.count, args.m, sample_period=args.sample_period)
        write_signal_csv(sig, out)
    else:  # nonhomogeneous
        y, u = gen_nonhomogeneous(args.count, args.sample_period)
        write_pair_csv(y, u, out)
    print(f"wrote {out}")
    return 0


def _cmd_rank(args, policy: RankPolicy | None) -> int:
    if args.n is not None and args.n < 1:
        raise ValueError("--n must be >= 1")
    signal = read_signal_csv(args.input)
    out = args.out or Path("rank_sweep.csv")
    if args.n is not None:
        [sweep] = _rank_sweeps(signal.samples[None], args.n, "square", policy, n_min=args.n)
        write_sweep_csv(sweep, out)
        print(f"order={sweep.points[0].rank}")
        return 0
    estimate, sweep = hokalman_order(signal, args.n_max, policy)
    write_sweep_csv(sweep, out)
    print(_order_str(estimate))
    return 0


def _cmd_estimate(args, policy: RankPolicy | None) -> int:
    signal = read_signal_csv(args.input)
    out = args.out or Path(f"{args.method}.csv")
    if args.method == "hokalman":
        estimate, sweep = hokalman_order(signal, args.n_max, policy)
        write_sweep_csv(sweep, out)
    elif args.method == "aic":
        estimate, report = aic_order(signal, args.p_max)
        write_aic_csv(report, out)
    else:
        report = covariance_determinants(signal, args.m_range)
        estimate = covdet_order(report)
        write_covdet_csv(report, out)
    print(_order_str(estimate))
    return 0


def _cmd_experiment(args, extras: list[str]) -> int:
    overrides: dict = {}
    i = 0
    while i < len(extras):
        token = extras[i]
        if not token.startswith("--") or i + 1 >= len(extras):
            raise ValueError(f"cannot parse experiment override {token!r}; use --key value")
        overrides[token[2:].replace("-", "_")] = _parse_override(extras[i + 1])
        i += 2
    spec = ExperimentSpec(args.name, overrides, args.seed)
    out = args.out or Path(f"{args.name}.csv")
    summary = run_experiment(spec, out)
    print(summary.line())
    return 0


def _cmd_list() -> int:
    for name, description, defaults in list_experiments():
        pretty = ", ".join(f"{k}={v}" for k, v in sorted(defaults.items()))
        print(f"{name}: {description} [defaults: {pretty}]")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _make_parser()
    if argv is None:
        argv = sys.argv[1:]
    args, extras = parser.parse_known_args(argv)
    if extras and args.command != "experiment":
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    invocation = {args.command}
    if args.command == "generate":
        invocation.add(f"generate {args.family}")
    elif args.command == "estimate":
        invocation.add(f"estimate --method {args.method}")
    defaults = _flag_defaults(parser)
    try:
        for flag, readers in _READERS.items():
            default = defaults[flag]
            if invocation.isdisjoint(readers) and getattr(args, flag[2:].replace("-", "_"), default) != default:
                raise ValueError(f"{flag} applies only to {', '.join(readers)}")
        policy = _build_policy(args)
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "rank":
            return _cmd_rank(args, policy)
        if args.command == "estimate":
            return _cmd_estimate(args, policy)
        if args.command == "experiment":
            return _cmd_experiment(args, extras)
        return _cmd_list()
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
