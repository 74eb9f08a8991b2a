"""Command-line front end.

Four subcommands: ``exist`` answers the existence question with the clause
that decided it, ``laplace`` evaluates the closed-form transforms (with an
optional Monte Carlo cross-check), ``verify`` runs the named check suite,
and ``sample`` writes draws as CSV.  Every run can emit a machine-readable
report; exit status is 0 when all records pass, 1 when any fails, and 2
when the request is refused.  Handlers raise ``ValueError`` for bad
arguments and measures that do not exist (the package's ``DomainError``,
``RankExceedsShapeError`` and ``MatrixFileError`` are subclasses), and
``OSError`` for files they cannot read or write; :func:`main` is the one
place that turns either into an ``error:`` line and exit status 2.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .measures import (
    ExistenceVerdict,
    MeasureSpec,
    NcwParams,
    exists_m,
    exists_ncw,
    laplace_m,
    laplace_ncw,
)
from .report import (
    CheckRecord,
    Provenance,
    Report,
    format_float,
    read_matrix_file,
    write_samples_csv,
)
from .samplers import (
    empirical_laplace,
    m_measure_sample,
    ncw_sample,
    singular_r_sample,
    weighted_laplace_estimate,
)
from .verify import SUITES, RunConfig, run_suite

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncwishart",
        description="Non-central Wishart measures: existence, transforms, sampling, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_exist = sub.add_parser(
        "exist", help="decide whether the requested measure exists"
    )
    p_exist.add_argument("--d", type=int, help="dimension (required unless --w-file is given)")
    p_exist.add_argument("--two-p", type=float, required=True, help="shape parameter 2p")
    p_exist.add_argument("--k", type=int, default=0, help="rank of the non-centrality (default 0)")
    p_exist.add_argument("--w-file", help="matrix file for w; its rank replaces --k")
    p_exist.add_argument("--sigma-file", help="matrix file for sigma (default identity)")
    _add_report_flags(p_exist)

    p_laplace = sub.add_parser(
        "laplace", help="closed-form Laplace transform at a matrix argument"
    )
    p_laplace.add_argument("--s-file", required=True, help="matrix file for s (positive definite)")
    p_laplace.add_argument("--d", type=int, help="dimension (checked against the s file)")
    p_laplace.add_argument("--two-p", type=float, required=True, help="shape parameter 2p")
    p_laplace.add_argument("--k", type=int, help="rank index: evaluate the canonical measure")
    p_laplace.add_argument("--w-file", help="matrix file for w: evaluate the NCW transform")
    p_laplace.add_argument("--sigma-file", help="matrix file for sigma (default identity)")
    p_laplace.add_argument(
        "--mc-check",
        action="store_true",
        help="cross-check the closed form against a Monte Carlo estimate (4 sigma)",
    )
    p_laplace.add_argument("--seed", type=int, default=0)
    p_laplace.add_argument("--trials", type=int, default=10_000, help="MC draws = 10x this")
    _add_report_flags(p_laplace)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", choices=sorted(SUITES), default="all")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--trials", type=int, default=10_000)
    p_verify.add_argument(
        "--threads", type=int, default=None, help="worker cap (default: available cores)"
    )
    _add_report_flags(p_verify)

    p_sample = sub.add_parser("sample", help="draw from a measure and write CSV")
    p_sample.add_argument("--target", choices=("ncw", "m", "singular-r"), required=True)
    p_sample.add_argument("--d", type=int, help="dimension")
    p_sample.add_argument("--two-p", "--n", dest="two_p", type=float, help="shape parameter")
    p_sample.add_argument("--k", type=int, help="rank index (target m)")
    p_sample.add_argument("--w-file", help="matrix file for w (target ncw, default zero)")
    p_sample.add_argument("--sigma-file", help="matrix file for sigma (default identity)")
    p_sample.add_argument("--n-draws", type=int, default=10_000)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--output", help="CSV path (default: stdout)")

    return parser


def _add_report_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", help="write the report to this path")
    p.add_argument("--format", choices=("json", "csv"), default="json")


def _ncw_params(args: argparse.Namespace, d: int | None, source: str) -> NcwParams:
    """NcwParams from --two-p, --w-file (zero when absent) and --sigma-file.

    *d*, the dimension that *source* gives, must match the w file's.
    """
    w = read_matrix_file(args.w_file) if args.w_file else np.zeros((d, d))
    if d is not None and d != w.shape[0]:
        raise ValueError(f"{source} {d} contradicts the {w.shape[0]}-dimensional w file")
    sigma = read_matrix_file(args.sigma_file) if args.sigma_file else None
    return NcwParams(args.two_p, w, sigma)


def _require(verdict: ExistenceVerdict) -> None:
    if not verdict:
        raise ValueError(f"refusing: {verdict.clause}")


def _emit_report(report: Report, args: argparse.Namespace) -> None:
    if getattr(args, "output", None):
        text = report.to_json() if args.format == "json" else report.to_csv()
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _verdict_record(verdict: ExistenceVerdict) -> CheckRecord:
    return CheckRecord(
        name="existence-verdict",
        value="exists" if verdict.exists else "not-exists",
        expected=None,
        tolerance=0.0,
        passed=True,
        provenance=Provenance.CLOSED_FORM,
        detail=verdict.clause,
    )


def _cmd_exist(args: argparse.Namespace) -> int:
    if args.w_file:
        verdict = exists_ncw(_ncw_params(args, args.d, "--d"))
    elif args.d is None:
        raise ValueError("either --d or --w-file is required")
    else:
        verdict = exists_m(args.two_p, args.k, args.d)
    word = "exists" if verdict.exists else "does not exist"
    print(f"m(2p={args.two_p}, k={verdict.rank}, d={verdict.dim}) {word}: {verdict.clause}")
    report = Report(
        command=_echo_command(args),
        inputs={"two_p": args.two_p, "k": verdict.rank, "d": verdict.dim},
        results=[_verdict_record(verdict)],
    )
    _emit_report(report, args)
    return 0


def _cmd_laplace(args: argparse.Namespace) -> int:
    s = read_matrix_file(args.s_file)
    d = s.shape[0]
    if args.d is not None and args.d != d:
        raise ValueError(f"--d {args.d} contradicts the {d}-dimensional s file")
    eigs = np.linalg.eigvalsh(s)
    if eigs[0] <= 0:
        raise ValueError(f"s must be positive definite; smallest eigenvalue {eigs[0]:.3e}")
    if (args.k is None) == (args.w_file is None):
        raise ValueError("give exactly one of --k (canonical measure) or --w-file (NCW)")

    report = Report(command=_echo_command(args), inputs={"two_p": args.two_p, "d": d})
    rng = np.random.default_rng(args.seed)
    n_draws = 10 * args.trials

    if args.k is not None:
        _require(exists_m(args.two_p, args.k, d))
        spec = MeasureSpec(args.two_p, args.k, d)
        value = laplace_m(s, spec)
        report.inputs["k"] = args.k
        name = "laplace-m"

        def estimate():
            return weighted_laplace_estimate(m_measure_sample(spec, n_draws, rng), s)

    else:
        params = _ncw_params(args, d, "the s file's dimension")
        _require(exists_ncw(params))
        value = laplace_ncw(s, params)
        name = "laplace-ncw"

        def estimate():
            return empirical_laplace(ncw_sample(params, n_draws, rng), s)

    report.add(
        CheckRecord(
            name=name,
            value=value,
            expected=None,
            tolerance=0.0,
            passed=True,
            provenance=Provenance.CLOSED_FORM,
            detail=f"closed form at the supplied s, shape {args.two_p}",
        )
    )
    if args.mc_check:
        try:
            est = estimate()
        except ValueError as exc:
            raise ValueError(f"cross-check unavailable: {exc}") from exc
        _add_mc_record(report, value, est.estimate, est.std_error, n_draws)
    print(format_float(value))
    for rec in report.results[1:]:
        status = "pass" if rec.passed else "FAIL"
        print(f"{rec.name}: {format_float(rec.value)} sigma from closed form [{status}]")
    _emit_report(report, args)
    return 0 if report.passed else 1


def _add_mc_record(
    report: Report, closed: float, estimate: float, std_error: float, n_draws: int
) -> None:
    z = abs(estimate - closed) / std_error if std_error > 0 else 0.0
    report.add(
        CheckRecord(
            name="mc-cross-check",
            value=z,
            expected=0.0,
            tolerance=4.0,
            passed=z <= 4.0,
            provenance=Provenance.MONTE_CARLO,
            detail=f"estimate {format_float(estimate)} +- {format_float(std_error)}, N = {n_draws}",
        )
    )


def _cmd_verify(args: argparse.Namespace) -> int:
    config = RunConfig(seed=args.seed, trials=args.trials, threads=args.threads)
    report = run_suite(args.suite, config)
    for rec in report.results:
        status = "pass" if rec.passed else "FAIL"
        print(f"[{status}] {rec.name}: value {_show(rec.value)}, tolerance {_show(rec.tolerance)}")
    n_fail = len(report.failures())
    print(
        f"suite {args.suite}: {len(report.results) - n_fail}/{len(report.results)} "
        f"records pass in {report.timing:.1f}s"
    )
    _emit_report(report, args)
    return 0 if report.passed else 1


def _show(v) -> str:
    return repr(v) if isinstance(v, float) else str(v)


def _cmd_sample(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    log_weights = None

    if args.target == "singular-r":
        if args.d is None:
            raise ValueError("--d is required for target singular-r")
        sample = singular_r_sample(args.d, args.n_draws, rng)
        draws, log_weights = sample.draws, sample.log_weights
    elif args.target == "m":
        if args.d is None or args.two_p is None or args.k is None:
            raise ValueError("target m needs --d, --two-p (or --n), and --k")
        _require(exists_m(args.two_p, args.k, args.d))
        sample = m_measure_sample(MeasureSpec(args.two_p, args.k, args.d), args.n_draws, rng)
        draws, log_weights = sample.draws, sample.log_weights
    else:
        if args.d is None or args.two_p is None:
            raise ValueError("target ncw needs --d and --n (or --two-p)")
        params = _ncw_params(args, args.d, "--d")
        _require(exists_ncw(params))
        draws = ncw_sample(params, args.n_draws, rng)

    if args.output:
        write_samples_csv(args.output, draws, log_weights)
        print(f"wrote {len(draws)} rows to {args.output}")
    else:
        write_samples_csv(sys.stdout, draws, log_weights)
    return 0


def _echo_command(args: argparse.Namespace) -> str:
    parts = ["ncwishart", args.command]
    skip = {"command", "output", "format"}
    for key, val in sorted(vars(args).items()):
        if key in skip or val in (None, False):
            continue
        flag = "--" + key.replace("_", "-")
        parts.append(flag if val is True else f"{flag} {val}")
    return " ".join(parts)


_HANDLERS = {
    "exist": _cmd_exist,
    "laplace": _cmd_laplace,
    "verify": _cmd_verify,
    "sample": _cmd_sample,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize --help to 0
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except BrokenPipeError:
        return 0
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
