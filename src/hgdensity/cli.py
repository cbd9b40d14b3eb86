"""Command-line surface: exact, machine-readable output for every module.

Every handler returns its output and :func:`main` prints it once: a str as
it is, any other value as one line of JSON; ``None`` means the handler wrote
its own output (the sweep's CSV).  Exit codes: 2 for argument/usage errors,
1 for violated mathematical hypotheses (e.g. a prime not exceeding the
modulus), 0 on success, and 0 when the reader of stdout closes it early.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from dataclasses import asdict
from fractions import Fraction

from . import padic, quadratic, specialcase, survey
from .arith import normalize_params
from .density import bounded_residues, density, record
from .errors import HypothesisError

LARGE_HEIGHT = 28  # a serial full sweep above this height takes over a minute of CPU


def _fraction(text: str) -> Fraction:
    try:
        f = Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r} ({e})")
    return f


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="hgdensity",
        description="Exact densities of p-adically bounded primes for 2F1 series",
    )
    sub = top.add_subparsers(dest="cmd", required=True)
    triple = argparse.ArgumentParser(add_help=False)  # the parameters a, b; c
    for name in "abc":
        triple.add_argument(name, type=_fraction)

    p = sub.add_parser("density", parents=[triple], help="exact density of bounded primes")
    p.set_defaults(run=_cmd_density)
    p.add_argument("--json", action="store_true", dest="as_json")

    p = sub.add_parser("residues", parents=[triple], help="the bounded residue classes mod m")
    p.set_defaults(run=_cmd_residues)

    p = sub.add_parser("digits", help="p-adic digits of a-1 and their limits")
    p.set_defaults(run=_cmd_digits)
    p.add_argument("a", type=_fraction)
    p.add_argument("p", type=int)
    p.add_argument("--full-period", action="store_true")

    p = sub.add_parser("bounded", parents=[triple], help="per-prime boundedness verdict")
    p.set_defaults(run=_cmd_bounded)
    p.add_argument("p", type=int)
    p.add_argument("--empirical", type=int, metavar="N", default=None)

    p = sub.add_parser("sweep", help="density statistics up to a height bound")
    p.set_defaults(run=_cmd_sweep)
    p.add_argument("N", type=int)
    p.add_argument("--out", default=None)
    p.add_argument("--workers", type=int, default=1, help="worker processes (default 1)")
    p.add_argument("--force-large", action="store_true",
                   help=f"allow full sweeps above height {LARGE_HEIGHT} (over a minute of CPU)")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--drop-zero", action="store_true")
    mode.add_argument("--beta", type=_fraction, default=None, metavar="EPS")

    p = sub.add_parser("dry-run", help="stratified index-space walk of a sweep, no densities")
    p.set_defaults(run=_cmd_dry_run)
    p.add_argument("N", type=int)
    p.add_argument("--stride", type=int, default=100)
    p.add_argument("--checkpoint", default=None)

    p = sub.add_parser("quad", help="quadratic-residue machinery")
    qsub = p.add_subparsers(dest="qcmd", required=True)
    for name, ints, run in _QUAD:
        q = qsub.add_parser(name)
        q.set_defaults(run=run)
        for arg in ints.split():
            q.add_argument(arg, type=int)

    p = sub.add_parser("special", help="shape table for primes 2*q^r + 1")
    p.set_defaults(run=_cmd_special)
    p.add_argument("p", type=int)
    p.add_argument("--max-density", action="store_true")
    return top


def print_progress(done: int, total: int):
    """The dry run's progress line on stderr, rewritten in place."""
    sys.stderr.write(f"\rsweep: {done}/{total} ({100.0 * done / total:.1f}%)")
    sys.stderr.flush()


def _cmd_density(args):
    params = normalize_params(args.a, args.b, args.c)
    return record(params).to_json() if args.as_json else str(density(params))


def _cmd_residues(args):
    rs = bounded_residues(normalize_params(args.a, args.b, args.c))
    return {"m": rs.modulus, "residues": list(rs.members)}


def _cmd_digits(args):
    a = args.a
    if not (0 < a < 1):
        raise HypothesisError(f"a={a} must lie in (0, 1)")
    exp = padic.padic_digits(a - 1, args.p)
    shown = exp.digits if args.full_period else exp.digits[:5]
    d = a.denominator
    u = args.p % d
    out = {
        "p": args.p,
        "value": str(exp.value),
        "period": exp.period,
        "digits": list(shown),
        "normalized": [f"{dig / args.p:.4f}" for dig in shown],
        "limits": [
            str(padic.normalized_digit_limit(a, u, j)) for j in range(len(shown))
        ],
    }
    if args.full_period:
        out["reconstructs"] = exp.reconstruct() == exp.value
    return out


def _cmd_bounded(args):
    params = normalize_params(args.a, args.b, args.c)
    verdict = padic.digit_bounded(params, args.p)
    out = {"digit": verdict.kind.value, "witness": verdict.witness}
    if args.empirical is not None:
        emp = padic.empirical_bounded(params, args.p, args.empirical)
        out["empirical"] = emp.kind.value
        out["empirical_witness"] = emp.witness
    return out


def _cmd_sweep(args):
    if args.N > LARGE_HEIGHT and not args.force_large:
        raise HypothesisError(
            f"a full sweep above height {LARGE_HEIGHT} takes over a minute of CPU; "
            f"pass --force-large to run height {args.N}"
        )
    # --out is opened before the sweep, so a bad path fails at once, and
    # truncated after it, so a refused sweep leaves the file as it was
    out = open(args.out, "a", newline="") if args.out else contextlib.nullcontext(sys.stdout)
    with out as stream:
        if args.beta is not None:
            b = survey.beta(args.beta, args.N, workers=args.workers)
            write = functools.partial(survey.beta_csv, [(args.beta, args.N, b)])
        else:
            hist = survey.density_histogram(args.N, workers=args.workers, drop_zero=args.drop_zero)
            write = functools.partial(survey.histogram_csv, hist)
        if args.out:
            stream.seek(0)
            stream.truncate()
        write(stream)
    return None


def _cmd_dry_run(args):
    report = survey.slice_dry_run(args.N, args.stride, args.checkpoint, progress=print_progress)
    sys.stderr.write("\n")
    return asdict(report)


# the quad subcommands: name, int arguments, handler
_QUAD = (
    ("class-number", "p", lambda a: asdict(quadratic.class_number(a.p))),
    ("nonresidue", "p", lambda a: quadratic.least_nonresidue(a.p)),
    ("uset", "x p", lambda a: list(quadratic.u_set(a.x, a.p).members)),
    ("wset", "x p", lambda a: list(quadratic.w_set(a.x, a.p).members)),
    ("intersect", "u v p", lambda a: dict(zip(
        ("nonempty", "witness"), quadratic.w_intersection_nonempty(a.u, a.v, a.p)))),
    ("interval-sum", "x p", lambda a: {
        "sum": quadratic.legendre_interval_sum(a.x, a.p),
        "h": quadratic.class_number(a.p).h}),
)


def _cmd_special(args):
    sp = specialcase.parse_special_prime(args.p)
    if sp is None:
        raise HypothesisError(f"{args.p} is not a prime of the form 2*q^r + 1")
    out = {
        "p": sp.p,
        "q": sp.q,
        "r": sp.r,
        "shapes": specialcase.shape_table_json(sp),
    }
    if args.max_density:
        res = specialcase.sweep_special(sp)
        out["max_density"] = str(res.max_density)
        out["witness"] = list(res.witness)
    return out


_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        out = args.run(args)
        if out is not None:  # None: the handler wrote its own output
            print(out if isinstance(out, str) else json.dumps(out))
        sys.stdout.flush()
    except HypothesisError as e:
        print(f"hypothesis violated: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"invalid arguments: {e}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # the reader of stdout has gone, e.g. `| head`
        # what is still buffered goes to devnull, not to a traceback at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except OSError as e:  # e.g. an --out or --checkpoint path in a missing directory
        print(f"file error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
