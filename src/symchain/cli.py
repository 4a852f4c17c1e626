"""Command-line entry points.

Every subcommand is a thin wrapper over the library: it reads documents,
writes documents or line-oriented reports, and encodes verdicts in the
exit code: 0 success, 1 mathematical-check failure, 2 input error.
Only graded Hilbert tables (homology) take an internal-degree bound; on
any other input --bound is an input error.  The inf: line homology
prints, exactness and quasi-isomorphism verdicts, and so every theorem
checker, need no bound.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import io as docio
from .complexes import FreeComplex, direct_sum, koszul, shift, tensor
from .errors import SymchainError
from .homology import homology, homology_presented, inf_h, is_quasi_iso
from .series import _square_ranks, minimal_model, poinc_check, rank_series
from .sym2 import PresentedComplex, alpha, sym2, weak_sym2
from .theorems import (
    check_s2fpd01,
    check_s2fpd02,
    check_symm07,
    check_symm07pp,
    check_symm09,
    run_paper_corpus,
)

OK, CHECK_FAILED, INPUT_ERROR = 0, 1, 2

CHECKERS = {
    "symm07": check_symm07,
    "symm07pp": check_symm07pp,
    "s2fpd01": check_s2fpd01,
    "s2fpd02": check_s2fpd02,
    "symm09": check_symm09,
}


def _read(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return docio.parse(fh.read())
    except OSError as exc:
        raise SymchainError(f"cannot read {path}: {exc}") from exc


def _read_complex(path: str) -> FreeComplex:
    value = _read(path)
    if not isinstance(value, FreeComplex):
        raise SymchainError(f"{path} does not contain a complex document")
    return value


def _emit(value):
    sys.stdout.write(docio.serialize(value))


def cmd_validate(args):
    _read_complex(args.file)  # parsing rejects d.d != 0 with its degree and entry
    print("valid: true")
    return OK


def cmd_shift(args):
    _emit(shift(_read_complex(args.file), args.n))
    return OK


def cmd_dsum(args):
    _emit(direct_sum(_read_complex(args.a), _read_complex(args.b)))
    return OK


def cmd_tensor(args):
    _emit(tensor(_read_complex(args.a), _read_complex(args.b)))
    return OK


def cmd_koszul(args):
    ring = docio.parse_ring_string(args.ring)
    elements = [ring.scalar(text.strip()) for text in args.elements.split(",") if text.strip()]
    _emit(koszul(elements))
    return OK


def cmd_alpha(args):
    _emit(alpha(_read_complex(args.file)))
    return OK


def cmd_sym2(args):
    _emit(sym2(_read_complex(args.file)).complex)
    return OK


def cmd_weak_sym2(args):
    _emit(weak_sym2(_read_complex(args.file)))
    return OK


def _print_homology(report, inf):
    print(f"backend: {report.ring}")
    print(f"kind: {report.kind}")
    if report.bound is not None:
        print(f"bound: {report.bound}")
    for n in report.nonzero_degrees():
        v = report.values[n]
        if report.kind == "hilbert":
            v = " ".join(f"{d}:{c}" for d, c in sorted(v.items()))
        print(f"H[{n}]: {v}")
    print(f"inf: {'+infinity' if inf is None else inf}")


def cmd_homology(args):
    value = _read(args.file)
    if not isinstance(value, (FreeComplex, PresentedComplex)):
        raise SymchainError("homology expects a complex or presented-complex document")
    if args.bound is not None and not (isinstance(value, FreeComplex) and value.graded):
        raise SymchainError(
            f"--bound applies only to graded complexes; homology over {value.ring} "
            "needs no degree bound"
        )
    if isinstance(value, PresentedComplex):
        report = homology_presented(value)
    else:
        report = homology(value, bound=args.bound)
    # the table stops at the bound; the infimum of a graded complex is exact
    _print_homology(report, inf_h(value) if report.kind == "hilbert" else report.inf)
    return OK


def cmd_quasi_iso(args):
    f = _read(args.file)
    if isinstance(f, FreeComplex) or isinstance(f, PresentedComplex):
        raise SymchainError("quasi-iso expects a chain-map document")
    verdict = is_quasi_iso(f)
    print(f"quasi-isomorphism: {'true' if verdict.ok else 'false'}")
    print(f"backend: {f.source.ring}")
    # failures are degrees n (graded: (n, d)) where the mapping cone has
    # homology: H_n(f) is not onto or H_{n-1}(f) is not injective there
    if verdict.failures:
        print(f"failures: {verdict.failures[:5]}")
    return OK if verdict.ok else CHECK_FAILED


def cmd_series(args):
    X = _read_complex(args.file)
    if args.verify:
        series = rank_series(sym2(X).complex)
        if series.as_dict() == _square_ranks(X.ranks):
            print(f"identity holds: {series}")
            return OK
        print(f"identity fails: left {series}")
        return CHECK_FAILED
    print(rank_series(X))
    return OK


def cmd_minimize(args):
    _emit(minimal_model(_read_complex(args.file)))
    return OK


def cmd_poinc(args):
    try:
        coeffs = [int(c) for c in args.coeffs.split(",") if c.strip()]
    except ValueError:
        raise SymchainError(f"--coeffs must be integers, got {args.coeffs!r}") from None
    report = poinc_check(coeffs, args.sign, args.order)
    print(f"order: {report.order}")
    print(f"sign: {report.sign}")
    print(f"constant: {'true' if report.constant else 'false'}")
    if report.constant:
        print(f"value: {report.constant_value}")
        print(f"case: {report.case or 'none'}")
        if report.forced_value_holds is not None:
            print(f"forced-conclusion-holds: {'true' if report.forced_value_holds else 'false'}")
    print(f"tail-zero: {'true' if report.tail_zero else 'false'}")
    return OK if (not report.constant or report.forced_value_holds is not False) else CHECK_FAILED


def _print_verdict(report):
    print(f"theorem: {report.theorem}")
    print(f"backend: {report.backend}")
    conds = " ".join(
        f"{label}={'T' if value else 'F'}" for label, value in zip(report.labels, report.conditions)
    )
    print(f"conditions: {conds or '(none)'}")
    if report.equivalent is not None:
        print(f"equivalent: {'true' if report.equivalent else 'false'}")
    if report.holds is not None:
        print(f"holds: {'true' if report.holds else 'false'}")
    if report.note:
        print(f"note: {report.note}")
    print("json: " + json.dumps(report.as_dict(), sort_keys=True))


def cmd_check(args):
    report = CHECKERS[args.theorem](_read_complex(args.file))
    _print_verdict(report)
    if report.equivalent is not None:
        return OK if report.equivalent else CHECK_FAILED
    return OK if report.holds else CHECK_FAILED


def cmd_corpus(args):
    if args.action != "run":
        raise SymchainError(f"unknown corpus action {args.action!r}")
    report = run_paper_corpus()
    print(report)
    return OK if report.all_pass else CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symchain",
        description="Exact symmetric squares of chain complexes and their homology.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the complex axioms of a document")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("shift", help="suspend a complex")
    p.add_argument("file")
    p.add_argument("-n", type=int, required=True)
    p.set_defaults(func=cmd_shift)

    p = sub.add_parser("dsum", help="direct sum of two complexes")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=cmd_dsum)

    p = sub.add_parser("tensor", help="tensor product of two complexes")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=cmd_tensor)

    p = sub.add_parser("koszul", help="Koszul complex on ring elements")
    p.add_argument("--ring", required=True)
    p.add_argument("--elements", required=True)
    p.set_defaults(func=cmd_koszul)

    p = sub.add_parser("alpha", help="alternation endomorphism of the tensor square")
    p.add_argument("file")
    p.set_defaults(func=cmd_alpha)

    p = sub.add_parser("sym2", help="symmetric square of a complex")
    p.add_argument("file")
    p.set_defaults(func=cmd_sym2)

    p = sub.add_parser("weak-sym2", help="weak symmetric square (cokernel form)")
    p.add_argument("file")
    p.set_defaults(func=cmd_weak_sym2)

    p = sub.add_parser("homology", help="homology report of a complex")
    p.add_argument("file")
    p.add_argument("--bound", type=int, help="internal-degree bound (graded complexes only)")
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser(
        "quasi-iso", help="test a chain-map document: is its mapping cone exact?"
    )
    p.add_argument("file")
    p.set_defaults(func=cmd_quasi_iso)

    p = sub.add_parser("series", help="rank generating series")
    p.add_argument("file")
    p.add_argument("--verify", action="store_true", help="check the square identity")
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("minimize", help="minimal complex of a document")
    p.add_argument("file")
    p.set_defaults(func=cmd_minimize)

    p = sub.add_parser("poinc", help="power-series dichotomy check")
    p.add_argument("--coeffs", required=True)
    p.add_argument("--sign", required=True, choices=["+", "-"])
    p.add_argument("--order", type=int, required=True)
    p.set_defaults(func=cmd_poinc)

    p = sub.add_parser("check", help="run a theorem checker")
    p.add_argument("theorem", choices=list(CHECKERS))
    p.add_argument("file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("corpus", help="replay the worked-example corpus")
    p.add_argument("action", choices=["run"])
    p.set_defaults(func=cmd_corpus)

    return parser


# parse_args leaves the parser unchanged, so one instance serves every call
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except SymchainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
