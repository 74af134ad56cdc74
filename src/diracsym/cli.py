"""Command-line interface emitting JSON certificates.

Exit codes: 0 on success, 2 when an ``--expect`` claim or an internal
check is contradicted by the exact computation, 1 on usage or input
errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import certificate as cert
from .clifford import system_for
from .models import model_for
from .spectra import dispersion_check, little_group_labels
from .symmetry import (
    CANDIDATES,
    CLASSIFY_ORDER,
    VARIANTS,
    classify,
    model_for_variant,
    solve_tau,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2

# Largest accepted dimension: the dense exact engine builds 2^(d/2)-square
# matrices, and d=14 already takes minutes and hundreds of MB.
MAX_DIM = 12


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; remap to 1 so that 2
    stays reserved for claim mismatches."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _even_dim(value: str) -> int:
    d = int(value)
    if d < 2 or d % 2:
        raise argparse.ArgumentTypeError("dimension must be even and >= 2")
    if d > MAX_DIM:
        raise argparse.ArgumentTypeError(f"dimension must be at most {MAX_DIM}")
    return d


def _positive_int(value: str) -> int:
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return n


def _even_dims(value: str) -> list[int]:
    return [_even_dim(x) for x in value.split(",")]


def _expectation(value: str) -> tuple[str, bool]:
    name, _, verdict = value.partition(":")
    if name not in CANDIDATES or verdict not in ("yes", "no"):
        raise argparse.ArgumentTypeError(
            f"bad expectation {value!r}, want NAME:yes|no"
        )
    return name, verdict == "yes"


def _emit(args, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    if args.json or not args.out:
        sys.stdout.write(text)


def _cmd_gamma(args) -> int:
    gs = system_for(args.dim)
    payload = cert.make_certificate(
        "gamma",
        {"d": args.dim},
        cert.gamma_json(gs),
        {"gamma_recursion_normalization"},
    )
    _emit(args, payload)
    return EXIT_OK if gs.relations_hold() else EXIT_MISMATCH


def _cmd_solve_tau(args) -> int:
    model = model_for_variant(args.dim, args.variant, mass=Fraction(args.mass))
    sol = solve_tau(
        model, CANDIDATES[args.symmetry], ansatz=args.ansatz, variant=args.variant
    )
    payload = cert.make_certificate(
        "solve-tau",
        {
            "d": args.dim,
            "variant": args.variant,
            "mass": cert.frac_json(args.mass),
            "symmetry": args.symmetry,
            "ansatz": args.ansatz,
        },
        cert.tau_solution_json(sol),
        cert.flags_for([args.dim], [args.variant]),
    )
    _emit(args, payload)
    return EXIT_OK


def _cmd_classify(args) -> int:
    dims = args.dims
    variants = args.variants.split(",")
    for v in variants:
        if v not in VARIANTS:
            print(f"unknown variant: {v}", file=sys.stderr)
            return EXIT_USAGE
    records = classify(
        dims, variants=tuple(variants), mass=Fraction(args.mass), jobs=args.jobs
    )
    results = [cert.classification_json(r) for r in records]
    expected = dict(args.expect or [])
    mismatches = []
    for rec in records:
        for name, want in expected.items():
            sol = rec.entries.get(name)
            if sol is not None and sol.exists != want:
                mismatches.append(
                    {
                        "d": rec.d,
                        "variant": rec.variant,
                        "symmetry": name,
                        "expected": want,
                        "computed": sol.exists,
                    }
                )
    payload = cert.make_certificate(
        "classify",
        {
            "dims": dims,
            "variants": variants,
            "mass": cert.frac_json(args.mass),
            "expect": {k: ("yes" if v else "no") for k, v in sorted(expected.items())},
        },
        {"table": results, "mismatches": mismatches},
        cert.flags_for(dims, variants),
    )
    _emit(args, payload)
    if mismatches:
        for m in mismatches:
            print(
                "MISMATCH d={} variant={} {}: expected {}, computed {}".format(
                    m["d"],
                    m["variant"],
                    m["symmetry"],
                    "yes" if m["expected"] else "no",
                    "yes" if m["computed"] else "no",
                ),
                file=sys.stderr,
            )
        return EXIT_MISMATCH
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    model = model_for(args.dim, mass=Fraction(args.mass))
    p = [Fraction(x) for x in args.p.split(",")]
    if len(p) != args.dim:
        print("momentum must have exactly d components", file=sys.stderr)
        return EXIT_USAGE
    block = dispersion_check(model, p)
    payload = cert.make_certificate(
        "spectrum",
        {"d": args.dim, "mass": cert.frac_json(args.mass), "p": [str(x) for x in p]},
        cert.dispersion_json(block),
        {"gamma_recursion_normalization"},
    )
    _emit(args, payload)
    return EXIT_OK if block["ok"] else EXIT_MISMATCH


def _cmd_labels(args) -> int:
    if args.dim != 4:
        print("little-group labels are computed for --dim 4", file=sys.stderr)
        return EXIT_USAGE
    model = model_for_variant(4, args.variant, mass=Fraction(args.mass))
    labels = little_group_labels(model)
    payload = cert.make_certificate(
        "labels",
        {"d": 4, "variant": args.variant, "mass": cert.frac_json(args.mass)},
        cert.rep_labels_json(labels),
        {"gamma_recursion_normalization"},
    )
    _emit(args, payload)
    return EXIT_OK


def _cmd_report(args) -> int:
    status = EXIT_OK
    for path in args.certificates:
        try:
            with open(path) as fh:
                c = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"{path}: unreadable certificate: {exc}", file=sys.stderr)
            return EXIT_USAGE
        if not isinstance(c, dict):
            print(
                f"{path}: unreadable certificate: top-level JSON is not an object",
                file=sys.stderr,
            )
            return EXIT_USAGE
        ok = cert.verify_certificate(c)
        print(f"{path}: kind={c.get('kind')} hash={'ok' if ok else 'BAD'}")
        if not ok:
            status = EXIT_MISMATCH
            continue
        if c.get("kind") == "classify":
            for row in c["results"]["table"]:
                verdicts = ", ".join(
                    f"{name}={'yes' if e['exists'] else 'no'}"
                    for name, e in sorted(
                        row["entries"].items(),
                        key=lambda kv: (
                            CLASSIFY_ORDER.index(kv[0])
                            if kv[0] in CLASSIFY_ORDER
                            else len(CLASSIFY_ORDER)
                        ),
                    )
                )
                print(f"  d={row['d']} {row['variant']}: {verdicts}")
            if c["results"]["mismatches"]:
                status = EXIT_MISMATCH
        for flag in c.get("flags", {}):
            print(f"  flag: {flag}")
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="diracsym",
        description=(
            "Exact construction and discrete-symmetry classification of "
            "Dirac-type equations in even spatial dimension"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def output(p):
        p.add_argument("--out", help="write the certificate to this file")
        p.add_argument(
            "--json",
            action="store_true",
            help="print the certificate to stdout even when --out is given",
        )

    p = sub.add_parser("gamma", help="build a gamma system and check its relations")
    p.add_argument("--dim", type=_even_dim, required=True)
    output(p)
    p.set_defaults(func=_cmd_gamma)

    p = sub.add_parser("solve-tau", help="solve one intertwiner equation exactly")
    p.add_argument("--dim", type=_even_dim, required=True)
    p.add_argument("--variant", choices=VARIANTS, default="single")
    p.add_argument("--mass", default="1")
    p.add_argument("--symmetry", choices=sorted(CANDIDATES), required=True)
    p.add_argument("--ansatz", choices=("full", "clifford2"), default="full")
    output(p)
    p.set_defaults(func=_cmd_solve_tau)

    p = sub.add_parser("classify", help="existence table over dims and variants")
    p.add_argument(
        "--dims", type=_even_dims, required=True, help="comma-separated even dims"
    )
    p.add_argument("--variants", default="single")
    p.add_argument("--mass", default="1")
    p.add_argument(
        "--expect",
        action="append",
        type=_expectation,
        metavar="NAME:yes|no",
        help="claimed verdict; contradictions exit with status 2",
    )
    p.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help="worker processes, at most one per cell",
    )
    output(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("spectrum", help="exact dispersion certificate H(p)^2")
    p.add_argument("--dim", type=_even_dim, required=True)
    p.add_argument("--mass", default="1")
    p.add_argument("--p", required=True, help="comma-separated momentum")
    output(p)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("labels", help="little-group labels of a massive d=4 model")
    p.add_argument("--dim", type=_even_dim, default=4)
    p.add_argument("--variant", choices=("single", "single-", "doubled"), default="single")
    p.add_argument("--mass", default="1")
    output(p)
    p.set_defaults(func=_cmd_labels)

    p = sub.add_parser("report", help="validate and summarize certificates")
    p.add_argument("certificates", nargs="+")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return EXIT_MISMATCH


if __name__ == "__main__":
    raise SystemExit(main())
