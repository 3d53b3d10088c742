"""Command-line front end: experiment subcommands with deterministic JSON,
CSV, or text output.

Exit codes: 0 success, 2 precondition violation, 3 cap exceeded, 64 unknown
subcommand.  Output is byte-identical across runs for a fixed configuration
(collections are emitted in sorted key order).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

import numpy as np

from . import duality as dual_mod
from . import measure as measure_mod
from .errors import CapExceededError, FractalMRAError, PreconditionError
from .filterbank import build_bank, canonical_lowpass, unitarity_defect
from .ifs import DigitSystem, hausdorff_dimension
from .laurent import LaurentPolynomial, monomial
from .space import (
    cascade_experiment,
    gram_section,
    representation_limit,
    wavelet_generators,
)
from .transfer import TransferOperator, spectral_block

SUBCOMMANDS = (
    "dimension",
    "filters",
    "spectrum",
    "moments",
    "cycles",
    "classify",
    "duality",
    "onb-check",
    "cascade",
    "riesz",
    "gram",
    "table",
    "replimit",
)

DEFAULT_MOMENT_RANGE = 256
DEFAULT_CASCADE_STEPS = 8
DEFAULT_PRODUCT_DEPTH = 40

# the three reference dual systems tabulated by the `table` subcommand
TABLE_SYSTEMS = (
    (4, (0, 2), (0, 1)),
    (6, (0, 3), (0, 1)),
    (6, (0, 1), (0, 3)),
    (6, (0, 2, 4), (0, 1, 2)),
)


def _parse_digits(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part != "")
    except ValueError as exc:
        raise PreconditionError(f"invalid digit list: {text!r}") from exc


def _scalar_json(s) -> dict:
    z = s.to_complex()
    return {"re": z.real, "im": z.imag, "exact": s.exact_str()}


def _poly_json(poly: LaurentPolynomial) -> dict:
    return {
        "terms": [[k, _scalar_json(v)] for k, v in poly.items()],
        "display": str(poly),
    }


def _modifier_polynomial(expr: str, m0: LaurentPolynomial) -> LaurentPolynomial:
    if expr == "none":
        return m0
    if expr == "neg":
        return m0 * (-1)
    if expr.startswith("z"):
        try:
            power = int(expr[1:])
        except ValueError as exc:
            raise PreconditionError(f"invalid modifier {expr!r}") from exc
        return monomial(power) * m0
    raise PreconditionError(
        f"invalid modifier {expr!r} (expected none, neg, or z<int>)"
    )


def _system(args) -> DigitSystem:
    return DigitSystem(args.scale, _parse_digits(args.digits))


# -- subcommand handlers: each returns (json_obj, csv_rows_or_None, text) ----

def _run_dimension(args):
    sys_ = _system(args)
    result = {"dimension": hausdorff_dimension(sys_)}
    return result, None, f"dimension {result['dimension']!r}\n"


def _run_filters(args):
    sys_ = _system(args)
    bank = build_bank(sys_)
    defect = unitarity_defect(bank, samples=args.samples)
    obj = {
        "scale": sys_.scale,
        "digits": list(sys_.digits),
        "filters": [_poly_json(f) for f in bank.filters],
        "unitarity_defect": defect,
        "exact": bank.is_exact,
    }
    text = "\n".join(
        [f"m_{i} = {f}" for i, f in enumerate(bank.filters)]
        + [f"unitarity defect: {defect!r}", ""]
    )
    return obj, None, text


def _run_spectrum(args):
    sys_ = _system(args)
    op = TransferOperator.from_filter(canonical_lowpass(sys_), sys_.scale)
    block = spectral_block(op)
    eigs = sorted(
        ([ev.real, ev.imag] for ev in block.eigenvalues),
        key=lambda t: (t[0], t[1]),
    )
    obj = {
        "scale": sys_.scale,
        "digits": list(sys_.digits),
        "halfwidth": block.halfwidth,
        "dimension": block.dimension,
        "eigenvalues": eigs,
        "eigenvalue_one_multiplicity": block.eigenvalue_one_multiplicity,
        "has_other_peripheral": block.has_other_peripheral,
        "fixes_constant": block.fixes_constant,
        "eigenvalue_one_simple_exact": block.eigenvalue_one_simple_exact,
    }
    text = (
        f"block dimension {block.dimension} (halfwidth {block.halfwidth})\n"
        f"eigenvalues: {eigs!r}\n"
    )
    return obj, None, text


def _run_moments(args):
    sys_ = _system(args)
    op = TransferOperator.from_filter(canonical_lowpass(sys_), sys_.scale)
    table = measure_mod.moment_table(op, args.range, args.max_iter, args.tol)
    profile = measure_mod.wiener_profile(table, args.range)
    moments = [
        {
            "n": e.n,
            **_scalar_json(e.value),
            "status": e.status,
            "iterations": e.iterations,
            "cesaro": e.cesaro,
        }
        for e in table.rows()
    ]
    wiener = {
        "rows": [
            {
                "k": r.k,
                "s": _scalar_json(r.partial_sum),
                "ratio": None if r.ratio is None else _scalar_json(r.ratio),
            }
            for r in profile.rows
        ],
        "unsettled": list(profile.unsettled),
    }
    obj = {
        "scale": sys_.scale,
        "digits": list(sys_.digits),
        "range": args.range,
        "moments": moments,
        "wiener": wiener,
    }
    if args.emit == "wiener":
        rows = [["k", "s_k", "ratio"]]
        for r in profile.rows:
            rows.append(
                [
                    r.k,
                    repr(float(r.partial_sum.to_complex().real)),
                    "" if r.ratio is None else repr(float(r.ratio.to_complex().real)),
                ]
            )
    else:
        rows = [["n", "re", "im", "status"]]
        for e in table.rows():
            z = e.value.to_complex()
            rows.append([e.n, repr(z.real), repr(z.imag), e.status])
    text_lines = [
        f"nu^({e.n}) = {e.value.exact_str() or e.value.to_complex()} [{e.status}]"
        for e in table.rows()
        if e.n >= 0
    ]
    return obj, rows, "\n".join(text_lines) + "\n"


def _feasible_cycle_length(N: int, requested: int) -> int:
    """Longest length within the library's point cap, at most `requested`."""
    L = 1
    while L < requested and N ** (L + 1) - 1 <= measure_mod.CYCLE_POINT_CAP:
        L += 1
    return L


def _run_cycles(args):
    sys_ = _system(args)
    length = _feasible_cycle_length(sys_.scale, args.length)
    report = measure_mod.find_cycles(canonical_lowpass(sys_), sys_.scale, length)
    obj = {
        "scale": sys_.scale,
        "digits": list(sys_.digits),
        "requested_length": args.length,
        "searched_length": report.searched_length,
        "verdict": report.verdict,
        "cycles": [
            {
                "angles": [str(a) for a in c.angles],
                "values": list(c.values),
                "length": c.length,
            }
            for c in report.cycles
        ],
    }
    text = f"{report.verdict}: {[[str(a) for a in c.angles] for c in report.cycles]!r}\n"
    return obj, None, text


def _run_classify(args):
    sys_ = _system(args)
    length = _feasible_cycle_length(sys_.scale, args.length)
    cls = measure_mod.classify_support(
        canonical_lowpass(sys_), sys_.scale, length
    )
    obj = {
        "scale": sys_.scale,
        "digits": list(sys_.digits),
        "searched_length": length,
        "kind": cls.kind,
        "diagnostics": {
            k: v for k, v in sorted(cls.diagnostics.items())
        },
        "atoms": [
            {
                "angles": [str(a) for a in atom.cycle.angles],
                "weights": [str(w) for w in atom.weights],
            }
            for atom in cls.atoms
        ],
    }
    if cls.moments is not None:
        obj["moments"] = [
            {"n": e.n, **_scalar_json(e.value), "status": e.status}
            for e in cls.moments.rows()
            if e.n >= 0
        ]
    return obj, None, f"{cls.kind}\n"


def _run_duality(args):
    sys_ = _system(args)
    pair = dual_mod.dual_matrix(sys_, _parse_digits(args.dual))
    obj = {
        "scale": sys_.scale,
        "digits": list(sys_.digits),
        "dual": list(pair.dual),
        "verdict": pair.verdict,
        "defect": pair.defect,
        "exact_unitary": pair.exact_unitary,
        "matrix": [[[z.real, z.imag] for z in row] for row in pair.matrix()],
    }
    if pair.is_dual:
        prefix = dual_mod.lambda_set(pair, args.count).prefix
        cycles = dual_mod.b_cycles(pair, args.cycle_length)
        obj["lambda_prefix"] = list(prefix)
        obj["b_cycles"] = {
            "trivial_only": cycles.trivial_only,
            "cycles": [
                {
                    "angles": [str(a) for a in c.angles],
                    "word": list(c.word),
                    "values": list(c.values),
                }
                for c in cycles.cycles
            ],
        }
    text = f"{pair.verdict}; lambda prefix {obj.get('lambda_prefix')!r}\n"
    return obj, None, text


def _run_onb_check(args):
    sys_ = _system(args)
    pair = dual_mod.dual_matrix(sys_, _parse_digits(args.dual))
    if not pair.is_dual:
        raise PreconditionError("onb-check requires a Dual pair")
    prefix = dual_mod.lambda_set(pair, args.count).prefix
    gram = dual_mod.exponential_gram(sys_, prefix, args.depth)
    eye = np.eye(len(prefix))
    off = float(np.max(np.abs(gram - eye)))
    sums = dual_mod.onb_defect(pair, args.xi, args.count, args.depth)
    monotone = all(b >= a - 1e-15 for a, b in zip(sums, sums[1:]))
    obj = {
        "scale": sys_.scale,
        "digits": list(sys_.digits),
        "dual": list(pair.dual),
        "exponents": list(prefix),
        "gram_max_deviation": off,
        "xi": args.xi,
        "partial_sums": sums,
        "monotone": monotone,
        "bessel_bound_ok": bool(max(sums) <= 1 + 1e-9),
    }
    text = (
        f"gram deviation {off!r}; partial sums monotone={monotone} "
        f"max={max(sums)!r}\n"
    )
    return obj, None, text


def _run_cascade(args):
    sys_ = _system(args)
    m0 = canonical_lowpass(sys_)
    m = _modifier_polynomial(args.modifier, m0)
    rows = cascade_experiment(sys_, m, args.steps)
    obj = {
        "scale": sys_.scale,
        "digits": list(sys_.digits),
        "modifier": args.modifier,
        "rows": [
            {
                "n": r.n,
                "norm_sq": _scalar_json(r.diff_norm_sq),
                "inner": _scalar_json(r.inner),
                "transfer_inner": _scalar_json(r.transfer_inner),
            }
            for r in rows
        ],
    }
    csv_rows = [["n", "norm_sq", "inner_re", "inner_im"]]
    for r in rows:
        z = r.inner.to_complex()
        csv_rows.append(
            [r.n, repr(r.diff_norm_sq.to_complex().real), repr(z.real), repr(z.imag)]
        )
    text = "\n".join(
        f"n={r.n} |diff|^2={r.diff_norm_sq.exact_str()} inner={r.inner.exact_str()}"
        for r in rows
    )
    return obj, csv_rows, text + "\n"


def _run_riesz(args):
    samples = measure_mod.riesz_samples(args.depth, args.grid)
    obj = {
        "depth": args.depth,
        "grid": args.grid,
        "rows": [[t, v] for t, v in samples],
    }
    csv_rows = [["t", "value"]] + [[repr(t), repr(v)] for t, v in samples]
    return obj, csv_rows, f"{len(samples)} samples; first {samples[0]!r}\n"


def _run_gram(args):
    sys_ = _system(args)
    gens = wavelet_generators(sys_)
    section = gram_section(
        sys_,
        gens,
        range(-args.jrange, args.jrange + 1),
        range(-args.krange, args.krange + 1),
    )
    obj = {
        "scale": sys_.scale,
        "digits": list(sys_.digits),
        "size": section.size,
        "is_identity": section.is_identity(),
        "max_deviation": section.max_identity_deviation(),
        "labels": [list(label) for label in section.labels],
    }
    text = f"section size {section.size}; identity={obj['is_identity']}\n"
    return obj, None, text


def _run_replimit(args):
    sys_ = _system(args)
    m0 = canonical_lowpass(sys_)
    op = TransferOperator.from_filter(m0, sys_.scale)
    rows = []
    for m in range(-args.range, args.range + 1):
        value = representation_limit(sys_, m0, args.level, m)
        mom = measure_mod.moment(op, m)
        rows.append(
            {
                "m": m,
                "value": _scalar_json(value),
                "moment": _scalar_json(mom.value),
                "abs_diff": abs(value.to_complex() - mom.value.to_complex()),
            }
        )
    obj = {
        "scale": sys_.scale,
        "digits": list(sys_.digits),
        "level": args.level,
        "rows": rows,
    }
    text = "\n".join(
        f"m={r['m']} value={r['value']['exact']} moment={r['moment']['exact']}"
        for r in rows
    )
    return obj, None, text + "\n"


def _table_row_one(N, S, B):
    sys_ = DigitSystem(N, S)
    pair = dual_mod.dual_matrix(sys_, B)
    matrix = [
        [
            {
                "phase_turns": str(Fraction(a * b, N) % 1),
                "re": float(z.real),
                "im": float(z.imag),
            }
            for b, z in zip(B, row)
        ]
        for a, row in zip(sys_.digits, pair.matrix())
    ]
    return {
        "scale": N,
        "p": sys_.p,
        "digits": list(S),
        "dual": list(B),
        "matrix": matrix,
        "verdict": pair.verdict,
        "hausdorff_dimension": hausdorff_dimension(sys_),
    }


def _table_row_two(N, S, B):
    sys_ = DigitSystem(N, S)
    pair = dual_mod.dual_matrix(sys_, B)
    count = 12 if sys_.p == 3 else 8
    return {
        "scale": N,
        "p": sys_.p,
        "dual": list(B),
        "lambda_prefix": list(dual_mod.lambda_set(pair, count).prefix),
    }


def _table_row_three(N, S, B):
    sys_ = DigitSystem(N, S)
    m0 = canonical_lowpass(sys_)
    p = sys_.p
    grid = [Fraction(g, 16) for g in range(16)]
    branches = [
        {"digit": b, "weight": f"|m0((xi-{b})/{N})|^2/{p}"} for b in B
    ]
    partition_dev = 0.0
    samples = []
    for xi in grid:
        weights = [
            abs(m0.eval_turns(float((xi - b) / N))) ** 2 / p for b in B
        ]
        samples.append({"xi": str(xi), "weights": weights})
        partition_dev = max(partition_dev, abs(sum(weights) - 1.0))
    return {
        "scale": N,
        "p": p,
        "dual": list(B),
        "branches": branches,
        "weight_samples": samples,
        "partition_of_unity_max_dev": partition_dev,
    }


def _run_table(args):
    obj = {
        "dual_systems": [_table_row_one(*row) for row in TABLE_SYSTEMS],
        "spectra": [_table_row_two(*row) for row in TABLE_SYSTEMS],
        "dual_transfer": [_table_row_three(*row) for row in TABLE_SYSTEMS],
    }
    lines = ["N  p  S          B          dim"]
    for row in obj["dual_systems"]:
        lines.append(
            f"{row['scale']}  {row['p']}  {str(row['digits']):<10} "
            f"{str(row['dual']):<10} {row['hausdorff_dimension']!r}"
        )
    lines.append("")
    lines.append("N  p  Lambda prefix")
    for row in obj["spectra"]:
        lines.append(f"{row['scale']}  {row['p']}  {row['lambda_prefix']!r}")
    lines.append("")
    lines.append("N  p  dual transfer branches")
    for row in obj["dual_transfer"]:
        desc = " + ".join(
            f"{b['weight']} f((xi-{b['digit']})/{row['scale']})"
            for b in row["branches"]
        )
        lines.append(f"{row['scale']}  {row['p']}  {desc}")
    return obj, None, "\n".join(lines) + "\n"


_HANDLERS = {
    "dimension": _run_dimension,
    "filters": _run_filters,
    "spectrum": _run_spectrum,
    "moments": _run_moments,
    "cycles": _run_cycles,
    "classify": _run_classify,
    "duality": _run_duality,
    "onb-check": _run_onb_check,
    "cascade": _run_cascade,
    "riesz": _run_riesz,
    "gram": _run_gram,
    "table": _run_table,
    "replimit": _run_replimit,
}


def _add_system_args(p):
    p.add_argument("--scale", type=int, required=True, help="scale N >= 2")
    p.add_argument("--digits", required=True, help="comma-separated digits, e.g. 0,2")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fractalmra",
        description="Experiments with multiresolution wavelets on fractals",
    )
    sub = parser.add_subparsers(
        dest="command",
        parser_class=lambda **kw: argparse.ArgumentParser(
            formatter_class=argparse.ArgumentDefaultsHelpFormatter, **kw
        ),
    )

    def common(p):
        p.add_argument("--output", default=None, help="write to file instead of stdout")
        p.add_argument("--format", choices=("json", "csv", "text"), default="json", help="output format")

    p = sub.add_parser("dimension", help="Hausdorff dimension of the attractor")
    _add_system_args(p); common(p)

    p = sub.add_parser("filters", help="canonical filter bank and unitarity defect")
    _add_system_args(p)
    p.add_argument("--samples", type=int, default=64, help="torus sample count for the defect")
    common(p)

    p = sub.add_parser("spectrum", help="invariant spectral block of the transfer operator")
    _add_system_args(p); common(p)

    p = sub.add_parser("moments", help="invariant-measure moments and Wiener profile")
    _add_system_args(p)
    p.add_argument("--range", type=int, default=DEFAULT_MOMENT_RANGE, help="compute moments for |n| up to this")
    p.add_argument("--max-iter", type=int, default=measure_mod.DEFAULT_MAX_ITER, help="iteration cap per moment")
    p.add_argument("--tol", type=float, default=measure_mod.DEFAULT_TOL, help="convergence tolerance")
    p.add_argument("--emit", choices=("moments", "wiener"), default="moments",
                   help="which rows the csv format emits")
    common(p)

    p = sub.add_parser("cycles", help="cycles of theta -> N theta carrying peak weight")
    _add_system_args(p)
    p.add_argument("--length", type=int, default=measure_mod.DEFAULT_CYCLE_LENGTH, help="max cycle length (clamped to the point cap)")
    common(p)

    p = sub.add_parser("classify", help="support dichotomy of the invariant measure")
    _add_system_args(p)
    p.add_argument("--length", type=int, default=measure_mod.DEFAULT_CYCLE_LENGTH, help="max cycle length (clamped to the point cap)")
    common(p)

    p = sub.add_parser("duality", help="dual matrix, spectrum prefix, and dual-digit cycles")
    _add_system_args(p)
    p.add_argument("--dual", required=True, help="comma-separated dual digits")
    p.add_argument("--count", type=int, default=8, help="spectrum prefix length")
    p.add_argument("--cycle-length", type=int, default=6, help="max dual-digit word length")
    common(p)

    p = sub.add_parser("onb-check", help="exponential Gram and spectral partial sums")
    _add_system_args(p)
    p.add_argument("--dual", required=True, help="comma-separated dual digits")
    p.add_argument("--count", type=int, default=8, help="spectrum prefix length")
    p.add_argument("--depth", type=int, default=DEFAULT_PRODUCT_DEPTH, help="transform product depth")
    p.add_argument("--xi", type=float, default=0.0, help="frequency for the partial sums")
    common(p)

    p = sub.add_parser("cascade", help="cascade iteration distances and inner products")
    _add_system_args(p)
    p.add_argument("--modifier", default="none", help="none, neg, or z<int>")
    p.add_argument("--steps", type=int, default=DEFAULT_CASCADE_STEPS, help="cascade iterations")
    common(p)

    p = sub.add_parser("riesz", help="Riesz partial-product samples")
    p.add_argument("--depth", type=int, default=6, help="number of product factors")
    p.add_argument("--grid", type=int, default=3 ** 8, help="grid points on [0, 2 pi)")
    common(p)

    p = sub.add_parser("gram", help="Gram section of the wavelet family")
    _add_system_args(p)
    p.add_argument("--jrange", type=int, default=2, help="scales |j| <= jrange")
    p.add_argument("--krange", type=int, default=5, help="translates |k| <= krange")
    common(p)

    p = sub.add_parser("table", help="reference tables of dual systems")
    common(p)

    p = sub.add_parser("replimit", help="matrix coefficients of dilated translation averages")
    _add_system_args(p)
    p.add_argument("--level", type=int, default=8, help="dilation power n")
    p.add_argument("--range", type=int, default=10, help="exponents |m| up to this")
    common(p)

    return parser


def _emit(args, obj, csv_rows, text) -> None:
    if args.format == "json":
        payload = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    elif args.format == "csv":
        if csv_rows is None:
            raise PreconditionError(
                f"subcommand {args.command!r} has no csv form; use json or text"
            )
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerows(csv_rows)
        payload = buf.getvalue()
    else:
        payload = text
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and not argv[0].startswith("-") and argv[0] not in SUBCOMMANDS:
        sys.stderr.write(
            f"unknown subcommand {argv[0]!r}; expected one of {', '.join(SUBCOMMANDS)}\n"
        )
        return 64
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 64
    try:
        obj, csv_rows, text = _HANDLERS[args.command](args)
        _emit(args, obj, csv_rows, text)
    except CapExceededError as exc:
        sys.stderr.write(f"cap exceeded: {exc}\n")
        return 3
    except PreconditionError as exc:
        sys.stderr.write(f"precondition error: {exc}\n")
        return 2
    except FractalMRAError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
