"""Command-line front end: experiment subcommands with deterministic JSON,
CSV, or text output.

Each subcommand computes one JSON document; its text and csv forms are
renderings of that document, and csv columns are projections of its fields.
One table (`COMMANDS`) holds every subcommand's handler, arguments and
renderers, and drives both the parser and the dispatch.

Exit codes: 0 success, 2 precondition violation, 3 cap exceeded, 64 unknown
subcommand.  Output is byte-identical across runs for a fixed configuration
(collections are emitted in sorted key order).
"""

from __future__ import annotations

import argparse
import functools
import gc
import io
import json
import math
import sys
from fractions import Fraction
from itertools import chain, compress, count, islice, repeat
from json.encoder import encode_basestring_ascii
from operator import add, itemgetter, ne
from typing import Callable, NamedTuple

from . import duality as dual_mod
from . import measure as measure_mod
from .errors import CapExceededError, FractalMRAError, PreconditionError
from .filterbank import UNITARITY_SCALE_CAP, build_bank, canonical_lowpass, unitarity_defect
from .ifs import DEFAULT_TRANSFORM_DEPTH, DigitSystem, hausdorff_dimension
from .laurent import LaurentPolynomial, monomial
from .space import (
    cascade_experiment,
    gram_section,
    representation_limit,
    wavelet_generators,
)
from .transfer import TransferOperator, spectral_block

DEFAULT_MOMENT_RANGE = 256
DEFAULT_CASCADE_STEPS = 8

# the four reference dual systems tabulated by the `table` subcommand
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


def _scalar_columns(*columns) -> list[list]:
    """Each column of Scalars (or None) as their `_scalar_json` fields, built
    once per Scalar object: rows that hold one object share one dict."""
    objects = {}
    for col in columns:
        objects.update(zip(map(id, col), col))
    fields = {i: None if v is None else _scalar_json(v) for i, v in objects.items()}
    return [list(map(fields.__getitem__, map(id, col))) for col in columns]


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


def _system(args) -> tuple[DigitSystem, dict]:
    """The system of --scale/--digits and its JSON header."""
    sys_ = DigitSystem(args.scale, _parse_digits(args.digits))
    return sys_, {"scale": sys_.scale, "digits": list(sys_.digits)}


def _lines(lines) -> str:
    return "\n".join(lines) + "\n"


# -- subcommand handlers: each returns its JSON document ---------------------

def _run_dimension(args):
    sys_, _ = _system(args)
    return {"dimension": hausdorff_dimension(sys_)}


def _run_filters(args):
    sys_, head = _system(args)
    if sys_.scale > UNITARITY_SCALE_CAP:
        raise CapExceededError(f"scale {sys_.scale} exceeds cap {UNITARITY_SCALE_CAP}")
    bank = build_bank(sys_)
    return {
        **head,
        "unitarity_defect": unitarity_defect(bank),
        "filters": [_poly_json(f) for f in bank.filters],
        "exact": True,  # every bank is exact; the field keeps the schema
    }


def _run_spectrum(args):
    sys_, head = _system(args)
    op = TransferOperator.from_filter(canonical_lowpass(sys_), sys_.scale)
    block = spectral_block(op)
    return {
        **head,
        "halfwidth": block.halfwidth,
        "dimension": block.dimension,
        "eigenvalues": sorted([ev.real, ev.imag] for ev in block.eigenvalues),
        "eigenvalue_one_multiplicity": block.eigenvalue_one_multiplicity,
        "has_other_peripheral": block.has_other_peripheral,
        "fixes_constant": block.fixes_constant,
        "eigenvalue_one_simple_exact": block.eigenvalue_one_simple_exact,
    }


def _run_moments(args):
    sys_, head = _system(args)
    op = TransferOperator.from_filter(canonical_lowpass(sys_), sys_.scale)
    table = measure_mod.moment_table(op, args.range)
    rows, wiener = table.rows(), measure_mod.wiener_profile(table, args.range).rows
    values, sums, ratios = _scalar_columns(
        [e.value for e in rows], [r.partial_sum for r in wiener], [r.ratio for r in wiener]
    )
    return {
        **head,
        "range": args.range,
        "moments": [
            {"n": e.n, **v, "status": e.status, "iterations": e.iterations, "cesaro": False}
            for e, v in zip(rows, values)
        ],
        "wiener": {
            "rows": [
                {"k": r.k, "s": s, "ratio": ratio}
                for r, s, ratio in zip(wiener, sums, ratios)
            ],
            "unsettled": [],
        },
    }


def _moments_csv(obj, args):
    if args.emit == "wiener":
        return [["k", "s_k", "ratio"]] + [
            [r["k"], r["s"]["re"], r["ratio"] and r["ratio"]["re"]]
            for r in obj["wiener"]["rows"]
        ]
    return [["n", "re", "im", "status"]] + [
        [m["n"], m["re"], m["im"], m["status"]] for m in obj["moments"]
    ]


def _run_cycles(args):
    sys_, head = _system(args)
    length = measure_mod.feasible_cycle_length(sys_.scale, args.length)
    op = TransferOperator.from_filter(canonical_lowpass(sys_), sys_.scale)
    report = measure_mod.find_cycles(op, length)
    return {
        **head,
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


def _run_classify(args):
    sys_, head = _system(args)
    length = measure_mod.feasible_cycle_length(sys_.scale, args.length)
    op = TransferOperator.from_filter(canonical_lowpass(sys_), sys_.scale)
    cls = measure_mod.classify_support(op, length)
    obj = {
        **head,
        "searched_length": length,
        "kind": cls.kind,
        "diagnostics": dict(sorted(cls.diagnostics.items())),
        "atoms": [
            {
                "angles": [str(a) for a in atom.cycle.angles],
                "weights": [str(w) for w in atom.weights],
            }
            for atom in cls.atoms
        ],
    }
    if cls.moments is not None:
        rows = [e for e in cls.moments.rows() if e.n >= 0]
        (values,) = _scalar_columns([e.value for e in rows])
        obj["moments"] = [
            {"n": e.n, **v, "status": e.status} for e, v in zip(rows, values)
        ]
    return obj


def _run_duality(args):
    sys_, head = _system(args)
    pair = dual_mod.dual_matrix(sys_, _parse_digits(args.dual))
    obj = {
        **head,
        "dual": list(pair.dual),
        "verdict": pair.verdict,
        "defect": pair.defect,
        "exact_unitary": pair.exact_unitary,
        "matrix": [[[z.real, z.imag] for z in row] for row in pair.matrix()],
    }
    if pair.is_dual:
        obj["lambda_prefix"] = list(dual_mod.lambda_set(pair, args.count).prefix)
        cycles = dual_mod.b_cycles(pair, args.cycle_length)
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
    return obj


def _run_onb_check(args):
    if not math.isfinite(args.xi):
        raise PreconditionError(f"xi must be finite, got {args.xi!r}")
    sys_, head = _system(args)
    pair = dual_mod.dual_matrix(sys_, _parse_digits(args.dual))
    if not pair.is_dual:
        raise PreconditionError("onb-check requires a Dual pair")
    prefix = dual_mod.lambda_set(pair, args.count).prefix
    off, sums = dual_mod.onb_check(pair, args.xi, prefix, args.depth)
    return {
        **head,
        "dual": list(pair.dual),
        "exponents": list(prefix),
        "gram_max_deviation": off,
        "xi": args.xi,
        "partial_sums": sums,
        "monotone": all(b >= a - 1e-15 for a, b in zip(sums, sums[1:])),
        "bessel_bound_ok": bool(max(sums) <= 1 + 1e-9),
    }


def _run_cascade(args):
    sys_, head = _system(args)
    m = _modifier_polynomial(args.modifier, canonical_lowpass(sys_))
    rows = cascade_experiment(sys_, m, args.steps)
    columns = _scalar_columns(
        [r.diff_norm_sq for r in rows], [r.inner for r in rows], [r.transfer_inner for r in rows]
    )
    return {
        **head,
        "modifier": args.modifier,
        "rows": [
            {"n": r.n, "norm_sq": norm_sq, "inner": inner, "transfer_inner": transfer_inner}
            for r, norm_sq, inner, transfer_inner in zip(rows, *columns)
        ],
    }


def _run_riesz(args):
    samples = measure_mod.riesz_samples(args.depth, args.grid)
    return {
        "depth": args.depth,
        "grid": args.grid,
        "rows": [[t, v] for t, v in samples],
    }


def _run_gram(args):
    if min(args.jrange, args.krange) < 0:
        raise PreconditionError("jrange and krange must be >= 0")
    sys_, head = _system(args)
    section = gram_section(
        sys_,
        wavelet_generators(sys_),
        range(-args.jrange, args.jrange + 1),
        range(-args.krange, args.krange + 1),
    )
    return {
        **head,
        "size": section.size,
        "is_identity": section.is_identity(),
        "max_deviation": section.max_identity_deviation(),
        "labels": [list(label) for label in section.labels],
    }


def _run_replimit(args):
    sys_, head = _system(args)
    op = TransferOperator.from_filter(canonical_lowpass(sys_), sys_.scale)
    table = measure_mod.moment_table(op, args.range)
    ms = range(-args.range, args.range + 1)
    values = [representation_limit(op, args.level, m) for m in ms]
    moments = [table.value(m) for m in ms]
    columns = _scalar_columns(values, moments)
    return {
        **head,
        "level": args.level,
        "rows": [
            {
                "m": m,
                "value": value_json,
                "moment": moment_json,
                "abs_diff": abs(value.to_complex() - mom.to_complex()),
            }
            for m, value, mom, value_json, moment_json in zip(ms, values, moments, *columns)
        ],
    }


def _run_table(args):
    obj = {"dual_systems": [], "spectra": [], "dual_transfer": []}
    grid = [Fraction(g, 16) for g in range(16)]
    for N, S, B in TABLE_SYSTEMS:
        sys_ = DigitSystem(N, S)
        p = sys_.p
        pair = dual_mod.dual_matrix(sys_, B)
        obj["dual_systems"].append({
            "scale": N,
            "p": p,
            "digits": list(S),
            "dual": list(B),
            "matrix": [
                [
                    {"phase_turns": str(Fraction(a * b, N) % 1),
                     "re": float(z.real), "im": float(z.imag)}
                    for b, z in zip(B, row)
                ]
                for a, row in zip(sys_.digits, pair.matrix())
            ],
            "verdict": pair.verdict,
            "hausdorff_dimension": hausdorff_dimension(sys_),
        })
        obj["spectra"].append({
            "scale": N,
            "p": p,
            "dual": list(B),
            "lambda_prefix": list(dual_mod.lambda_set(pair, 12 if p == 3 else 8).prefix),
        })
        m0 = canonical_lowpass(sys_)
        samples = [
            {
                "xi": str(xi),
                "weights": [
                    abs(m0.eval_turns(float((xi - b) / N))) ** 2 / p for b in B
                ],
            }
            for xi in grid
        ]
        obj["dual_transfer"].append({
            "scale": N,
            "p": p,
            "dual": list(B),
            "branches": [
                {"digit": b, "weight": f"|m0((xi-{b})/{N})|^2/{p}"} for b in B
            ],
            "weight_samples": samples,
            "partition_of_unity_max_dev": max(
                abs(sum(s["weights"]) - 1.0) for s in samples
            ),
        })
    return obj


def _table_text(obj) -> str:
    lines = ["N  p  S          B          dim"]
    for row in obj["dual_systems"]:
        lines.append(
            f"{row['scale']}  {row['p']}  {str(row['digits']):<10} "
            f"{str(row['dual']):<10} {row['hausdorff_dimension']!r}"
        )
    lines += ["", "N  p  Lambda prefix"]
    for row in obj["spectra"]:
        lines.append(f"{row['scale']}  {row['p']}  {row['lambda_prefix']!r}")
    lines += ["", "N  p  dual transfer branches"]
    for row in obj["dual_transfer"]:
        desc = " + ".join(
            f"{b['weight']} f((xi-{b['digit']})/{row['scale']})"
            for b in row["branches"]
        )
        lines.append(f"{row['scale']}  {row['p']}  {desc}")
    return _lines(lines)


class Subcommand(NamedTuple):
    """One row of the command table: the handler (args -> JSON document), its
    help, whether it reads --scale/--digits, its own (flag, options) arguments,
    and the renderers text(doc) and csv(doc, args) (None: no csv form)."""

    run: Callable
    help: str
    system: bool
    args: tuple
    text: Callable
    csv: Callable | None = None


def _arg(flag: str, help: str, **options) -> tuple[str, dict]:
    return flag, {"help": help, **options}


COMMANDS = {
    "dimension": Subcommand(
        _run_dimension, "Hausdorff dimension of the attractor", True, (),
        lambda o: f"dimension {o['dimension']!r}\n",
    ),
    "filters": Subcommand(
        _run_filters, "canonical filter bank and unitarity defect", True, (),
        lambda o: _lines(
            [f"m_{i} = {f['display']}" for i, f in enumerate(o["filters"])]
            + [f"unitarity defect: {o['unitarity_defect']!r}"]
        ),
    ),
    "spectrum": Subcommand(
        _run_spectrum, "invariant spectral block of the transfer operator", True, (),
        lambda o: (
            f"block dimension {o['dimension']} (halfwidth {o['halfwidth']})\n"
            f"eigenvalues: {o['eigenvalues']!r}\n"
        ),
    ),
    "moments": Subcommand(
        _run_moments, "invariant-measure moments and Wiener profile", True,
        (
            _arg("--range", "compute moments for |n| up to this",
                 type=int, default=DEFAULT_MOMENT_RANGE),
            _arg("--emit", "which rows the csv format emits",
                 choices=("moments", "wiener"), default="moments"),
        ),
        lambda o: _lines(
            f"nu^({m['n']}) = {m['exact'] or complex(m['re'], m['im'])} [{m['status']}]"
            for m in o["moments"]
            if m["n"] >= 0
        ),
        _moments_csv,
    ),
    "cycles": Subcommand(
        _run_cycles, "cycles of theta -> N theta carrying peak weight", True,
        (_arg("--length", "max cycle length (clamped to keep N^L - 1 within the cycle cap)",
              type=int, default=measure_mod.DEFAULT_CYCLE_LENGTH),),
        lambda o: f"{o['verdict']}: {[c['angles'] for c in o['cycles']]!r}\n",
    ),
    "classify": Subcommand(
        _run_classify, "support dichotomy of the invariant measure", True,
        (_arg("--length", "max cycle length (clamped to keep N^L - 1 within the cycle cap)",
              type=int, default=measure_mod.DEFAULT_CYCLE_LENGTH),),
        lambda o: f"{o['kind']}\n",
    ),
    "duality": Subcommand(
        _run_duality, "dual matrix, spectrum prefix, and dual-digit cycles", True,
        (_arg("--dual", "comma-separated dual digits", required=True),
         _arg("--count", "spectrum prefix length", type=int, default=8),
         _arg("--cycle-length", "max dual-digit word length", type=int, default=6)),
        lambda o: f"{o['verdict']}; lambda prefix {o.get('lambda_prefix')!r}\n",
    ),
    "onb-check": Subcommand(
        _run_onb_check, "exponential Gram and spectral partial sums", True,
        (_arg("--dual", "comma-separated dual digits", required=True),
         _arg("--count", "spectrum prefix length", type=int, default=8),
         _arg("--depth", "transform product depth", type=int, default=DEFAULT_TRANSFORM_DEPTH),
         _arg("--xi", "frequency for the partial sums", type=float, default=0.0)),
        lambda o: (
            f"gram deviation {o['gram_max_deviation']!r}; partial sums "
            f"monotone={o['monotone']} max={max(o['partial_sums'])!r}\n"
        ),
    ),
    "cascade": Subcommand(
        _run_cascade, "cascade iteration distances and inner products", True,
        (_arg("--modifier", "none, neg, or z<int>", default="none"),
         _arg("--steps", "cascade iterations", type=int, default=DEFAULT_CASCADE_STEPS)),
        lambda o: _lines(
            f"n={r['n']} |diff|^2={r['norm_sq']['exact']} inner={r['inner']['exact']}"
            for r in o["rows"]
        ),
        lambda o, args: [["n", "norm_sq", "inner_re", "inner_im"]] + [
            [r["n"], r["norm_sq"]["re"], r["inner"]["re"], r["inner"]["im"]]
            for r in o["rows"]
        ],
    ),
    "riesz": Subcommand(
        _run_riesz, "Riesz partial-product samples", False,
        (_arg("--depth", "number of product factors", type=int, default=6),
         _arg("--grid", "grid points on [0, 2 pi)", type=int, default=3 ** 8)),
        lambda o: f"{len(o['rows'])} samples; first {tuple(o['rows'][0])!r}\n",
        lambda o, args: [["t", "value"]] + o["rows"],
    ),
    "gram": Subcommand(
        _run_gram, "Gram section of the wavelet family", True,
        (_arg("--jrange", "scales |j| <= jrange", type=int, default=2),
         _arg("--krange", "translates |k| <= krange", type=int, default=5)),
        lambda o: f"section size {o['size']}; identity={o['is_identity']}\n",
    ),
    "table": Subcommand(
        _run_table, "reference tables of dual systems", False, (), _table_text,
    ),
    "replimit": Subcommand(
        _run_replimit, "matrix coefficients of dilated translation averages", True,
        (_arg("--level", "dilation power n", type=int, default=8),
         _arg("--range", "exponents |m| up to this", type=int, default=10)),
        lambda o: _lines(
            f"m={r['m']} value={r['value']['exact']} moment={r['moment']['exact']}"
            for r in o["rows"]
        ),
    ),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves it unchanged."""
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
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        if command.system:
            p.add_argument("--scale", type=int, required=True, help="scale N >= 2")
            p.add_argument("--digits", required=True, help="comma-separated digits, e.g. 0,2")
        for flag, options in command.args:
            p.add_argument(flag, **options)
        p.add_argument("--output", default=None, help="write to file instead of stdout")
        p.add_argument("--format", choices=("json", "csv", "text"), default="json", help="output format")
    return parser


_LEAF, _DICT, _LIST = 0, 1, 2


class _Kinds(dict):
    """type -> _LEAF, _DICT or _LIST, as `json` tells containers apart."""

    def __missing__(self, cls):
        if issubclass(cls, dict):
            return _DICT
        return _LIST if issubclass(cls, (list, tuple)) else _LEAF


_KIND = _Kinds({
    dict: _DICT, list: _LIST, tuple: _LIST,
    str: _LEAF, int: _LEAF, float: _LEAF, bool: _LEAF, type(None): _LEAF,
}).__getitem__


def _changes(seq) -> set[int]:
    """The indices i >= 1 with seq[i] != seq[i - 1]."""
    if seq.count(seq[0]) == len(seq):
        return set()
    return set(compress(count(1), map(ne, islice(seq, 1, None), seq)))


def _shape_cuts(col, first, kind: int) -> set[int]:
    """Where the values of `col` stop sharing the kind and size of `first`:
    the indices i >= 1 at which col[i] differs in that from col[i - 1]."""
    types = set(map(type, col))
    if len(types) > 1 and len(set(map(_KIND, types))) > 1:
        return _changes(list(map(_KIND, map(type, col))))
    if kind == _LEAF:
        return set()
    if kind == _DICT and types != {dict}:  # a subclass may answer for a missing key
        return _changes(list(map(tuple, col)))
    return _changes(list(map(len, col)))


def _emit(col, nl: str, parts: list, columns: list) -> set[int]:
    """Append to `parts` the %-template of one value of `col`, and to
    `columns` its leaf columns in the order of the template's `%s`s, when
    the values of `col` share one shape; else return the indices i at which
    col[i] differs in shape from col[i - 1], as far as one column shows.

    Two values share a shape when both are leaves, or both dicts with the
    same keys, or both lists or tuples of one length, and their values at
    each key or position share a shape.  A column of several dicts or lists
    is written key by key or position by position, each key's values taken
    at once by `map` and `itemgetter`.  One list is written run by run: the
    items of a run share one shape, so one item template, repeated, writes
    them all, and `zip` interleaves their leaf columns.  Keys are escaped
    with `%` doubled."""
    first = col[0]
    kind = _KIND(type(first))
    if len(col) > 1:
        cuts = _shape_cuts(col, first, kind)
        if cuts:
            return cuts
    if kind == _LEAF:
        parts.append("%s")
        columns.append(col)
        return set()
    if not first:
        parts.append("{}" if kind == _DICT else "[]")
        return set()
    inner = nl + "  "
    comma = "," + inner
    if kind == _DICT:
        for k in first:
            if not isinstance(k, str):  # no document has other keys
                raise TypeError(f"JSON keys must be str, not {k.__class__.__name__}")
        sep = "{" + inner
        for k in sorted(first):
            parts.append(sep + encode_basestring_ascii(k).replace("%", "%%") + ": ")
            try:
                values = list(map(itemgetter(k), col))
            except KeyError:  # as many keys as `first`, but other ones
                return _changes(list(map(tuple, col)))
            cuts = _emit(values, inner, parts, columns)
            if cuts:
                return cuts
            sep = comma
        parts.append(nl + "}")
        return set()
    sep = "[" + inner
    if len(col) > 1:
        for i in range(len(first)):
            parts.append(sep)
            cuts = _emit(list(map(itemgetter(i), col)), inner, parts, columns)
            if cuts:
                return cuts
            sep = comma
    else:
        runs = [(0, len(first))]  # a stack, next run last
        while runs:
            start, end = runs.pop()
            mark, run_columns = len(parts), []
            parts.append(sep)
            cuts = _emit(first[start:end], inner, parts, run_columns)
            if cuts:  # write the runs between the cuts instead
                del parts[mark:]
                bounds = sorted(start + i for i in cuts)
                runs += reversed(list(zip([start, *bounds], [*bounds, end])))
                continue
            if end - start > 1:
                item = "".join(parts[mark + 1:])
                parts[mark + 1:] = [item + (comma + item) * (end - start - 1)]
                columns.append(chain.from_iterable(zip(*run_columns)))
            else:
                columns += run_columns
            sep = comma
    parts.append(nl + "]")
    return set()


def _dumps(obj) -> str:
    """The bytes of json.dumps(obj, sort_keys=True, indent=2).

    Any `indent` sends `json` to its pure-Python encoder, which encodes each
    leaf with a Python call.  Here the containers are written once into a
    %-template with a `%s` per leaf (`_emit`), one template per run of list
    items of one shape, and all leaves are encoded by one call of the C
    encoder with "\\x00" between them; ensure_ascii output cannot hold a raw
    "\\x00", so the split is exact."""
    parts: list[str] = []
    columns: list = []
    _emit([obj], "\n", parts, columns)  # one value always shares its shape
    template = "".join(parts)
    del parts  # freed before the leaf text and the filled copy exist
    leaves = list(chain.from_iterable(columns))
    del columns
    encoded = tuple(
        json.dumps(leaves, separators=("\x00", ":"))[1:-1].split("\x00") if leaves else ()
    )
    del leaves
    return template % encoded


def _render(command: Subcommand, args, obj) -> str:
    if args.format == "json":
        return _dumps(obj) + "\n"
    if args.format == "text":
        return command.text(obj)
    import csv  # only --format csv needs it
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(command.csv(obj, args))
    return buf.getvalue()


def main(argv=None) -> int:
    """Run one request and return its exit code.

    The cyclic garbage collector is paused for the request, since a request
    makes no reference cycles, and its state is put back on every exit."""
    if not gc.isenabled():
        return _request(argv)
    gc.disable()
    try:
        return _request(argv)
    finally:
        gc.enable()


def _request(argv) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and not argv[0].startswith("-") and argv[0] not in COMMANDS:
        sys.stderr.write(
            f"unknown subcommand {argv[0]!r}; expected one of {', '.join(COMMANDS)}\n"
        )
        return 64
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 64
    command = COMMANDS[args.command]
    try:
        if args.format == "csv" and command.csv is None:
            raise PreconditionError(
                f"subcommand {args.command!r} has no csv form; use json or text"
            )
        payload = _render(command, args, command.run(args))
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(payload)
        else:
            sys.stdout.write(payload)
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
