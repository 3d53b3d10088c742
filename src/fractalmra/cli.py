"""Command-line front end: experiment subcommands with deterministic JSON,
CSV, or text output.

Each subcommand computes one JSON document; its text and csv forms are
renderings of that document, and csv columns are projections of its fields.
Long lists of rows are held as columns (`RowTable`), and the output is
written in pieces.
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
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from typing import Callable, NamedTuple

from . import duality as dual_mod
from . import measure as measure_mod
from .errors import CapExceededError, FractalMRAError, PreconditionError
from .filterbank import UNITARITY_SCALE_CAP, build_bank, canonical_lowpass, unitarity_defect
from .ifs import DEFAULT_TRANSFORM_DEPTH, DigitSystem, hausdorff_dimension
from .laurent import LaurentPolynomial, monomial
from .space import (
    cascade_experiment,
    check_section_size,
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


class RowTable(NamedTuple):
    """Rows of JSON objects that share their keys, or of JSON arrays of one
    length, held as columns.

    `columns` maps each key to a list with one leaf per row, to a nested
    `RowTable` of one value per row, or to any other value: a leaf that
    every row holds.  A tuple of such columns instead makes each row the
    array of their entries.  The rows in `nulls` are null; the column
    entries at those rows are not read."""

    rows: int
    columns: dict | tuple
    nulls: frozenset = frozenset()


def _scalars(values) -> RowTable:
    """The objects {"exact", "im", "re"} of a list of Scalars as a row table,
    in which a None is a null row."""
    return RowTable(
        len(values),
        {
            "exact": [None if v is None else v.exact_str() for v in values],
            "im": 0.0,
            "re": [None if v is None else float(v) for v in values],
        },
        frozenset(i for i, v in enumerate(values) if v is None),
    )


def _mirror(column):
    """A list or `RowTable` (without null rows) column of rows n = 0..R
    extended to n = -R..R by row(-n) = row(n), as the moments of an even
    weight are."""
    if type(column) is RowTable:
        return RowTable(2 * column.rows - 1, {k: _mirror(c) for k, c in column.columns.items()})
    return column[:0:-1] + column if type(column) is list else column


def _poly_json(poly: LaurentPolynomial) -> dict:
    """The terms [k, c_k] of a polynomial, as a table of array rows."""
    items = poly.items()
    terms = ([k for k, _ in items], _scalars([c for _, c in items]))
    return {"terms": RowTable(len(items), terms), "display": str(poly)}


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
    multiplicity, other = op.peripheral
    return {
        **head,
        "halfwidth": block.halfwidth,
        "dimension": block.dimension,
        "eigenvalues": sorted([ev.real, ev.imag] for ev in block.eigenvalues),
        "eigenvalue_one_multiplicity": multiplicity,
        "has_other_peripheral": other,
        "fixes_constant": block.fixes_constant,
        "eigenvalue_one_simple_exact": multiplicity == 1,
    }


def _run_moments(args):
    sys_, head = _system(args)
    op = TransferOperator.from_filter(canonical_lowpass(sys_), sys_.scale)
    table = measure_mod.moment_table(op, args.range)
    wiener = measure_mod.wiener_profile(table, args.range).rows
    R = args.range
    return {
        **head,
        "range": R,
        "moments": RowTable(2 * R + 1, {
            **_mirror(_scalars(table.values)).columns,  # the table holds n >= 0
            "n": list(range(-R, R + 1)),
            "status": measure_mod.STABILIZED,
            "iterations": _mirror(table.iterations),
            "cesaro": False,
        }),
        "wiener": {
            "rows": RowTable(len(wiener), {
                "k": [r.k for r in wiener],
                "s": _scalars([r.partial_sum for r in wiener]),
                "ratio": _scalars([r.ratio for r in wiener]),
            }),
            "unsettled": [],
        },
    }


def _moments_text(obj) -> str:
    m = obj["moments"].columns
    return _lines(
        f"nu^({n}) = {exact} [{m['status']}]" for n, exact in zip(m["n"], m["exact"]) if n >= 0
    )


def _moments_csv(obj, args):
    if args.emit == "wiener":
        w = obj["wiener"]["rows"].columns
        return chain(
            [["k", "s_k", "ratio"]],
            zip(w["k"], w["s"].columns["re"], w["ratio"].columns["re"]),  # null ratio: None
        )
    m = obj["moments"].columns
    return chain(
        [["n", "re", "im", "status"]],
        zip(m["n"], m["re"], repeat(m["im"]), repeat(m["status"])),
    )


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
        values = _scalars(cls.moments.values)
        obj["moments"] = RowTable(values.rows, {
            **values.columns, "n": list(range(values.rows)), "status": measure_mod.STABILIZED,
        })
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
    return {
        **head,
        "modifier": args.modifier,
        "rows": RowTable(len(rows), {
            "n": [r.n for r in rows],
            "norm_sq": _scalars([r.diff_norm_sq for r in rows]),
            "inner": _scalars([r.inner for r in rows]),
            "transfer_inner": _scalars([r.transfer_inner for r in rows]),
        }),
    }


def _cascade_text(obj) -> str:
    r = obj["rows"].columns
    norm_sq, inner = r["norm_sq"].columns["exact"], r["inner"].columns["exact"]
    return _lines(f"n={n} |diff|^2={a} inner={b}" for n, a, b in zip(r["n"], norm_sq, inner))


def _cascade_csv(obj, args):
    r = obj["rows"].columns
    inner = r["inner"].columns
    return chain(
        [["n", "norm_sq", "inner_re", "inner_im"]],
        zip(r["n"], r["norm_sq"].columns["re"], inner["re"], repeat(inner["im"])),
    )


def _run_riesz(args):
    samples = measure_mod.riesz_samples(args.depth, args.grid)
    return {
        "depth": args.depth,
        "grid": args.grid,
        "rows": RowTable(len(samples), tuple(map(list, zip(*samples)))),  # rows [t, value]
    }


def _run_gram(args):
    if min(args.jrange, args.krange) < 0:
        raise PreconditionError("jrange and krange must be >= 0")
    sys_, head = _system(args)
    j_range, k_range = range(-args.jrange, args.jrange + 1), range(-args.krange, args.krange + 1)
    # the bank's N - 1 generators are counted before they are built
    check_section_size((sys_.scale - 1) * len(j_range) * len(k_range))
    section = gram_section(sys_, wavelet_generators(sys_), j_range, k_range)
    return {
        **head,
        "size": section.size,
        "is_identity": section.is_identity(),
        "max_deviation": section.max_identity_deviation(),
        # the (i, j, k) of each psi_{i,j,k}
        "labels": RowTable(section.size, tuple(map(list, zip(*section.labels)))),
    }


def _run_replimit(args):
    sys_, head = _system(args)
    op = TransferOperator.from_filter(canonical_lowpass(sys_), sys_.scale)
    table = measure_mod.moment_table(op, args.range)
    ms = list(range(-args.range, args.range + 1))
    value = _scalars([representation_limit(op, args.level, m) for m in ms])
    moment = _mirror(_scalars(table.values))
    return {
        **head,
        "level": args.level,
        "rows": RowTable(len(ms), {
            "m": ms,
            "value": value,
            "moment": moment,
            "abs_diff": [abs(a - b) for a, b in zip(value.columns["re"], moment.columns["re"])],
        }),
    }


def _replimit_text(obj) -> str:
    r = obj["rows"].columns
    value, moment = r["value"].columns["exact"], r["moment"].columns["exact"]
    return _lines(f"m={m} value={a} moment={b}" for m, a, b in zip(r["m"], value, moment))


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
        _moments_text,
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
        _cascade_text,
        _cascade_csv,
    ),
    "riesz": Subcommand(
        _run_riesz, "Riesz partial-product samples", False,
        (_arg("--depth", "number of product factors", type=int, default=6),
         _arg("--grid", "grid points on [0, 2 pi)", type=int, default=3 ** 8)),
        lambda o: f"{o['rows'].rows} samples; first {tuple(c[0] for c in o['rows'].columns)!r}\n",
        lambda o, args: chain([["t", "value"]], zip(*o["rows"].columns)),
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
        _replimit_text,
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


_ROWS_PER_PIECE = 512
_CONTAINERS = (dict, list, tuple)  # a RowTable is a tuple too


def _keys(obj) -> list[tuple[str, str]]:
    """The keys of a dict in sorted order, each with its text in a
    %-template: the JSON string with `%` doubled, and ": "."""
    for k in obj:
        if not isinstance(k, str):  # no document has other keys
            raise TypeError(f"JSON keys must be str, not {k.__class__.__name__}")
    return [(k, encode_basestring_ascii(k).replace("%", "%%") + ": ") for k in sorted(obj)]


def _emit(obj, nl: str, parts: list, columns: list):
    """Append to `parts` the %-template of `obj` written at indent `nl`,
    and to `columns` its leaf columns in the order of the template's `%s`s.

    A dict is written key by key (`_keys`), a list or tuple of leaves as
    one column under a repeated `%s`, and any other list item by item.  At a
    `RowTable` the template so far is filled and yielded (`_fill`), both
    lists are cleared, and the table's pieces follow (`_table_pieces`)."""
    if type(obj) is RowTable:
        yield _fill("".join(parts), columns)
        del parts[:], columns[:]
        yield from _table_pieces(obj, nl)
        return
    if not isinstance(obj, _CONTAINERS):
        parts.append("%s")
        columns.append((obj,))
        return
    if not obj:
        parts.append("{}" if isinstance(obj, dict) else "[]")
        return
    inner = nl + "  "
    if isinstance(obj, dict):
        brackets, heads = "{}", [(inner + key, obj[k]) for k, key in _keys(obj)]
    elif any(map(isinstance, obj, repeat(_CONTAINERS))):
        brackets, heads = "[]", [(inner, item) for item in obj]
    else:
        parts.append("[" + inner + "%s" + ("," + inner + "%s") * (len(obj) - 1) + nl + "]")
        columns.append(obj)
        return
    sep = brackets[0]
    for head, value in heads:
        parts.append(sep + head)
        yield from _emit(value, inner, parts, columns)
        sep = ","
    parts.append(nl + brackets[1])


def _fill(template: str, columns) -> str:
    """`template` with its `%s`s filled by the JSON text of the leaves of
    `columns`, in order.  One call of the C encoder writes all the leaves,
    with "\x00" between them; ensure_ascii output cannot hold a raw
    "\x00", so the split is exact."""
    leaves = list(chain.from_iterable(columns))
    if not leaves:
        return template % ()
    return template % tuple(json.dumps(leaves, separators=("\x00", ":"))[1:-1].split("\x00"))


def _row_template(table: RowTable, nl: str, null: set, parts: list, columns: list) -> None:
    """Append to `parts` the %-template of one row of `table`, written at
    indent `nl`, and to `columns` its list columns in the order of the
    template's `%s`s.  Constants are written into the template, nested
    tables inline, and the tables whose id is in `null` as null."""
    if id(table) in null:
        parts.append("null")
        return
    inner = nl + "  "
    if type(table.columns) is tuple:
        brackets, heads = "[]", [(inner, col) for col in table.columns]
    else:
        brackets, heads = "{}", [(inner + key, table.columns[k]) for k, key in _keys(table.columns)]
    if not heads:
        parts.append(brackets)
        return
    sep = brackets[0]
    for head, col in heads:
        parts.append(sep + head)
        if type(col) is RowTable:
            _row_template(col, inner, null, parts, columns)
        elif type(col) is list:
            parts.append("%s")
            columns.append(col)
        else:
            parts.append(json.dumps(col).replace("%", "%%"))
        sep = ","
    parts.append(nl + brackets[1])


def _table_pieces(table: RowTable, nl: str):
    """The JSON text of the rows of `table` at indent `nl`, in pieces of at
    most _ROWS_PER_PIECE rows.  The rows between two changes in which
    tables, nested or not, are null share one row template (`_row_template`),
    and each piece repeats it once per row and fills it (`_fill`)."""
    if not table.rows:
        yield "[]"
        return
    tables = [table]
    for t in tables:  # every nested table, at any depth
        cols = t.columns if type(t.columns) is tuple else t.columns.values()
        tables += [c for c in cols if type(c) is RowTable]
    bounds = sorted(
        {0, table.rows}
        | {i for t in tables for n in t.nulls for i in (n, n + 1) if i < table.rows}
    )
    inner = nl + "  "
    comma = "," + inner
    sep = "[" + inner
    for start, end in zip(bounds, bounds[1:]):
        parts, columns = [], []
        _row_template(table, inner, {id(t) for t in tables if start in t.nulls}, parts, columns)
        template = "".join(parts)
        for lo in range(start, end, _ROWS_PER_PIECE):
            hi = min(lo + _ROWS_PER_PIECE, end)
            yield _fill(
                sep + template + (comma + template) * (hi - lo - 1),
                zip(*[col[lo:hi] for col in columns]),
            )
            sep = comma
    yield nl + "]"


def _json_pieces(obj):
    """The bytes of json.dumps(obj, sort_keys=True, indent=2), in pieces.

    Any `indent` sends `json` to its pure-Python encoder, which encodes each
    leaf with a Python call.  Here the containers are written once into a
    %-template with a `%s` per leaf (`_emit`), and the leaves are encoded
    at once (`_fill`).  A `RowTable` is written from its row template
    (`_table_pieces`), as pieces of its own between those of the template
    around it."""
    parts: list = []
    columns: list = []
    yield from _emit(obj, "\n", parts, columns)
    yield _fill("".join(parts), columns)


def _dumps(obj) -> str:
    """The bytes of json.dumps(obj, sort_keys=True, indent=2) (`_json_pieces`)."""
    return "".join(_json_pieces(obj))


def _render(command: Subcommand, args, obj):
    """The output of one request, in pieces."""
    if args.format == "json":
        yield from _json_pieces(obj)
        yield "\n"
    elif args.format == "text":
        yield command.text(obj)
    else:
        import csv  # only --format csv needs it
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(command.csv(obj, args))
        yield buf.getvalue()


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
        pieces = _render(command, args, command.run(args))
        if args.output:
            with open(args.output, "w") as fh:
                fh.writelines(pieces)
        else:
            sys.stdout.writelines(pieces)
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
