"""Output checks whose references the benchmark computes itself.

Every check takes a `Request` and the parsed JSON the CLI printed for it, and
returns a list of problems (empty when the output is right).  No reference
comes from `fractalmra`: each one is rebuilt here from the digit system with
plain integers and `Fraction`s.

`CORRUPTIONS` holds, per request type, edits that make a correct output
wrong; `self_test` applies them and expects every check to object.
"""

from __future__ import annotations

import copy
from fractions import Fraction

ONB_GRAM_TOL = 1e-8
BESSEL_TOL = 1e-9
INVARIANCE_TOL = 1e-9


def weight_coefficients(N: int, S) -> dict[int, Fraction]:
    """W = |m0|^2 for m0 = p^(-1/2) sum z^a: W^(k) = #{a in S: a + k in S}/p."""
    p = len(S)
    out: dict[int, Fraction] = {}
    for a in S:
        for b in S:
            out[b - a] = out.get(b - a, Fraction(0)) + Fraction(1, p)
    return out


def digit_sums(N: int, S, L: int) -> set[int]:
    """D_L = {sum_{k<L} a_k N^k : a_k in S}."""
    sums = {0}
    for k in range(L):
        sums = {x + a * N ** k for x in sums for a in S}
    return sums


def lambda_prefix(N: int, B, count: int) -> list[int]:
    """First `count` elements of {sum b_i N^i : b_i in B}, B within [0, N).

    With all digits below N, the strings of D digits are exactly the
    elements below N^D, so D only has to give at least `count` of them."""
    D = 1
    while len(B) ** D < count:
        D += 1
    return sorted(digit_sums(N, B, D))[:count]


def _exact(value) -> Fraction | None:
    if not isinstance(value, str) or "√" in value:
        return None
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError):
        return None


def check_moments(req, out) -> list[str]:
    N, S, R = req.scale, req.digits, req.params["range"]
    problems = []
    rows = {row["n"]: row for row in out.get("moments", [])}
    if sorted(rows) != list(range(-R, R + 1)):
        return [f"moment rows are not n = -{R}..{R}"]
    mu, status = {}, {}
    for n, row in rows.items():
        value = _exact(row.get("exact"))
        if value is None:
            return [f"moment {n} has no exact rational value"]
        if row.get("status") not in ("stabilized", "converged"):
            return [f"moment {n} has status {row.get('status')!r}"]
        mu[n], status[n] = value, row["status"]
    if mu[0] != 1:
        problems.append(f"mu_0 = {mu[0]}, not 1")
    W = weight_coefficients(N, S)
    for n in range(-R, R + 1):
        rhs = Fraction(0)
        exact = status[n] == "stabilized"
        for k, w in W.items():
            if (n - k) % N == 0:
                m = (n - k) // N
                rhs += w * mu[m]
                exact = exact and status[m] == "stabilized"
        if exact and rhs != mu[n]:
            problems.append(f"invariance fails exactly at n={n}")
        elif not exact and abs(float(rhs - mu[n])) > INVARIANCE_TOL:
            problems.append(f"invariance off by {float(rhs - mu[n]):.3e} at n={n}")
        if len(problems) > 3:
            break
    return problems


def check_replimit(req, out) -> list[str]:
    N, S = req.scale, req.digits
    L, lag = req.params["level"], req.params["range"]
    rows = out.get("rows", [])
    if [row["m"] for row in rows] != list(range(-lag, lag + 1)):
        return [f"replimit rows are not m = -{lag}..{lag}"]
    D = digit_sums(N, S, L)
    total = len(S) ** L
    problems = []
    for row in rows:
        m = row["m"]
        expected = Fraction(sum(1 for x in D if x + m in D), total)
        if _exact(row["value"].get("exact")) != expected:
            problems.append(f"replimit value at m={m} is not {expected}")
    return problems


def check_gram(req, out) -> list[str]:
    N, J, K = req.scale, req.params["jrange"], req.params["krange"]
    size = (N - 1) * (2 * J + 1) * (2 * K + 1)
    problems = []
    if out.get("size") != size or len(out.get("labels", ())) != size:
        problems.append(f"section size {out.get('size')} is not {size}")
    if out.get("is_identity") is not True:
        problems.append("section is not the identity")
    if req.p == 2 and out.get("max_deviation") != 0.0:
        problems.append(f"max_deviation {out.get('max_deviation')!r} is not 0")
    expected = {(i, j, k) for i in range(N - 1) for j in range(-J, J + 1) for k in range(-K, K + 1)}
    if {tuple(label) for label in out.get("labels", ())} != expected:
        problems.append("section labels are not the requested index set")
    return problems


def check_onb(req, out) -> list[str]:
    count = req.params["count"]
    problems = []
    if out.get("exponents") != lambda_prefix(req.scale, req.params["dual"], count):
        problems.append("exponents are not the Lambda prefix")
    if not out.get("gram_max_deviation", 1.0) <= ONB_GRAM_TOL:
        problems.append(f"exponential Gram deviates by {out.get('gram_max_deviation')!r}")
    sums = out.get("partial_sums", [])
    if len(sums) != count:
        problems.append(f"{len(sums)} partial sums, expected {count}")
    if any(b < a for a, b in zip(sums, sums[1:])):
        problems.append("partial sums decrease")
    if not sums or max(sums) > 1 + BESSEL_TOL:
        problems.append("partial sums break the Bessel bound")
    return problems


def check_duality(req, out) -> list[str]:
    problems = []
    if out.get("verdict") != "Dual" or out.get("exact_unitary") is not True:
        problems.append(f"verdict {out.get('verdict')!r} for a Hadamard pair")
    B, count = req.params["dual"], req.params["count"]
    if out.get("lambda_prefix") != lambda_prefix(req.scale, B, count):
        problems.append("lambda prefix is not the base-N digit strings over B")
    return problems


def check_cycles(req, out) -> list[str]:
    # |m0|^2 <= p, with equality only at theta = 0: no orbit can carry
    # weight N when p < N, and only {0} does when p = N
    if req.p == req.scale:
        if out.get("verdict") != "CyclesFound" or [c["angles"] for c in out.get("cycles", [])] != [["0"]]:
            return ["expected the single trivial cycle {0}"]
    elif out.get("verdict") != "NoCycles" or out.get("cycles") != []:
        return ["expected no cycles since p < N"]
    return []


def check_classify(req, out) -> list[str]:
    if req.p == req.scale:
        atoms = out.get("atoms", [])
        if out.get("kind") != "atomic_on_cycles" or [a["angles"] for a in atoms] != [["0"]]:
            return ["expected one atom on the trivial cycle {0}"]
        return []
    if out.get("kind") != "full_support" or out.get("atoms") != []:
        return ["expected full support since p < N"]
    moments = out.get("moments", [])
    if not moments or moments[0].get("n") != 0 or moments[0].get("exact") != "1":
        return ["expected mu_0 = 1 in the attached moment table"]
    return []


CHECKS = {
    "moments": check_moments,
    "replimit": check_replimit,
    "gram": check_gram,
    "onb-check": check_onb,
    "duality": check_duality,
    "cycles": check_cycles,
    "classify": check_classify,
}


def check(req, out) -> list[str]:
    return CHECKS[req.kind](req, out)


def _bump_moment(out):
    row = next(r for r in out["moments"] if r["n"] == 3)
    row["exact"] = str(Fraction(row["exact"]) + Fraction(1, 7))


def _unit_moment(out):
    next(r for r in out["moments"] if r["n"] == 0)["exact"] = "1/2"


def _bump_replimit(out):
    row = out["rows"][len(out["rows"]) // 2]
    row["value"]["exact"] = str(Fraction(row["value"]["exact"]) + Fraction(1, 1024))


def _drop_sum(out):
    sums = out["partial_sums"]
    sums[len(sums) // 2] = sums[len(sums) // 2 - 1] - 1e-3


def _shift_prefix(out):
    out["lambda_prefix"][-1] += 1


def _flip_cycles(out):
    if out["cycles"]:
        out["cycles"] = []
    else:
        out["cycles"] = [{"angles": ["1/3"], "values": [1.0], "length": 1}]


def _flip_kind(out):
    out["kind"] = "full_support" if out["kind"] == "atomic_on_cycles" else "atomic_on_cycles"


CORRUPTIONS = {
    "moments": (_bump_moment, _unit_moment),
    "replimit": (_bump_replimit,),
    "gram": (
        lambda out: out.update(is_identity=False),
        lambda out: out.update(max_deviation=1e-3),
        lambda out: out.update(size=out["size"] + 1),
    ),
    "onb-check": (_drop_sum, lambda out: out.update(gram_max_deviation=1e-3)),
    "duality": (_shift_prefix, lambda out: out.update(verdict="NotDual")),
    "cycles": (_flip_cycles,),
    "classify": (_flip_kind,),
}


def self_test(req, out) -> list[str]:
    """Feed the check corrupted copies of a correct output; report any that pass."""
    missed = []
    for i, corrupt in enumerate(CORRUPTIONS[req.kind]):
        bad = copy.deepcopy(out)
        corrupt(bad)
        if not check(req, bad):
            missed.append(f"{req.kind} check accepted corruption #{i}")
    return missed
