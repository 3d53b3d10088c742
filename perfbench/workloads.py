"""Seeded request sweeps for the three benchmark workloads.

A workload is a table of slots.  A slot fixes a request type and its size
parameters, and holds a pool of digit systems; the seed picks one system per
slot (and, where a parameter does not change the work, its value) and then
shuffles the order.  So one seed always gives the same argv list, and every
seed gives the same request-size mix.

Most pools hold the translates and reflections of one digit pattern.  Those
systems share the weight |m0|^2, so their moments, transfer recursion,
cycle search and dual-digit words cost the same, while the argv and the
attractor differ.  Gram sections have no such symmetry; their pools hold
every two-digit system of the slot's scale.  Slot costs are spread without
large gaps, so the median and the tail request fall inside a run of slots of
similar cost rather than between two distant ones.

The program receives only the generated argv; the CLI's `--seed` flag is
never passed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Request:
    """One `fractalmra` CLI invocation and the facts its output check needs."""

    kind: str
    scale: int
    digits: tuple[int, ...]
    argv: tuple[str, ...]
    params: dict = field(default_factory=dict, compare=False, hash=False)

    @property
    def p(self) -> int:
        return len(self.digits)


class Choice(tuple):
    """A parameter pool that does not change the work; the seed picks one."""


def variants(N: int, S) -> list[tuple[int, int]]:
    """Translates and reflections of S inside {0, ..., N-1}, as (N, digits).

    They all have the same lag multiset, hence the same weight |m0|^2."""
    out = set()
    for pattern in (tuple(S), tuple(N - 1 - a for a in S)):
        lo = min(pattern)
        pattern = tuple(sorted(a - lo for a in pattern))
        for t in range(N - pattern[-1]):
            out.add(tuple(a + t for a in pattern))
    return [(N, s) for s in sorted(out)]


def pairs(N: int) -> list[tuple[int, tuple[int, int]]]:
    return [(N, s) for s in itertools.combinations(range(N), 2)]


def hadamard(N: int, s: int, b: int):
    """Translates of S = s{0..p-1}, each with B = b{0..p-1}, s b = N/p."""
    p = N // (s * b)
    B = tuple(b * i for i in range(p))
    return [(N, S, B) for _, S in variants(N, tuple(s * i for i in range(p)))]


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _request(kind: str, N: int, S, params: dict) -> Request:
    argv = [kind, "--scale", str(N), "--digits", _csv(S)]
    for name, value in params.items():
        argv += ["--" + name.replace("_", "-"), _csv(value) if isinstance(value, tuple) else str(value)]
    return Request(kind, N, tuple(S), tuple(argv), dict(params))


# -- gram_sections ------------------------------------------------------------
# Sections of 150-180 vectors, (N-1)(2 jrange + 1)(2 krange + 1), on every
# two-digit system: the p = 2 exact tier, where the section is the identity.
GRAM_SLOTS = tuple(
    ("gram", pairs(N), {"jrange": J, "krange": K})
    for N, J, K in (
        (3, 1, 12), (4, 1, 8), (5, 1, 6), (6, 1, 5),
        (3, 2, 7), (4, 2, 5), (5, 2, 4), (6, 2, 3),
    )
)

# -- measure_moments ----------------------------------------------------------
# "stabilized": the weight's smallest nonzero lag exceeds deg W/(N-1), so
# every moment is provably exact; range 2048 renders over a MB of JSON.
# "converged": smallest lag = deg W/(N-1), so only moment 0 stabilizes.
MOMENT_SLOTS = (
    ("moments", variants(7, (0, 1, 6)), {"range": 512}),   # converged
    ("moments", variants(6, (0, 3)), {"range": 2048}),     # stabilized
    ("moments", variants(7, (0, 3)), {"range": 2048}),     # stabilized
    ("moments", variants(4, (0, 1)), {"range": 2048}),     # stabilized
    ("moments", variants(5, (0, 2)), {"range": 2048}),     # stabilized
    ("moments", variants(6, (0, 1, 5)), {"range": 512}),   # converged
    ("moments", variants(3, (0, 2)), {"range": 2048}),     # stabilized, Cantor
    ("moments", variants(5, (0, 1, 4)), {"range": 512}),   # converged
    ("replimit", variants(3, (0, 2)), {"level": 10, "range": 3}),
    ("replimit", variants(5, (0, 2)), {"level": 10, "range": 3}),
    ("replimit", variants(7, (0, 3)), {"level": 11, "range": 1}),
    ("replimit", variants(4, (0, 1)), {"level": 9, "range": 6}),
)

# -- spectral_duality ---------------------------------------------------------
XI = Choice(round(k / 16, 4) for k in range(16))
LAMBDA_COUNT = Choice((32, 48, 64, 96, 128))
# |m0|^2 <= p < N leaves no cycle; p = N leaves only {0}.
SPECTRAL_SLOTS = (
    ("cycles", pairs(3), {}),
    ("cycles", [(3, (0, 1, 2))], {}),
    ("classify", [(3, (0, 1, 2))], {}),
    ("classify", pairs(4), {}),
    # dual-digit words p^K = 3^7 = 2187
    ("duality", hadamard(6, 1, 2), {"count": LAMBDA_COUNT, "cycle_length": 7}),
    ("duality", hadamard(9, 3, 1), {"count": LAMBDA_COUNT, "cycle_length": 7}),
    # prefix lengths that even out the cost across p
    ("onb-check", hadamard(6, 1, 2), {"count": 384, "xi": XI}),
    ("onb-check", hadamard(8, 2, 1), {"count": 400, "xi": XI}),
    ("onb-check", hadamard(9, 3, 1), {"count": 384, "xi": XI}),
    ("onb-check", hadamard(4, 2, 1), {"count": 320, "xi": XI}),
    ("onb-check", hadamard(6, 3, 1), {"count": 320, "xi": XI}),
)

WORKLOADS = {
    "gram_sections": GRAM_SLOTS,
    "measure_moments": MOMENT_SLOTS,
    "spectral_duality": SPECTRAL_SLOTS,
}


def generate(workload: str, seed: int) -> list[Request]:
    """The sweep for `workload` under `seed`, in the order it is played."""
    rng = random.Random(f"{workload}:{seed}")
    requests = []
    for kind, pool, params in WORKLOADS[workload]:
        system = rng.choice(pool)
        N, S = system[0], system[1]
        chosen = {k: rng.choice(v) if isinstance(v, Choice) else v for k, v in params.items()}
        if len(system) == 3:
            chosen = {"dual": system[2], **chosen}
        requests.append(_request(kind, N, S, chosen))
    rng.shuffle(requests)
    for req in requests:
        if "--seed" in req.argv:
            raise AssertionError("the CLI's --seed flag must never be passed")
    return requests


def argv_digest(requests) -> str:
    """sha256 of the argv list, the identity of a generated sweep."""
    blob = json.dumps([list(r.argv) for r in requests], separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def input_properties(workload: str, requests) -> dict:
    """Input facts the workload's behaviour depends on, known before running."""
    kinds: dict[str, int] = {}
    for r in requests:
        kinds[r.kind] = kinds.get(r.kind, 0) + 1
    props = {"request_mix": dict(sorted(kinds.items()))}
    if workload == "gram_sections":
        props["p2_exact_share"] = sum(r.p == 2 for r in requests) / len(requests)
        props["section_sizes"] = [
            (r.scale - 1) * (2 * r.params["jrange"] + 1) * (2 * r.params["krange"] + 1)
            for r in requests
        ]
    elif workload == "spectral_duality":
        props["duality_words_pK"] = [
            r.p ** r.params["cycle_length"] for r in requests if r.kind == "duality"
        ]
    return props
