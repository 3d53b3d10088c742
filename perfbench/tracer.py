"""Outside-in tracing of `fractalmra`'s layers.

The tracer replaces public functions and methods of each module with
wrappers, at the module or class attribute and at every other module
attribute that names the same object (such as `cli.gram_section`), and puts
the originals back on `uninstall`.  Nothing inside `src/` changes.

Coarse calls record a span (name, start, end, parent span, request id).
Fine-grained calls -- `Scalar` arithmetic, polynomial products, transfer
recursion, transform values -- only bump aggregate counters, so that the
trace stays small.  Both kinds push a frame, so every wrapped call's self
time (its duration minus the time of the wrapped calls inside it) is charged
to its own layer.  Inclusive time is charged to a group only at the outermost
call of that group, so recursion is not counted twice.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction

SPAN, COUNT = "span", "count"
PACKAGE = "fractalmra"

# (module, attribute path, call name, time group, layer, kind)
TARGETS = (
    ("cli", "main", "cli.main", "cli.main", "cli", SPAN),
    ("space", "gram_section", "space.gram_section", "space.gram_section", "space", SPAN),
    ("space", "GramSection.is_identity", "space.is_identity", "space.gram_verdict", "space", SPAN),
    ("space", "GramSection.max_identity_deviation", "space.max_identity_deviation",
     "space.gram_verdict", "space", SPAN),
    ("space", "wavelet_generators", "space.wavelet_generators", "space.wavelet_generators", "space", SPAN),
    ("space", "representation_limit", "space.representation_limit", "space.representation_limit",
     "space", SPAN),
    ("space", "refine_to", "space.refine_to", "space.refine_to", "space", COUNT),
    ("space", "inner", "space.inner", "space.inner", "space", COUNT),
    ("laurent", "LaurentPolynomial.__mul__", "laurent.mul", "laurent.mul", "laurent", COUNT),
    ("laurent", "LaurentPolynomial.__rmul__", "laurent.mul", "laurent.mul", "laurent", COUNT),
    ("laurent", "LaurentPolynomial.eval_turns", "laurent.eval_turns", "laurent.eval_turns", "laurent", COUNT),
    ("transfer", "TransferOperator._iterate_coefficient", "transfer.iterate", "transfer.iterate",
     "transfer", COUNT),
    ("transfer", "TransferOperator.apply", "transfer.apply", "transfer.apply", "transfer", COUNT),
    ("transfer", "spectral_block", "transfer.spectral_block", "transfer.spectral_block", "transfer", SPAN),
    ("measure", "moment", "measure.moment", "measure.moment", "measure", COUNT),
    ("measure", "moment_table", "measure.moment_table", "measure.moment_table", "measure", SPAN),
    ("measure", "wiener_profile", "measure.wiener_profile", "measure.wiener_profile", "measure", SPAN),
    ("measure", "find_cycles", "measure.find_cycles", "measure.find_cycles", "measure", SPAN),
    ("measure", "classify_support", "measure.classify_support", "measure.classify_support", "measure", SPAN),
    ("ifs", "HutchinsonTransform.value", "ifs.transform_value", "ifs.transform_value", "ifs", COUNT),
    ("duality", "dual_matrix", "duality.dual_matrix", "duality.dual_matrix", "duality", SPAN),
    ("duality", "lambda_set", "duality.lambda_set", "duality.lambda_set", "duality", SPAN),
    ("duality", "b_cycles", "duality.b_cycles", "duality.b_cycles", "duality", SPAN),
    ("duality", "exponential_gram", "duality.exponential_gram", "duality.exponential_gram", "duality", SPAN),
    ("duality", "onb_defect", "duality.onb_defect", "duality.onb_defect", "duality", SPAN),
    ("filterbank", "canonical_lowpass", "filterbank.canonical_lowpass", "filterbank", "filterbank", SPAN),
    ("filterbank", "build_bank", "filterbank.build_bank", "filterbank", "filterbank", SPAN),
    ("filterbank", "unitarity_defect", "filterbank.unitarity_defect", "filterbank", "filterbank", SPAN),
    ("filterbank", "pairing", "filterbank.pairing", "filterbank", "filterbank", COUNT),
)

SCALAR_BINARY = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__",
)
SCALAR_COMPARE = ("__eq__", "__lt__", "__le__", "__gt__", "__ge__")


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.calls: Counter = Counter()      # call name -> calls
        self.time: dict = defaultdict(float)   # group -> inclusive seconds
        self.self_time: dict = defaultdict(float)  # layer -> self seconds
        self.extra: Counter = Counter()      # derived counts
        self.spans: list = []   # [name, start, end, parent index, request id, self seconds]
        self.request = None
        self._depth: Counter = Counter()
        self._frames: list = []
        self._open_spans: list = []
        self._seen: dict = {}
        self._patches: list = []

    # -- request bookkeeping -------------------------------------------------

    def begin_request(self, request_id) -> None:
        self.request = request_id
        self._seen = {}

    def _repeat(self, group: str, owner, key) -> None:
        """Count a call that repeats an (instance, key) pair of this request."""
        seen = self._seen.setdefault((group, id(owner)), (owner, set()))[1]
        if key in seen:
            self.extra[group + ".repeats"] += 1
        else:
            seen.add(key)

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, fn, name, group, layer, kind, on_call=None, on_result=None):
        tracer = self
        clock = time.perf_counter
        calls, depth, frames = self.calls, self._depth, self._frames
        total, self_total = self.time, self.self_time
        span = kind == SPAN

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(tracer, args)
            calls[name] += 1
            outer = not depth[group]
            depth[group] += 1
            frame = [0.0]
            frames.append(frame)
            if span:
                index = len(tracer.spans)
                parent = tracer._open_spans[-1] if tracer._open_spans else None
                record = [name, 0.0, 0.0, parent, tracer.request, 0.0]
                tracer.spans.append(record)
                tracer._open_spans.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                duration = end - start
                frames.pop()
                if frames:
                    frames[-1][0] += duration
                self_total[layer] += duration - frame[0]
                depth[group] -= 1
                if outer:
                    total[group] += duration
                if span:
                    tracer._open_spans.pop()
                    record[1], record[2], record[5] = start, end, duration - frame[0]
            if on_result is not None:
                on_result(tracer, args, kwargs, result)
            return result

        functools.update_wrapper(wrapper, fn)
        return wrapper

    def _modules(self):
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _install_function(self, fn, wrapper) -> None:
        """Replace `fn` under every package attribute that names it."""
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patch(module, attr, wrapper)

    def install(self) -> None:
        modules = {m.__name__.rsplit(".", 1)[-1]: m for m in self._modules()}
        hooks = _hooks()
        for mod_name, path, name, group, layer, kind in TARGETS:
            owner = modules[mod_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            on_call, on_result = hooks.get(name, (None, None))
            fn = owner.__dict__[attr] if outer else getattr(owner, attr)
            wrapper = self._wrap(fn, name, group, layer, kind, on_call, on_result)
            if outer:
                self._patch(owner, attr, wrapper)
            else:
                self._install_function(fn, wrapper)
        self._install_scalar(modules["scalars"].Scalar)

    def _install_scalar(self, Scalar) -> None:
        def exact(x):
            return isinstance(x, (int, Fraction)) or (isinstance(x, Scalar) and x.is_exact)

        def binary_result(tracer, args, kwargs, result):
            self_, other = args
            if isinstance(result, Scalar) and not result.is_exact and exact(self_) and exact(other):
                tracer.extra["scalars.demotions"] += 1

        def unary_result(tracer, args, kwargs, result):
            if isinstance(result, Scalar) and not result.is_exact and exact(args[0]):
                tracer.extra["scalars.demotions"] += 1

        for attr in SCALAR_BINARY + SCALAR_COMPARE + ("__neg__",):
            if attr not in Scalar.__dict__:
                continue
            on_result = (
                None if attr in SCALAR_COMPARE
                else unary_result if attr == "__neg__" else binary_result
            )
            wrapper = self._wrap(Scalar.__dict__[attr], "scalars.op", "scalars", "scalars",
                                 COUNT, None, on_result)
            self._patch(Scalar, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------------

    def metrics(self) -> dict:
        c, t, x = self.calls, self.time, self.extra

        def ratio(num, den):
            return num / den if den else 0.0

        return {
            "cli.self_s": self.self_time["cli"],
            "space.gram_section.s": t["space.gram_section"],
            "space.gram_verdict.s": t["space.gram_verdict"],
            "space.gram_pairs": x["space.gram_pairs"],
            "space.refine_to.calls": c["space.refine_to"],
            "space.refine_to.s": t["space.refine_to"],
            "space.inner.calls": c["space.inner"],
            "space.representation_limit.s": t["space.representation_limit"],
            "space.self_s": self.self_time["space"],
            "scalars.ops": c["scalars.op"],
            "scalars.s": t["scalars"],
            "scalars.demotions": x["scalars.demotions"],
            "laurent.mul.calls": c["laurent.mul"],
            "laurent.mul.s": t["laurent.mul"],
            "laurent.mul.term_products": x["laurent.mul.term_products"],
            "laurent.eval_turns.calls": c["laurent.eval_turns"],
            "transfer.iterate_calls": c["transfer.iterate"],
            "transfer.memo_hit_ratio": ratio(x["transfer.iterate.repeats"], c["transfer.iterate"]),
            "transfer.s": t["transfer.iterate"],
            "transfer.apply.calls": c["transfer.apply"],
            "transfer.spectral_block.s": t["transfer.spectral_block"],
            "measure.moment.calls": c["measure.moment"],
            "measure.moment_table.s": t["measure.moment_table"],
            "measure.moment_iterations": x["measure.moment_iterations"],
            "measure.stabilized_ratio": ratio(x["measure.stabilized"], c["measure.moment"]),
            "measure.find_cycles.s": t["measure.find_cycles"],
            "measure.find_cycles.points": x["measure.find_cycles.points"],
            "ifs.transform_value.calls": c["ifs.transform_value"],
            "ifs.transform_value.s": t["ifs.transform_value"],
            "ifs.transform_value.hit_ratio": ratio(x["ifs.transform_value.repeats"], c["ifs.transform_value"]),
            "duality.exponential_gram.s": t["duality.exponential_gram"],
            "duality.b_cycles.s": t["duality.b_cycles"],
            "duality.b_cycles.words": x["duality.b_cycles.words"],
            "duality.lambda_set.s": t["duality.lambda_set"],
            "duality.dual_matrix.s": t["duality.dual_matrix"],
            "duality.self_s": self.self_time["duality"],
            "filterbank.s": t["filterbank"],
            "filterbank.pairing.calls": c["filterbank.pairing"],
        }

    def counts(self) -> dict:
        """Every count of the pass; these repeat exactly for one sweep."""
        return dict(sorted({**self.calls, **self.extra}.items()))


def _hooks() -> dict:
    """Per-call hooks that derive counts from arguments and results."""

    def mul_terms(tracer, args):
        a, b = args
        other = len(b.coeffs) if hasattr(b, "coeffs") else 1
        tracer.extra["laurent.mul.term_products"] += len(a.coeffs) * other

    def iterate_repeat(tracer, args):
        op, k, idx = args
        tracer._repeat("transfer.iterate", op, (k, idx))

    def transform_repeat(tracer, args):
        transform, k = args
        tracer._repeat("ifs.transform_value", transform, k)

    def gram_pairs(tracer, args, kwargs, section):
        tracer.extra["space.gram_pairs"] += section.size ** 2

    def moment_result(tracer, args, kwargs, entry):
        tracer.extra["measure.moment_iterations"] += entry.iterations
        tracer.extra["measure.stabilized"] += entry.status == "stabilized"

    def cycle_points(tracer, args, kwargs, report):
        # computed: the candidate grid j/(N^l - 1) over every searched length
        N = report.scale
        tracer.extra["measure.find_cycles.points"] += sum(
            N ** ell - 1 for ell in range(1, report.searched_length + 1)
        )

    def b_words(tracer, args, kwargs, report):
        # computed: dual-digit words of every length up to K
        p = len(args[0].dual)
        tracer.extra["duality.b_cycles.words"] += sum(
            p ** k for k in range(1, report.max_length + 1)
        )

    return {
        "laurent.mul": (mul_terms, None),
        "transfer.iterate": (iterate_repeat, None),
        "ifs.transform_value": (transform_repeat, None),
        "space.gram_section": (None, gram_pairs),
        "measure.moment": (None, moment_result),
        "measure.find_cycles": (None, cycle_points),
        "duality.b_cycles": (None, b_words),
    }
