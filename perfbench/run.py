"""Benchmark of the `fractalmra` CLI: seeded request sweeps played in process.

    python3 perfbench/run.py --workload gram_sections --seed 1 --seconds 30 --trace 0

One client in one process calls `cli.main(argv)` in a closed loop (the next
request starts when the previous one returns), with stdout captured in
memory.  A run goes:

1. set-up: fresh interpreters, launched one at a time, import
   `fractalmra.cli` and build its parser;
2. a first, untimed pass that warms caches;
3. timed passes of the same sweep for `--seconds`; every output must repeat
   the bytes of the first pass;
4. validation: every output of the first pass is checked against a
   reference this benchmark computes itself (see `checks.py`), and each
   check is fed corrupted outputs that it must reject.

Every measured time is taken between two runs of a speed probe (see
`probe.py`) and reported at the probe's reference speed; the raw wall times
are printed and recorded beside them.

With `--trace 0` the last line carries the end-to-end metrics.  With
`--trace 1` the timed passes alternate untraced and traced (see `tracer.py`)
and the last line carries the per-layer metrics of the traced passes, with
the tracing overhead.  A full record goes to `.bench_out/`.

The program is imported from `src/` next to this directory; the run exits
with status 2 and prints no result when it is missing.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from probe import IMPORT_REFERENCE_S, REFERENCE_S, at_reference, speed_probe  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_SAMPLES = 7
MIN_PASSES = 3
TAIL_ABOVE = 10
SETUP_CODE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import fractalmra.cli as cli\n"
    "cli.build_parser()\n"
    "print(repr(time.perf_counter() - t))\n"
)
# the third-party and standard modules the CLI imports, without fractalmra
IMPORT_PROBE_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import argparse, csv, dataclasses, fractions, json, numpy\n"
    "print(repr(time.perf_counter() - t))\n"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "sweep_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


# -- environment ----------------------------------------------------------------

def _clean_env() -> dict:
    return {k: v for k, v in os.environ.items() if k not in ("FRACTALMRA_THREADS", "PYTHONPATH")}


def git_sha(root: Path):
    """HEAD commit read from `.git`, or None outside a git checkout."""
    try:
        ref = (root / ".git" / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        ref_file = root / ".git" / name
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "fractalmra").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(ROOT),
        "source_sha256": source_digest(),
        "FRACTALMRA_THREADS": os.environ.get("FRACTALMRA_THREADS"),
        "processes": 1,
        "threads": threading.active_count(),
        "cli_seed_flag_passed": False,
        "machine": platform.machine(),
    }


# -- measurement ------------------------------------------------------------------

def _launch(code: str, *args: str) -> float:
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=_clean_env(), capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout)


def measure_setup(samples: int = SETUP_SAMPLES) -> list[tuple[float, float]]:
    """(import-plus-parser seconds, import-probe seconds) of fresh interpreters.

    Interpreters are launched one at a time, each set-up launch between two
    launches of the import probe, which imports the same outside modules
    without `fractalmra`.  Unmeasured launches first write bytecode caches
    and warm the file cache, as any second invocation of the CLI finds them."""
    _launch(SETUP_CODE, str(SRC))
    before = _launch(IMPORT_PROBE_CODE)
    out = []
    for _ in range(samples):
        seconds = _launch(SETUP_CODE, str(SRC))
        after = _launch(IMPORT_PROBE_CODE)
        out.append((seconds, (before + after) / 2))
        before = after
    return out


class Pass:
    """Latencies, probe times and outputs of one play of the sweep."""

    def __init__(self):
        self.latencies: list[float] = []
        self.probes: list[float] = []  # one before each request and one after the last
        self.outputs: list[str] = []
        self.codes: list = []
        self.errors: list[str] = []
        self.output_bytes = 0

    @property
    def wall(self) -> float:
        """Wall time of the request sequence, the probes left out."""
        return sum(self.latencies)

    @property
    def reference(self) -> list[float]:
        """Latencies at the reference speed, each by the probes around it."""
        return [
            at_reference(x, (self.probes[i] + self.probes[i + 1]) / 2)
            for i, x in enumerate(self.latencies)
        ]


def play(cli, requests, tracer=None) -> Pass:
    result = Pass()
    gc.collect()
    clock = time.perf_counter
    for i, req in enumerate(requests):
        if tracer is not None:
            tracer.begin_request(i)
        result.probes.append(speed_probe())
        out, err = io.StringIO(), io.StringIO()
        t0 = clock()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(list(req.argv))
        except SystemExit as exc:  # argparse rejects bad argv this way
            code = exc.code
        except Exception:  # a traceback is a failed request, not a dead run
            code = None
            err.write(traceback.format_exc())
        result.latencies.append(clock() - t0)
        result.outputs.append(out.getvalue())
        result.codes.append(code)
        result.errors.append(err.getvalue())
    result.probes.append(speed_probe())
    return result


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def validate(requests, first: Pass):
    """Check every output of the first pass; self-test each check once.

    Returns {request index: problem} for the outputs that fail."""
    failures, selftest, props = {}, [], {"moment_rows": 0, "converged_rows": 0}
    tested = set()
    for i, (req, text, code, err) in enumerate(zip(requests, first.outputs, first.codes, first.errors)):
        if code != 0:
            failures[i] = f"exit {code}: {err.strip()[-300:]}"
            continue
        try:
            out = json.loads(text)
        except ValueError:
            failures[i] = "output is not JSON"
            continue
        problems = checks.check(req, out)
        if problems:
            failures[i] = "; ".join(problems[:3])
            continue
        if req.kind not in tested:
            tested.add(req.kind)
            selftest += checks.self_test(req, out)
        if req.kind == "moments":
            statuses = [row["status"] for row in out["moments"]]
            props["moment_rows"] += len(statuses)
            props["converged_rows"] += statuses.count("converged")
    return failures, selftest, props


def settle(run: Pass, digests) -> dict[int, str]:
    """{request index: problem} for outputs of a timed pass that differ from
    the first pass's.

    The outputs are dropped afterwards, so that memory held for checking
    does not grow with the number of passes."""
    failures = {
        i: "output differs from the first pass"
        for i, (text, code, want) in enumerate(zip(run.outputs, run.codes, digests))
        if code != 0 or digest(text) != want
    }
    run.output_bytes = sum(len(text.encode()) for text in run.outputs)
    run.outputs = []
    return failures


def tail_rank(samples: int) -> int:
    """Index, in ascending order, of the highest sample with at least ten
    samples above it."""
    return max(samples - TAIL_ABOVE - 1, 0)


def typical(passes) -> list[float]:
    """Each request's median time over the passes, in sweep order.

    Interference on a shared machine comes in bursts that slow a few
    requests of a pass; the median over passes drops them."""
    return [statistics.median(times) for times in zip(*passes)]


def summary(setup, passes) -> dict:
    """setup_s, sweep_s, latency_p50_s and latency_tail_s of some passes."""
    each = typical(passes)
    all_times = [x for p in passes for x in p]
    return {
        "setup_s": statistics.median(setup),
        "sweep_s": sum(each),
        "latency_p50_s": statistics.median(each),
        "latency_tail_s": sorted(all_times)[tail_rank(len(all_times))],
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    os.environ.pop("FRACTALMRA_THREADS", None)
    requests = workloads.generate(workload, seed)
    speed_probe()  # the interpreter specializes the probe's code on first use
    setup = measure_setup()

    sys.path.insert(0, str(SRC))
    import fractalmra.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported {cli.__file__}, not the checkout's sources")

    # the first pass warms caches; its outputs are checked after the timed
    # passes, so that parsing them does not count toward peak memory
    first = play(cli, requests)
    digests = [digest(text) for text in first.outputs]
    mismatches: list[dict[int, str]] = []

    timed: list[Pass] = []
    traced: list[tuple[Pass, Tracer]] = []
    end = time.perf_counter() + seconds
    while True:
        timed.append(play(cli, requests))
        mismatches.append(settle(timed[-1], digests))
        if trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced.append((play(cli, requests, tracer), tracer))
            finally:
                tracer.uninstall()
            mismatches.append(settle(traced[-1][0], digests))
        step = statistics.median(p.wall for p in timed)
        if trace:
            step += statistics.median(p.wall for p, _ in traced)
        if len(timed) >= (1 if trace else MIN_PASSES) and time.perf_counter() + step > end:
            break
    attempted = len(requests) * (1 + len(timed) + len(traced))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checked, selftest, moment_props = validate(requests, first)
    # a request whose first output fails its check fails in every pass,
    # since later passes must print the same bytes
    failures = [f"{' '.join(requests[i].argv)}: {problem}" for i, problem in checked.items()]
    for found in mismatches:
        failures += [f"{' '.join(requests[i].argv)}: {problem}" for i, problem in {**found, **checked}.items()]

    props = workloads.input_properties(workload, requests)
    if workload == "measure_moments":
        props["converged_only_share"] = moment_props["converged_rows"] / moment_props["moment_rows"]
    reference = summary(
        [at_reference(s, p, IMPORT_REFERENCE_S) for s, p in setup], [p.reference for p in timed]
    )
    wall = summary([s for s, _ in setup], [p.latencies for p in timed])
    samples = len(requests) * len(timed)
    probes = [x for p in timed for x in p.probes]

    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "loop": "closed, 1 client, in process",
        "argv_sha256": workloads.argv_digest(requests),
        "argv": [list(r.argv) for r in requests],
        "input_properties": props,
        "environment": environment(),
        "passes": len(timed),
        "samples": samples,
        "tail_percentile": 100.0 * (tail_rank(samples) + 1) / samples,
        "attempted": attempted,
        "failed": len(failures),
        "fail_ratio": len(failures) / attempted,
        "failures": failures[:20],
        "selftest_missed": selftest,
        "end_to_end": {**reference, "peak_rss_mb": peak_rss_mb},
        "wall": wall,
        "speed": {
            "probe_reference_s": REFERENCE_S,
            "import_probe_reference_s": IMPORT_REFERENCE_S,
            "probe_median_s": statistics.median(probes),
            "probe_min_s": min(probes),
            "probe_max_s": max(probes),
        },
        "setup_samples": setup,
        "latencies_s": [p.latencies for p in timed],
        "probes_s": [p.probes for p in timed],
    }
    if trace:
        record["per_layer"] = per_layer(traced, reference["sweep_s"])
        counts = [t.counts() for _, t in traced]
        record["trace_counts"] = counts[0]
        record["trace_counts_repeat"] = all(c == counts[0] for c in counts)
        record["spans"] = traced[0][1].spans
    return record


def per_layer(traced, untraced_sweep: float) -> dict:
    """Counts from the first traced pass, times as medians over traced passes.

    Layer times are raw wall times, and carry no bound; the overhead is in
    reference-speed seconds, like the `sweep_s` it is taken from."""
    first_pass, first = traced[0]
    metrics = first.metrics()
    metrics["cli.output_bytes"] = first_pass.output_bytes
    for name in metrics:
        if layer_unit(name) == "s":
            metrics[name] = statistics.median(t.metrics()[name] for _, t in traced)
    traced_sweep = sum(typical([p.reference for p, _ in traced]))
    metrics["trace.overhead_s"] = traced_sweep - untraced_sweep
    return metrics


def report(record: dict) -> None:
    print(f"workload {record['workload']} seed {record['seed']} "
          f"argv_sha256 {record['argv_sha256'][:16]} passes {record['passes']}")
    print(f"  {'metric':<16} {'reference':>12} {'wall':>12}")
    for name, value in record["end_to_end"].items():
        wall = record["wall"].get(name)
        wall_text = "" if wall is None else f"{wall:12.6f}"
        print(f"  {name:<16} {value:12.6f} {wall_text:>12} {END_TO_END_UNITS[name]}")
    print(f"  {'fail_ratio':<16} {record['fail_ratio']:12.6f} {'':>12} ratio "
          f"({record['failed']}/{record['attempted']})")
    print(f"  latency_tail_s is p{record['tail_percentile']:.1f} of {record['samples']} requests")
    speed = record["speed"]
    print(f"  speed probe {speed['probe_median_s'] * 1e3:.2f} ms median "
          f"({speed['probe_min_s'] * 1e3:.2f}-{speed['probe_max_s'] * 1e3:.2f}), "
          f"reference {speed['probe_reference_s'] * 1e3:.2f} ms")
    print(f"  input {json.dumps(record['input_properties'], sort_keys=True)}")
    print(f"  env {json.dumps(record['environment'], sort_keys=True)}")
    for line in record["failures"][:5] + record["selftest_missed"]:
        print(f"  FAIL {line}")
    if "per_layer" in record:
        for name, value in sorted(record["per_layer"].items()):
            print(f"  {name:<34} {value:16.6f} {layer_unit(name)}")
        if not record["trace_counts_repeat"]:
            print("  WARN trace counts differ between traced passes")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fractalmra" / "cli.py").is_file():
        sys.stderr.write(f"no fractalmra sources under {SRC}; run from a full checkout\n")
        return 2

    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    report(record)
    metrics = record["per_layer"] if args.trace else record["end_to_end"]
    units = {n: layer_unit(n) for n in metrics} if args.trace else END_TO_END_UNITS
    print(json.dumps({
        "correct": record["failed"] == 0 and not record["selftest_missed"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
