import csv
import gc
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from fractalmra import cli, transfer


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def load_schema(name):
    path = resources.files("fractalmra.schemas").joinpath(f"{name}.schema.json")
    return json.loads(path.read_text())


SAMPLE_RUNS = {
    "dimension": ("dimension", "--scale", "3", "--digits", "0,2"),
    "filters": ("filters", "--scale", "3", "--digits", "0,2"),
    "spectrum": ("spectrum", "--scale", "3", "--digits", "0,2"),
    "moments": ("moments", "--scale", "3", "--digits", "0,2", "--range", "8"),
    "cycles": ("cycles", "--scale", "2", "--digits", "0,1", "--length", "6"),
    "classify": ("classify", "--scale", "3", "--digits", "0,2", "--length", "8"),
    "duality": ("duality", "--scale", "4", "--digits", "0,2", "--dual", "0,1",
                "--count", "8"),
    "onb-check": ("onb-check", "--scale", "4", "--digits", "0,2", "--dual", "0,1",
                  "--count", "8"),
    "cascade": ("cascade", "--scale", "3", "--digits", "0,2", "--modifier", "z3",
                "--steps", "6"),
    "riesz": ("riesz", "--depth", "3", "--grid", "27"),
    "gram": ("gram", "--scale", "3", "--digits", "0,2", "--jrange", "1",
             "--krange", "2"),
    "table": ("table",),
    "replimit": ("replimit", "--scale", "3", "--digits", "0,2", "--level", "6",
                 "--range", "4"),
}


@pytest.mark.parametrize("name", sorted(SAMPLE_RUNS))
def test_json_output_validates_against_schema(name):
    code, out, err = run_cli(*SAMPLE_RUNS[name])
    assert code == 0, err
    obj = json.loads(out)
    jsonschema.validate(obj, load_schema(name))


@pytest.mark.parametrize("name", sorted(SAMPLE_RUNS))
def test_byte_determinism(name):
    _, first, _ = run_cli(*SAMPLE_RUNS[name])
    _, second, _ = run_cli(*SAMPLE_RUNS[name])
    assert first == second
    assert first.encode() == second.encode()


def test_dimension_value():
    code, out, _ = run_cli("dimension", "--scale", "3", "--digits", "0,2")
    assert code == 0
    assert json.loads(out) == {"dimension": 0.6309297535714574}


def test_duality_lambda_prefix():
    _, out, _ = run_cli("duality", "--scale", "4", "--digits", "0,2",
                        "--dual", "0,1", "--count", "8")
    obj = json.loads(out)
    assert obj["verdict"] == "Dual"
    assert obj["lambda_prefix"] == [0, 1, 4, 5, 16, 17, 20, 21]
    assert obj["b_cycles"]["trivial_only"]


def test_cascade_csv():
    code, out, _ = run_cli("cascade", "--scale", "3", "--digits", "0,2",
                           "--modifier", "z3", "--steps", "6", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,norm_sq,inner_re,inner_im"
    assert len(lines) == 7
    for row in lines[1:]:
        n, norm_sq, re, im = row.split(",")
        assert float(norm_sq) == 2.0
        assert float(re) == 0.0
        assert float(im) == 0.0


def test_riesz_csv_columns():
    code, out, _ = run_cli("riesz", "--depth", "2", "--grid", "9",
                           "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,value"
    assert len(lines) == 10


def test_moments_csv_and_wiener_csv():
    code, out, _ = run_cli("moments", "--scale", "3", "--digits", "0,2",
                           "--range", "4", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "n,re,im,status"
    code, out, _ = run_cli("moments", "--scale", "3", "--digits", "0,2",
                           "--range", "4", "--emit", "wiener", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "k,s_k,ratio"


RENDER_RUNS = {
    **SAMPLE_RUNS,
    "moments-wiener": SAMPLE_RUNS["moments"] + ("--emit", "wiener"),
    # nonzero inner products, which the z3 sample lacks
    "cascade-none": ("cascade", "--scale", "3", "--digits", "0,2", "--steps", "3"),
}

# the csv forms: header, then one row per JSON row, each cell one JSON field
CSV_FORMS = {
    "moments": (["n", "re", "im", "status"], lambda o: [
        [m["n"], m["re"], m["im"], m["status"]] for m in o["moments"]]),
    "moments-wiener": (["k", "s_k", "ratio"], lambda o: [
        [r["k"], r["s"]["re"], r["ratio"] and r["ratio"]["re"]] for r in o["wiener"]["rows"]]),
    "cascade": (["n", "norm_sq", "inner_re", "inner_im"], lambda o: [
        [r["n"], r["norm_sq"]["re"], r["inner"]["re"], r["inner"]["im"]] for r in o["rows"]]),
    "riesz": (["t", "value"], lambda o: o["rows"]),
}
CSV_FORMS["cascade-none"] = CSV_FORMS["cascade"]


def _cell_is(cell, field):
    if field is None:
        return cell == ""
    if isinstance(field, str):
        return cell == field
    if isinstance(field, int):
        return int(cell) == field
    return float(cell) == field


@pytest.mark.parametrize("name", sorted(RENDER_RUNS))
def test_text_and_csv_render_the_json_model(name, tmp_path):
    argv = RENDER_RUNS[name]
    code, out, err = run_cli(*argv)
    assert code == 0, err
    obj = json.loads(out)

    code, text, err = run_cli(*argv, "--format", "text")
    assert code == 0, err
    assert text.endswith("\n")

    target = tmp_path / "out.csv"
    code, table, err = run_cli(*argv, "--format", "csv", "--output", str(target))
    if name not in CSV_FORMS:
        assert code == 2
        assert "has no csv form" in err
        assert table == ""
        assert not target.exists()
        return
    assert code == 0, err
    header, project = CSV_FORMS[name]
    rows = list(csv.reader(io.StringIO(target.read_text())))
    assert rows[0] == header
    fields = project(obj)
    assert len(rows) == len(fields) + 1
    for cells, values in zip(rows[1:], fields):
        assert len(cells) == len(values)
        for cell, value in zip(cells, values):
            assert _cell_is(cell, value), (cell, value)
    assert any(value is None for values in fields for value in values) == (name == "moments-wiener")


def test_csv_refused_before_computing(monkeypatch):
    def never(args):
        raise AssertionError("handler ran for a refused format")

    for name, command in cli.COMMANDS.items():
        if command.csv is None:
            monkeypatch.setitem(cli.COMMANDS, name, command._replace(run=never))
    for name, argv in SAMPLE_RUNS.items():
        if cli.COMMANDS[name].csv is None:
            code, out, err = run_cli(*argv, "--format", "csv")
            assert (code, out) == (2, ""), name
            assert "has no csv form" in err


def test_csv_refusal_wins_over_cap():
    # the cap (exit 3) is never reached: the format is refused first
    start = time.perf_counter()
    code, out, err = run_cli("gram", "--scale", "3", "--digits", "0,2",
                             "--jrange", "30", "--krange", "30", "--format", "csv")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert "has no csv form" in err


def test_text_format():
    code, out, _ = run_cli("filters", "--scale", "3", "--digits", "0,2",
                           "--format", "text")
    assert code == 0
    assert "m_0" in out and "unitarity defect" in out


def test_output_file(tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = run_cli("dimension", "--scale", "4", "--digits", "0,2",
                           "--output", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text()) == {"dimension": 0.5}


def test_exit_code_unknown_subcommand():
    code, _, err = run_cli("frobnicate")
    assert code == 64
    assert "unknown subcommand" in err


def test_exit_code_invalid_digits():
    code, _, err = run_cli("dimension", "--scale", "3", "--digits", "0,x")
    assert code == 2
    code, _, err = run_cli("dimension", "--scale", "3", "--digits", "0,7")
    assert code == 2


def test_exit_code_cap_exceeded():
    code, _, err = run_cli("cascade", "--scale", "3", "--digits", "0,2",
                           "--steps", "13")
    assert code == 3
    assert "cap" in err


def test_signed_dual_set_beyond_the_cap_is_refused_at_once():
    """p = 4 signed dual digits would enumerate 4^12 strings whatever the count."""
    start = time.perf_counter()
    code, out, err = run_cli("duality", "--scale", "4", "--digits", "0,1,2,3",
                             "--dual=-1,0,1,2", "--count", "8")
    assert (code, out) == (3, "")
    assert err == "cap exceeded: p^12 signed dual strings exceed cap 1000000\n"
    assert time.perf_counter() - start < 1.0


def test_gram_deep_jrange_succeeds_quickly():
    start = time.perf_counter()
    code, out, err = run_cli("gram", "--scale", "3", "--digits", "0,2",
                             "--jrange", "8", "--krange", "0")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert json.loads(out)["is_identity"] is True


def test_exit_code_precondition_error():
    # onb-check on a non-dual pair
    code, _, err = run_cli("onb-check", "--scale", "3", "--digits", "0,2",
                           "--dual", "0,1")
    assert code == 2


def test_table_contents():
    _, out, _ = run_cli("table")
    obj = json.loads(out)
    dims = [row["hausdorff_dimension"] for row in obj["dual_systems"]]
    import math
    assert abs(dims[0] - 0.5) <= 1e-12
    assert abs(dims[1] - math.log(2) / math.log(6)) <= 1e-12
    assert abs(dims[2] - math.log(2) / math.log(6)) <= 1e-12
    assert abs(dims[3] - math.log(3) / math.log(6)) <= 1e-12
    assert [row["verdict"] for row in obj["dual_systems"]] == ["Dual"] * 4
    prefixes = [row["lambda_prefix"] for row in obj["spectra"]]
    assert prefixes[0] == [0, 1, 4, 5, 16, 17, 20, 21]
    assert prefixes[1] == [0, 1, 6, 7, 36, 37, 42, 43]
    for row in obj["dual_transfer"]:
        assert row["partition_of_unity_max_dev"] < 1e-12


def test_cycle_length_clamped_to_cap():
    code, out, _ = run_cli("cycles", "--scale", "6", "--digits", "0,2,4")
    assert code == 0
    obj = json.loads(out)
    assert obj["requested_length"] == 12
    assert obj["searched_length"] == 11  # 6^12 - 1 exceeds the point cap
    code, out, _ = run_cli("classify", "--scale", "6", "--digits", "0,2,4")
    assert code == 0
    assert json.loads(out)["kind"] == "full_support"


def test_table_text_format():
    code, out, _ = run_cli("table", "--format", "text")
    assert code == 0
    assert "Lambda prefix" in out
    assert "dual transfer branches" in out


def test_help_shows_defaults():
    import contextlib
    import io

    buf = io.StringIO()
    with pytest.raises(SystemExit), contextlib.redirect_stdout(buf):
        cli.main(["moments", "--help"])
    assert "default: 256" in buf.getvalue()


@pytest.mark.parametrize("command", ["moments", "replimit"])
def test_negative_moment_range_refused(command):
    code, out, err = run_cli(command, "--scale", "3", "--digits", "0,2",
                             "--range", "-1")
    assert code == 2
    assert out == ""
    assert err == "precondition error: moment range must be >= 0\n"


EDGE_REFUSALS = [
    (("cycles", "--scale", "3", "--digits", "0,2", "--length", "0"),
     "cycle length must be >= 1"),
    (("classify", "--scale", "3", "--digits", "0,2", "--length", "-2"),
     "cycle length must be >= 1"),
    (("gram", "--scale", "3", "--digits", "0,2", "--jrange", "-1"),
     "jrange and krange must be >= 0"),
    (("gram", "--scale", "3", "--digits", "0,2", "--krange", "-1"),
     "jrange and krange must be >= 0"),
    (("onb-check", "--scale", "4", "--digits", "0,2", "--dual", "0,1", "--xi", "nan"),
     "xi must be finite, got nan"),
    (("onb-check", "--scale", "4", "--digits", "0,2", "--dual", "0,1", "--xi", "inf"),
     "xi must be finite, got inf"),
    (("onb-check", "--scale", "4", "--digits", "0,2", "--dual", "0,1", "--xi=-inf"),
     "xi must be finite, got -inf"),
]


@pytest.mark.parametrize("argv,message", EDGE_REFUSALS, ids=[" ".join(a) for a, _ in EDGE_REFUSALS])
def test_edge_inputs_refused_before_computing(argv, message, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("computed for a refused request")

    for module, name in ((cli.measure_mod, "find_cycles"), (cli.measure_mod, "classify_support"),
                         (cli, "gram_section"), (cli.dual_mod, "dual_matrix")):
        monkeypatch.setattr(module, name, never)
    code, out, err = run_cli(*argv)
    assert (code, out) == (2, "")
    assert err == f"precondition error: {message}\n"


DIGITS_7, DIGITS_24 = (",".join(map(str, range(p))) for p in (7, 24))
DIGITS_707, DIGITS_708 = (",".join(map(str, range(p))) for p in (707, 708))
CAP_REFUSALS = [
    (("cascade", "--scale", "4", "--digits", "0,1,2,3", "--steps", "12"),
     "4^12 cascade terms exceed cap 1000000"),
    (("cascade", "--scale", "7", "--digits", DIGITS_7, "--steps", "8"),
     "7^8 cascade terms exceed cap 1000000"),
    (("riesz", "--depth", "2000"), "depth capped at 31"),
    (("riesz", "--grid", "100000000"), "grid capped at 100000"),
    (("onb-check", "--scale", "4", "--digits", "0,2", "--dual", "0,1", "--count", "100000"),
     "100000^2 exponent differences exceed cap 16777216"),
    (("filters", "--scale", "300", "--digits", "0"), "scale 300 exceeds cap 24"),
    (("cascade", "--scale", "708", "--digits", DIGITS_708, "--steps", "0"),
     "708*708 + 708^2 term products exceed cap 1000000"),
]


@pytest.mark.parametrize("argv,message", CAP_REFUSALS, ids=[" ".join(a)[:80] for a, _ in CAP_REFUSALS])
def test_work_caps_refuse_at_once(argv, message):
    """Each request ran for minutes, or raised, before its cap existed."""
    start = time.perf_counter()
    code, out, err = run_cli(*argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (3, "", f"cap exceeded: {message}\n")


@pytest.mark.parametrize("argv", [
    ("cascade", "--scale", "3", "--digits", "0,2", "--steps", "12"),
    ("riesz", "--depth", "31", "--grid", "9"),
    ("filters", "--scale", "24", "--digits", DIGITS_24),
    ("filters", "--scale", "24", "--digits", "0"),
    ("cascade", "--scale", "707", "--digits", DIGITS_707, "--steps", "0"),
])
def test_requests_at_the_work_caps_run(argv):
    code, _, err = run_cli(*argv)
    assert code == 0, err


def test_seed_flag_removed():
    err = io.StringIO()
    with pytest.raises(SystemExit) as exc, redirect_stderr(err):
        cli.main(["dimension", "--scale", "3", "--digits", "0,2", "--seed", "0"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed" in err.getvalue()


@pytest.mark.parametrize("flag,value", [("--max-iter", "3"), ("--tol", "1e-3")])
def test_moments_iteration_flags_removed(flag, value):
    err = io.StringIO()
    with pytest.raises(SystemExit) as exc, redirect_stderr(err):
        cli.main(["moments", "--scale", "3", "--digits", "0,2", flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in err.getvalue()


def test_samples_flag_removed():
    """Every bank is exact, so no defect samples the torus."""
    err = io.StringIO()
    with pytest.raises(SystemExit) as exc, redirect_stderr(err):
        cli.main(["filters", "--scale", "3", "--digits", "0,1,2", "--samples", "64"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --samples" in err.getvalue()


def test_cycles_tol_flag_removed():
    err = io.StringIO()
    with pytest.raises(SystemExit) as exc, redirect_stderr(err):
        cli.main(["cycles", "--scale", "2", "--digits", "0,1", "--tol", "1e-9"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol" in err.getvalue()


@pytest.mark.parametrize("command", ["duality", "onb-check"])
def test_one_digit_dual_pair(command):
    code, out, err = run_cli(command, "--scale", "3", "--digits", "1", "--dual", "0")
    assert code == 0, err
    obj = json.loads(out)
    jsonschema.validate(obj, load_schema(command))
    key = "lambda_prefix" if command == "duality" else "exponents"
    assert obj[key] == [0]


def test_duality_word_cap_counts_one_digit_systems_as_two():
    """b_cycles refuses max(p, 2)^K > 10^6 words: a one-digit system, one
    word per length, is refused past K = 19 rather than looping for
    minutes; refusals for p >= 2 stand."""
    one_digit = ("duality", "--scale", "3", "--digits", "1", "--dual", "0")
    start = time.perf_counter()
    code, out, err = run_cli(*one_digit, "--cycle-length", "20")
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (3, "", "cap exceeded: p^K exceeds cap 1000000\n")
    code, _, err = run_cli(*one_digit, "--cycle-length", "19")
    assert code == 0, err
    code, _, _ = run_cli("duality", "--scale", "4", "--digits", "0,2", "--dual", "0,1",
                         "--cycle-length", "20")
    assert code == 3


# what each request derives from |m0|^2 and the dual pair, and how often
DERIVATIONS = [
    ("classify --scale 3 --digits 0,2",
     {"weight_from_filter": 1, "_block": 1, "_left_fixed_vectors": 1}),
    ("spectrum --scale 3 --digits 0,2",
     {"weight_from_filter": 1, "_block": 1, "_left_fixed_vectors": 1}),
    ("onb-check --scale 4 --digits 0,2 --dual 0,1 --count 8", {"lambda_set": 1}),
]


@pytest.mark.parametrize("request_line,expected", DERIVATIONS, ids=[r for r, _ in DERIVATIONS])
def test_each_derivation_runs_once_per_request(request_line, expected, monkeypatch):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module, name in ((transfer, "weight_from_filter"), (transfer, "_block"),
                         (transfer, "_left_fixed_vectors"), (cli.dual_mod, "lambda_set")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    code, _, err = run_cli(*request_line.split())
    assert code == 0, err
    assert calls == expected


# sha256 of the JSON stdout of each request: exact arithmetic may get faster,
# never different.  The first five are the heavy exact paths (long moment tables, a deep
# representation limit, a wide Cantor Gram) and a p = 3 Gram, whose
# Householder detail filters make it the exact identity; the rest are the
# README examples in JSON, plus the p = 3 filters, exact in Q(sqrt3).
GOLDEN_STDOUT = [
    ("moments --scale 3 --digits 0,2 --range 2048",
     "75a4c7142cef8f8d466b619a2e12525fdde5b4e3ac88afddccc6359249bf4bb0"),
    ("moments --scale 7 --digits 0,1,6 --range 512",
     "558133735cf5c118b564f10bd4db518f415c0d916594951b4f225624402bd31a"),
    ("replimit --scale 7 --digits 3,6 --level 11 --range 1",
     "8febd9e5053fde9aaaec1525a467395b909f8313b61700a0a50cd88cc7d8dc1c"),
    ("gram --scale 3 --digits 0,2 --jrange 40 --krange 0",
     "91535de304c4b35b6d1209c2b53b900b932b999f2a238ea963b8d00fb2160d88"),
    ("gram --scale 4 --digits 0,1,3 --jrange 2 --krange 2",
     "0cdcdeecc87de8e6fe2032072cf789ec3f27909fe0676ac95b6ae0740a666cd0"),
    ("dimension --scale 3 --digits 0,2",
     "c0fbd998e1ead98b48a44c944b522932623206680fc9417f22222ef627f7b6b8"),
    ("filters --scale 3 --digits 0,2",
     "c02bb4ec86fdccf7a49ef917977fffe7fc9f1df2ba0bb162ae8b613f753b6b8b"),
    ("filters --scale 4 --digits 0,1,3",
     "774894ef617cacff8b18744c0390eb80786f80da31f22a3689032f75ab9373a0"),
    ("spectrum --scale 3 --digits 0,2",
     "597056eed9fd6939deeebe5c20db53534409e16e897d715975ec634267e0334d"),
    ("moments --scale 3 --digits 0,2 --range 64 --emit wiener",
     "89f2f4b1b6153014fad4881a8683e18e3c33c5db1d63ef764c2e217ccb6e875d"),
    ("cycles --scale 2 --digits 0,1 --length 8",
     "6711123d869bac0d7e45f4b850be55108505dc27a1c5419c9ecc32b4bed7ca70"),
    ("classify --scale 3 --digits 0,2",
     "da2318d14c0e8ab2a149b80e3de43520f14ba2f551b3e83fcde72b94ea0cf478"),
    ("duality --scale 4 --digits 0,2 --dual 0,1 --count 8",
     "07ce29c507809d2dcbf16f37d7ad551925821fac9a7929ae56f205fac807bdc7"),
    ("onb-check --scale 4 --digits 0,2 --dual 0,1 --count 8 --xi 0.3",
     "2318610793985aef510669b92c996c342f50cb4ad3eaf70008d633d6318ea4c0"),
    ("cascade --scale 3 --digits 0,2 --modifier z3 --steps 6",
     "8c0e5393c074647ea9490b3a81d5fab60131ed840e80e7ee8d09c0bed0bf5cb9"),
    ("riesz --depth 6 --grid 6561",
     "f5e8624ee9b16e4e4ea9bcc1566a05637e5417c6c6d7e68cdd69b196775647a1"),
    ("gram --scale 3 --digits 0,2 --jrange 2 --krange 5",
     "f3711d41f4ede759a9bb6e15f349b89cd95b76b0f9242706fdc69531e1e5718a"),
    ("table",
     "8c3c8bc36c4b121b0c93dc631c4cf98ad6a1d912dd53e8957628760364f651ae"),
    ("replimit --scale 3 --digits 0,2 --level 8 --range 10",
     "9fd4bdd7a3f9aad3746023d2abc87d8dbdf9b9cf0024508532f3c093119ed289"),
]


@pytest.mark.parametrize("request_line,digest", GOLDEN_STDOUT, ids=[r for r, _ in GOLDEN_STDOUT])
def test_stdout_matches_golden_digest(request_line, digest):
    code, out, err = run_cli(*request_line.split())
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_golden_digests_cover_every_subcommand():
    assert {r.split()[0] for r, _ in GOLDEN_STDOUT} == set(cli.COMMANDS)


# -- numpy, dataclasses and csv only where they are needed -----------------------

WATCHED = ("csv", "dataclasses", "numpy")

FRESH_RUN = """
import contextlib, hashlib, io, json, sys
import fractalmra, fractalmra.cli as cli
watched = sys.argv[1].split(",")
def loaded():
    return [name for name in watched if name in sys.modules]
results = [["import", None, None, loaded()]]
for line in sys.argv[2:]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(line.split())
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    results.append([line, code, digest, loaded()])
print(json.dumps(results))
"""


def fresh_run(*lines):
    """[request, exit code, stdout sha256, the WATCHED modules loaded] after
    importing the package and after each request, in a new interpreter with
    this one's warning and dev-mode flags."""
    src = str(Path(cli.__file__).resolve().parents[1])
    flags = [f"-W{w}" for w in sys.warnoptions] + (["-X", "dev"] if sys.flags.dev_mode else [])
    done = subprocess.run(
        [sys.executable, *flags, "-c", FRESH_RUN, ",".join(WATCHED), *lines],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0 and not done.stderr, done.stderr
    return [(*row[:3], tuple(row[3])) for row in json.loads(done.stdout)]


def test_exact_tier_runs_never_load_numpy():
    """Nor dataclasses or csv, which no request in the json format needs."""
    system = "--scale 3 --digits 0,2"
    lines = [
        f"{name} {system}"
        for name in ("dimension", "moments", "replimit", "cascade", "gram", "filters", "cycles")
    ]
    lines.append("filters --scale 4 --digits 0,1,3")  # p = 3: Q(sqrt3) detail filters
    assert fresh_run(*lines) == [("import", None, None, ())] + [
        (line, 0, hashlib.sha256(run_cli(*line.split())[1].encode()).hexdigest(), ())
        for line in lines
    ]


def test_first_numpy_import_mid_request_keeps_bytes():
    line, digest = next((r, d) for r, d in GOLDEN_STDOUT if r.startswith("onb-check"))
    assert fresh_run(line) == [("import", None, None, ()), (line, 0, digest, ("numpy",))]


def census_requests():
    """filters and spectrum on every digit system with N = 2..6, a small Gram
    section for N <= 5 and p <= 3, and five-step cascades under every kind of
    modifier for N <= 4: the lattice model on small systems."""
    for N in range(2, 7):
        for size in range(1, N + 1):
            for S in itertools.combinations(range(N), size):
                system = ["--scale", str(N), "--digits", ",".join(map(str, S))]
                yield ["filters", *system]
                yield ["spectrum", *system]
                if N <= 5 and size <= 3:
                    yield ["gram", *system, "--jrange", "1", "--krange", "2"]
                for modifier in ("none", "neg", "z1", "z3", "z-2") if N <= 4 else ():
                    yield ["cascade", *system, "--modifier", modifier, "--steps", "5"]


def test_census_digest():
    """One sha256 over argv, exit code, stdout and stderr of 412 requests."""
    digest, count = hashlib.sha256(), 0
    for argv in census_requests():
        digest.update(repr((argv, *run_cli(*argv))).encode())
        count += 1
    assert count == 412
    assert digest.hexdigest() == (
        "d6a1ed4df0e3eb33b80a35a986b7bde20cd297bae3673719715a880f530cc50b"
    )


# -- the JSON renderer: the bytes of json.dumps(sort_keys=True, indent=2) ------

def stdlib_dumps(obj):
    return json.dumps(obj, sort_keys=True, indent=2)


JSON_KEYS = st.one_of(
    st.sampled_from(["%", "%s", "%%s", "%(a)s", '"', "\\", "\x00", "\x1f\n\t", "√", "a\x00%s√"]),
    st.text(max_size=6),
)
JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([2 ** 64, -(2 ** 64) - 1, 3 ** 200]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 1e16, 5e-324]),
    st.text(max_size=8),
    JSON_KEYS,
)
JSON_TREES = st.recursive(
    JSON_LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(JSON_KEYS, children, max_size=5),
    ),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(JSON_TREES)
def test_dumps_matches_the_stdlib(obj):
    assert cli._dumps(obj) == stdlib_dumps(obj)


def nested(leaf, depth):
    for i in range(depth):
        leaf = [leaf] if i % 2 else {"%s": leaf, "n": i}
    return leaf


@pytest.mark.parametrize("obj", [
    {}, [], (), {"a": {}, "b": [], "c": ()}, [[], [[]], {}],
    "top %s leaf", 2 ** 70, float("nan"), None, True,
    {"%": {"%s": ["%d", "%%"]}, "\x00": "\x00"},
    nested({"deep": [1, 2.5, None]}, 60),
    {"√": -0.0, "k": [float("inf"), -float("inf"), 1e16, 5e-324]},
    [Counter(a=1), Counter(b=2)] * 4,  # a dict subclass that answers for missing keys
])
def test_dumps_edge_cases(obj):
    assert cli._dumps(obj) == stdlib_dumps(obj)


@pytest.mark.parametrize("obj", [
    {10: "a"}, {2.5: 0}, {True: 1}, {None: {}}, {"a": {1: 0}}, [{"k": 0}, {1: 0}],
])
def test_dumps_refuses_non_str_keys(obj):
    """No document has other keys; `json` would convert them, the renderer
    refuses them rather than carry that conversion."""
    with pytest.raises(TypeError, match="keys must be str"):
        cli._dumps(obj)


@pytest.mark.parametrize("obj", [{(1, 2): 0}, {1: 0, "a": 1}, [object()], {"k": {1, 2}}])
def test_dumps_refuses_what_the_stdlib_refuses(obj):
    with pytest.raises(TypeError):
        stdlib_dumps(obj)
    with pytest.raises(TypeError):
        cli._dumps(obj)


# Long lists of dicts that share their keys, one column varied at a time: the
# renderer writes each run of items of one shape from one item template.
VARIED_COLUMNS = {
    "null or dict": st.one_of(
        st.none(), st.fixed_dictionaries({"re": st.floats(), "exact": st.text(max_size=3)})
    ),
    "signed zeros and nan": st.sampled_from([0.0, -0.0, float("nan")]),
    "true, 1 and 1.0": st.sampled_from([True, 1, 1.0]),
    "lists, tuples, empty containers": st.one_of(
        st.lists(st.integers(), max_size=2),
        st.lists(st.integers(), max_size=2).map(tuple),
        st.just({}),
        st.just([]),
    ),
}


@st.composite
def long_tables(draw):
    """8 to 40 rows {"n", "re", "s": {"re", "exact"}, "v%"}; "v%" holds the
    varied column, or the rows vary in key order or by one extra key."""
    rows = [
        {"n": i, "re": draw(st.floats(allow_nan=False)),
         "s": {"re": draw(st.floats(-2, 2)), "exact": draw(st.sampled_from(["1/2", "√2"]))}}
        for i in range(draw(st.integers(8, 40)))
    ]
    variation = draw(st.sampled_from([*VARIED_COLUMNS, "key order", "extra key"]))
    if variation == "key order":
        for i in draw(st.sets(st.sampled_from(range(len(rows))), min_size=1)):
            rows[i] = dict(reversed(rows[i].items()))
    elif variation == "extra key":
        rows[draw(st.sampled_from(range(len(rows))))]["extra"] = draw(JSON_LEAVES)
    else:
        for row in rows:
            row["v%"] = draw(VARIED_COLUMNS[variation])
    return rows


@settings(max_examples=300, deadline=None)
@given(long_tables())
def test_dumps_long_lists_match_the_stdlib(rows):
    assert cli._dumps(rows) == stdlib_dumps(rows)
    doc = {"rows": rows, "tail": rows[-3:]}
    assert cli._dumps(doc) == stdlib_dumps(doc)


@settings(max_examples=100, deadline=None)
@given(long_tables(), st.sampled_from([1, 2.5, None, True, (1, 2)]), st.data())
def test_dumps_refuses_a_non_str_key_in_a_late_item(rows, key, data):
    late = data.draw(st.integers(len(rows) // 2, len(rows) - 1))
    rows[late][key] = 0
    with pytest.raises(TypeError, match="JSON keys must be str"):
        cli._dumps(rows)


# -- the cyclic garbage collector -----------------------------------------------

@pytest.mark.parametrize("name", sorted(SAMPLE_RUNS))
def test_request_leaves_no_cyclic_garbage(name):
    run_cli(*SAMPLE_RUNS[name])  # fills the caches a first request fills
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        code, _, err = run_cli(*SAMPLE_RUNS[name])
        assert code == 0, err
        assert gc.collect() == 0, gc.garbage[:10]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def raise_runtime_error(args):
    raise RuntimeError("handler failed")


# (argv, exit code or what main raises, whether a handler runs)
EXIT_PATHS = [
    (SAMPLE_RUNS["dimension"], 0, True),
    (("dimension", "--scale", "3", "--digits", "0,x"), 2, True),
    (("cascade", "--scale", "3", "--digits", "0,2", "--steps", "13"), 3, True),
    (("no-such-command",), 64, False),
    ((), 64, False),
    (("moments", "--scale", "3", "--digits", "0,2", "--range", "x"), SystemExit, False),
    (("moments", "--help"), SystemExit, False),
    (("riesz", "--depth", "2", "--grid", "4"), RuntimeError, True),
]


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("argv,outcome,handled", EXIT_PATHS, ids=[str(o) for _, o, _ in EXIT_PATHS])
def test_main_puts_back_the_collector_state(argv, outcome, handled, enabled, monkeypatch):
    """The collector is paused while a handler runs, and main leaves it as
    it found it on every exit path."""
    seen = []

    def spy(run):
        def handler(args):
            seen.append(gc.isenabled())
            return run(args)
        return handler

    for name, command in cli.COMMANDS.items():
        run = raise_runtime_error if name == "riesz" else command.run
        monkeypatch.setitem(cli.COMMANDS, name, command._replace(run=spy(run)))
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if isinstance(outcome, int):
            assert run_cli(*argv)[0] == outcome
        else:
            with pytest.raises(outcome):
                run_cli(*argv)
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == ([False] if handled else [])


def test_parser_is_built_once_and_keeps_no_state():
    assert cli.build_parser() is cli.build_parser()
    code, out, _ = run_cli("moments", "--scale", "3", "--digits", "0,2", "--range", "5")
    assert code == 0 and json.loads(out)["range"] == 5
    code, out, _ = run_cli("moments", "--scale", "3", "--digits", "0,2")
    assert code == 0 and json.loads(out)["range"] == cli.DEFAULT_MOMENT_RANGE == 256
    helps = []
    for _ in range(2):
        out = io.StringIO()
        with redirect_stdout(out), pytest.raises(SystemExit) as exit_info:
            cli.main(["moments", "--help"])
        assert exit_info.value.code == 0
        helps.append(out.getvalue())
    assert helps[0] == helps[1] and "--range" in helps[0]
