import gc
import importlib.util
import io
import os
import subprocess
import sys
import time
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siggb.cli import (
    EXIT_CERTIFICATE,
    EXIT_ENGINE,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_PARSE,
    build_parser,
    parse_ideal,
    run,
)
from siggb.polyring import Field, ParseError, QQ

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA = os.path.join(os.path.dirname(__file__), "data")
GOLDEN_FILE = os.path.join(DATA, "golden.ideal")

GOLDEN_TEXT = """\
# comment line
vars: x, y, z, t
order: drl
field: q
y*z^3 - x^2*t^2
x*z^2 - y^2*t
x^2*y - z^2*t
"""


def cli(*argv):
    args = build_parser().parse_args(list(argv))
    out, err = io.StringIO(), io.StringIO()
    code = run(args, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def cli_stdin(text):
    """``python -m siggb.cli -`` in a fresh process, with text on stdin."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run([sys.executable, "-m", "siggb.cli", "-"], input=text,
                          capture_output=True, text=True, env=env, timeout=120)


# -- parse_ideal ------------------------------------------------------------------

def test_parse_ideal_golden():
    spec = parse_ideal(GOLDEN_TEXT)
    assert spec.variables == ("x", "y", "z", "t")
    assert spec.ring.order.kind == "degrevlex"
    assert spec.ring.field == QQ
    assert len(spec.generators) == 3
    assert len(spec.generators[0].terms) == 2


def test_parse_ideal_gf():
    spec = parse_ideal("vars: a, b\nfield: gf 32003\na^2 - b\nb^3 - 1\n")
    assert spec.ring.field == Field(32003)


def test_parse_ideal_errors():
    with pytest.raises(ParseError):
        parse_ideal("vars: x\n")  # no generators
    with pytest.raises(ParseError):
        parse_ideal("order: drl\nx\n")  # missing vars
    with pytest.raises(ParseError):
        parse_ideal("vars: x\nvars: y\nx\n")  # duplicate header
    with pytest.raises(ParseError):
        parse_ideal("vars: x\norder: weird\nx\n")
    with pytest.raises(ParseError):
        parse_ideal("vars: x\nfield: gf 10\nx\n")  # not prime
    with pytest.raises(ParseError):
        parse_ideal("vars: x\nfield: gf 0\nx\n")  # not prime; Field() is ℚ, not Field(0)
    with pytest.raises(ParseError):
        parse_ideal("vars: x\n0\n")  # zero generator
    err = None
    try:
        parse_ideal("vars: x\nx + y\n")
    except ParseError as e:
        err = e
    assert err is not None and err.line == 2


def test_run_large_prime_field(tmp_path):
    # 2^61 - 1 is decided by Miller-Rabin at once; trial division to its
    # square root would not end
    path = tmp_path / "large.ideal"
    path.write_text(GOLDEN_TEXT.replace("field: q", "field: gf 2305843009213693951"))
    t0 = time.perf_counter()
    assert parse_ideal(path.read_text()).ring.field == Field(2**61 - 1)
    code, out, _ = cli(str(path), "--engine", "both")
    assert time.perf_counter() - t0 < 1.0
    assert code == EXIT_OK and out.startswith("basis:")


def test_run_prime_beyond_the_decided_range():
    # 2^89 - 1 is prime, but above 3.3 * 10^24 Miller-Rabin with fixed bases
    # is no longer exact: one parse error line
    text = f"vars: x\nfield: gf {2**89 - 1}\nx^2 + 1\n"
    proc = cli_stdin(text)
    assert proc.returncode == EXIT_PARSE
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and "Traceback" not in proc.stderr
    assert lines[0].startswith("parse error: bad prime ") and lines[0].endswith(" at line 2")


# header lines, well and badly formed; "" leaves the header out
_VARS = st.sampled_from(["vars: x, y", "vars: x y a", "VARS: x,y", "vars:", "vars: x, x",
                         "vars: 1x, y", "vars: x^, *"])
_ORDER = st.sampled_from(["", "order: drl", "order: lex", "order: degrevlex", "order: weird",
                          "order:"])
_FIELD = st.one_of(
    st.sampled_from(["", "field: q", "field: gf 2", "field: gf 3", "field: gf 5", "field: gf 7",
                     "field: gf 32003", "field: gf", "field: gf x", "field: gf 7 11",
                     "field: r"]),
    st.integers(-5, 10**6).map(lambda p: f"field: gf {p}"),
    # up to 10^30, past the bound below which primality is decided
    st.integers(10**6, 10**30).map(lambda p: f"field: gf {p}"),
)
# token soup: names, digits, operators, fractions and stray characters
_SOUP = st.lists(
    st.sampled_from([
        "x", "y", "z", "a", "xy", "0", "1", "7", "14", "123", "^", "*", "/", "+", "-",
        "1/0", "3/7", "1/14", " ", "(", ")", "!", ".", ",", ":", "#", "\t", "é",
    ]),
    max_size=12,
).map("".join)
# the same pieces as well-formed terms, so that texts reach the coefficients
_TERM = st.tuples(
    st.sampled_from(["", "6", "0", "1/0", "1/2", "1/3", "2/5", "3/7", "7/14", "1/14"]),
    st.sampled_from(["", "*"]),
    st.one_of(
        st.sampled_from(["1", "x", "y^2", "x*y", "a^3", "z"]),
        # exponents on both sides of 2^31, the limit of a packed field
        st.integers(2**31 - 2, 2**33).map(lambda k: f"x^{k}"),
    ),
).map("".join)
_POLY = st.lists(_TERM, min_size=1, max_size=3).map(" - ".join)
_LINE = st.one_of(_VARS, _ORDER, _FIELD, _POLY, _SOUP, st.text(max_size=8))
_TEXT = st.one_of(
    st.lists(_LINE, max_size=8),
    # well-formed headers in any order, then generators
    st.tuples(
        st.sampled_from(["vars: x, y", "vars: x y a", "VARS: x,y"]),
        st.sampled_from(["", "order: drl", "order: lex"]),
        st.sampled_from(["", "field: q", "field: gf 2", "field: gf 3", "field: gf 5",
                         "field: gf 7", "field: gf 32003"]),
    ).flatmap(st.permutations).flatmap(
        lambda headers: st.lists(st.one_of(_POLY, _SOUP), min_size=1, max_size=3).map(
            lambda gens: headers + gens)),
).map("\n".join)


@given(_TEXT)
@settings(max_examples=500, deadline=None)
def test_parse_ideal_raises_only_parse_error(text):
    try:
        parse_ideal(text)
    except ParseError:
        pass


# -- runs -------------------------------------------------------------------------

def test_run_both_engines_golden(golden_expected):
    code, out, err = cli(GOLDEN_FILE, "--engine", "both")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "basis:"
    assert lines[1:] == [str(p) for p in golden_expected]


def test_run_trace_contains_pinned_rejections():
    code, out, _ = cli(GOLDEN_FILE, "--engine", "f5", "--trace-criteria")
    assert code == EXIT_OK
    assert "REJECT rewrite pair=(1,3) comp=i u=x^2 sig=e1 rule=6" in out
    assert "REJECT rewrite pair=(6,2) comp=i u=x*z sig=x*e1 rule=7" in out
    assert "REJECT rewrite pair=(8,4) comp=i u=x sig=x^2*z*e1 rule=9" in out
    assert "REJECT f5crit pair=(6,1) comp=i u=z^2 sig=x*e1 witness=2" in out


def test_run_stats():
    code, out, _ = cli(GOLDEN_FILE, "--engine", "f5", "--stats")
    assert code == EXIT_OK
    assert "pairs created: 45" in out
    assert "reduced basis size: 8" in out


def test_run_certify():
    code, out, _ = cli(GOLDEN_FILE, "--engine", "f5", "--certify")
    assert code == EXIT_OK
    assert "certified rejections: 38" in out
    assert "verdict: valid" in out


def test_run_improved_scan():
    code, out, _ = cli(GOLDEN_FILE, "--engine", "f5", "--improved-scan")
    assert code == EXIT_OK
    assert "improved-criterion part(b) firings: 0" in out


def test_run_parse_error(tmp_path):
    bad = tmp_path / "bad.ideal"
    bad.write_text("vars: x\nx + unknown\n")
    code, _, err = cli(str(bad))
    assert code == EXIT_PARSE
    assert "parse error" in err


@pytest.mark.parametrize("generator, message", [
    ("x^2 + 1/14*y", "denominator is divisible by 7"),
    ("x^2 + " + "9" * 5000 + "*y", "number too long"),
])
def test_run_coefficient_outside_the_field(generator, message):
    # 1/14 has no image in GF(7), and a number past Python's digit limit
    # cannot be read: each is a one-line parse error, not a traceback
    text = f"vars: x, y\nfield: gf 7\n{generator}\n"
    proc = cli_stdin(text)
    assert proc.returncode == EXIT_PARSE
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and "Traceback" not in proc.stderr
    assert lines[0].startswith(f"parse error: {message} at line 3, column ")


@pytest.mark.parametrize("order, generator, column", [
    ("drl", "x^2147483648 + y", 1),
    ("drl", "y - 3*x^2147483647*y", 5),  # its degree, 2^31, is the field
    ("lex", "y + x^4294967296", 5),
])
def test_run_exponent_past_a_packed_field(order, generator, column):
    # a packed monomial holds an exponent, under degrevlex a degree, of at
    # most 2^31 - 1; past that the term is a one-line parse error
    proc = cli_stdin(f"vars: x, y\norder: {order}\n{generator}\n")
    assert proc.returncode == EXIT_PARSE
    assert proc.stderr == f"parse error: exponent too large at line 3, column {column}\n"


@pytest.mark.parametrize("names, bad", [
    ("x*y", "x*y"),
    ("2, y", "2"),
    ("x, y^2", "y^2"),
    ("x, 1a", "1a"),
    ("x, y-z", "y-z"),
])
def test_run_refuses_a_variable_name_the_grammar_cannot_spell(tmp_path, names, bad):
    # the grammar reads digits as a number and * ^ / + - as operators, so a
    # name that is not an identifier could never be written in a generator
    path = tmp_path / "bad-vars.ideal"
    path.write_text(f"vars: {names}\ny\n")
    code, out, err = cli(str(path))
    assert code == EXIT_PARSE and out == ""
    assert err == f"parse error: bad variable name {bad!r} at line 1\n"


def test_run_file_not_utf8(tmp_path):
    # bytes that are not UTF-8 are one parse error line, not a traceback
    bad = tmp_path / "latin.ideal"
    bad.write_bytes(b"vars: x\n\xff\xfe x\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-m", "siggb.cli", str(bad)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == EXIT_PARSE
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and "Traceback" not in proc.stderr
    assert lines[0].startswith("parse error: 'utf-8' codec can't decode")


@pytest.mark.parametrize("content", [GOLDEN_TEXT.encode(), b"vars: x\n\xff\xfe x\n"],
                         ids=["golden", "not-utf8"])
def test_run_closes_the_ideal_file(tmp_path, content):
    # an ideal file is closed on every path, so no ResourceWarning is left
    # for the garbage collector to report
    path = tmp_path / "in.ideal"
    path.write_bytes(content)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cli(str(path))
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_run_missing_file():
    code, _, err = cli("/nonexistent/nope.ideal")
    assert code == EXIT_PARSE


def test_run_random_smoke():
    code, out, _ = cli("--random", "2,2,3", "--seed", "5", "--engine", "both", "--stats")
    assert code == EXIT_OK
    assert "basis:" in out


def test_run_certify_requires_f5():
    code, _, err = cli(GOLDEN_FILE, "--engine", "gm", "--certify")
    assert code == 2  # engine error, distinct from parse errors


@pytest.mark.parametrize("flag", ["--certify", "--improved-scan"])
def test_run_f5_only_flag_rejected_before_work(flag):
    code, out, err = cli(GOLDEN_FILE, "--engine", "gm", flag)
    assert code == EXIT_ENGINE
    assert out == ""
    assert err == f"error: {flag} requires the f5 engine\n"


@pytest.mark.parametrize("spec", ["0,2,3", "2,2,0", "2,-1,3"])
def test_run_random_rejects_sizes_below_one(spec):
    code, out, err = cli("--random", spec)
    assert code == EXIT_PARSE
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: --random")


def test_golden_trace_byte_identical(monkeypatch, tmp_path):
    """tests/data/golden.trace is the output of scripts/golden_trace.py, the
    byte-level contract for the engine's behaviour; the script finds the
    ideal from its own location, so it is run from another directory."""
    spec = importlib.util.spec_from_file_location(
        "golden_trace", os.path.join(ROOT, "scripts", "golden_trace.py"))
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.chdir(tmp_path)
    out, err = io.StringIO(), io.StringIO()
    assert script.main(out=out, err=err) == EXIT_OK
    assert err.getvalue() == ""
    with open(os.path.join(DATA, "golden.trace"), "rb") as fh:
        assert out.getvalue().encode("utf-8") == fh.read()


def test_run_gm_engine(golden_expected):
    code, out, _ = cli(GOLDEN_FILE, "--engine", "gm")
    assert code == EXIT_OK
    assert out.splitlines()[1:] == [str(p) for p in golden_expected]


def test_basis_output_sorted_ascending(golden_ring):
    code, out, _ = cli(GOLDEN_FILE, "--engine", "f5")
    polys = [golden_ring.parse(line) for line in out.splitlines()[1:]]
    keys = [golden_ring.key(p.ht) for p in polys]
    assert keys == sorted(keys)


def test_stdin_input(monkeypatch):
    import sys

    monkeypatch.setattr(sys, "stdin", io.StringIO(GOLDEN_TEXT))
    code, out, _ = cli("-", "--engine", "f5")
    assert code == EXIT_OK and "basis:" in out


def test_exit_codes_distinct():
    assert len({EXIT_OK, EXIT_PARSE, EXIT_MISMATCH, EXIT_CERTIFICATE, 2}) == 5


@pytest.mark.parametrize("engine", ["f5", "gm", "both"])
def test_autoreduction_failure_is_engine_error(monkeypatch, engine):
    import siggb.baseline
    import siggb.f5engine

    def no_fixpoint(polys):
        raise RuntimeError("autoreduction did not stabilize")

    monkeypatch.setattr(siggb.f5engine, "reduced_basis", no_fixpoint)
    monkeypatch.setattr(siggb.baseline, "reduced_basis", no_fixpoint)
    code, out, err = cli(GOLDEN_FILE, "--engine", engine)
    assert code == EXIT_ENGINE
    assert out == ""
    assert err == "engine error: autoreduction did not stabilize\n"
