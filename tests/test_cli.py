"""Command-line driver: subcommands, exit codes, deterministic JSON
output, and the schema-checked payload io helpers.
"""

import copy
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import qortho.cli as cli
from qortho.cli import SchemaError, io, run
from qortho.itensor import (IndexGeometry, SparseTensor4, tensor_equal,
                            tensor_to_json)
from qortho.presentations import (IncompleteRules, NotConfluent,
                                  TopDegreeNotOneDimensional,
                                  build_presentation, element_from_json,
                                  element_to_json, quantum_determinant,
                                  word_element)
from qortho.report import Report
from qortho.rmatrix import build_R, build_bundle
from qortho.envelope import functional_to_json, word_functional
from qortho.scalars import PoleAtOne, scalar_invert, specialize


def test_verify_rmatrix_exit_zero(capsys):
    assert run(["verify", "--suite", "rmatrix", "--n", "4"]) == 0
    out = capsys.readouterr().out
    assert "overall: PASS" in out and "summary:" in out


def test_verify_json_payload(tmp_path):
    out = tmp_path / "v.json"
    assert run(["verify", "--suite", "embedding", "--n", "3",
                "--format", "json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["ok"] is True and doc["suite"] == "embedding"
    assert doc["command"] == "verify" and doc["seed"] == 0
    assert all(rep["ok"] for rep in doc["reports"])


def test_json_output_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert run(["verify", "--suite", "rmatrix", "--n", "3",
                    "--format", "json", "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_dump_writes_json_next_to_text(tmp_path, capsys):
    dump = tmp_path / "d.json"
    assert run(["det", "--n", "3", "--dump", str(dump)]) == 0
    text = capsys.readouterr().out
    assert text.startswith("(1) T[1,1] T[2,2] T[3,3]")
    doc = json.loads(dump.read_text())
    assert doc["command"] == "det" and doc["n"] == 3


def test_det_json_round_trips(tmp_path):
    out = tmp_path / "det.json"
    assert run(["det", "--n", "3", "--format", "json",
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    qd = quantum_determinant(3)
    assert element_from_json(qd.alphabet, qd.ps, doc["element"]) == qd


def _child_peak_mb(code: str) -> float:
    """The peak RSS, in MB, of a fresh interpreter that runs code with
    this checkout's qortho importable.  It is read from VmHWM, the
    high-water mark of the child's own memory: ru_maxrss would also keep
    the high-water mark of this test process, which the child inherits
    across exec."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-c", code + "\nimport re\nprint(re.search("
         "r'VmHWM:\\s+(\\d+) kB', open('/proc/self/status').read())[1])"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, check=True, timeout=300)
    return int(done.stdout.split()[-1]) / 1024


needs_proc = pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                                reason="reads VmHWM from /proc")


@needs_proc
def test_det_json_is_streamed_in_bounded_memory(tmp_path):
    """det --n 7 writes 5.9 MB of JSON.  Streamed to the file, the peak
    stays near the engine's own (37 MB on a 2-vCPU Linux VM); building
    the whole string first took it to 78 MB."""
    out = tmp_path / "det7.json"
    peak = _child_peak_mb(
        "from qortho.cli import run\n"
        "assert run(['det', '--n', '7', '--format', 'json', '--out', %r])"
        " == 0" % str(out))
    assert json.loads(out.read_text())["n"] == 7
    assert peak < 60


@needs_proc
def test_det_terms_are_encoded_as_they_are_made(tmp_path):
    """The 9101 term records of det --n 7 are made one at a time while
    the encoder writes them: the peak stays within 32 MB, next to 26 MB
    for quantum_determinant(7) alone on a 2-vCPU Linux VM, where the list
    of every record took it to 40 MB."""
    out = tmp_path / "det7.json"
    peak = _child_peak_mb(
        "from qortho.cli import run\n"
        "assert run(['det', '--n', '7', '--format', 'json', '--out', %r])"
        " == 0" % str(out))
    assert len(json.loads(out.read_text())["element"]) == 9101
    assert peak < 32


def test_det_writes_the_same_terms_to_out_and_dump(tmp_path):
    out, dump = tmp_path / "out.json", tmp_path / "dump.json"
    assert run(["det", "--n", "3", "--format", "json", "--out", str(out),
                "--dump", str(dump)]) == 0
    doc = json.loads(out.read_text())
    assert out.read_text() == dump.read_text()
    qd = quantum_determinant(3)
    assert doc["element"] == element_to_json(qd)


@needs_proc
def test_qlie_rows_are_read_in_bounded_memory():
    """The 392 q-Lie rows of the r = 1 calculus at N = 4 are read from
    the values of their 41 factors (21 MB on a 2-vCPU Linux VM); walking
    their multiplied-out four-letter words took 40 MB."""
    peak = _child_peak_mb(
        "from qortho.calculus import lie_rows\n"
        "rows = lie_rows('r1', 4, 2)\n"
        "assert len(rows) == 392 and all(r['status'] for r in rows)")
    assert peak < 30


def test_reduce_text(capsys):
    assert run(["reduce", "--n", "3", "--algebra", "plane",
                "--word", "x2 x1"]) == 0
    assert capsys.readouterr().out == "x2 x1 -> (s^-2) x1 x2\n"
    assert run(["reduce", "--n", "3", "--word", "T[1,1] x1"]) == 0
    assert capsys.readouterr().out == \
        "T[1,1] x1 -> (s^4*g12^-1) x1 T[1,1]\n"


def test_pair_text(capsys):
    assert run(["pair", "--n", "3", "--functional", "L-[1,1]",
                "--word", "u"]) == 0
    assert capsys.readouterr().out == "s^-2\n"
    assert run(["pair", "--n", "3", "--functional", "eps",
                "--word", ""]) == 0
    assert capsys.readouterr().out == "1\n"


def test_lie_payload(tmp_path):
    out = tmp_path / "lie.json"
    assert run(["lie", "--n", "3", "--kind", "projected",
                "--format", "json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["labels"] == ["omega[1]", "omega[2]", "omega[3]",
                             "omega[o]", "omega[*]"]
    assert doc["closed"] is True and doc["ok"] is True
    assert len(doc["structure_constants"]) == 11
    assert all(rel["status"] for rel in doc["relations"])


@pytest.mark.parametrize("kind,first,lines,constants", [
    ("projected", "tangent basis: omega[1] omega[2] omega[3] omega[o] "
     "omega[*]", 19, 11),
    ("r1", "tangent basis: Omega[2,3] Omega[3,2] Omega[3,3] Omega[*,1] "
     "Omega[*,2] Omega[*,3] Omega[*,*]", 156, 24)])
def test_lie_text(capsys, kind, first, lines, constants):
    """The text report lists the basis, one line per relation row and
    the bracket closure."""
    assert run(["lie", "--n", "3", "--kind", kind, "--format", "text"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == lines and out[0] == first
    assert all(line.startswith("[pass] ") for line in out[1:-1])
    assert out[-1] == ("bracket closure: yes, %d nonzero structure "
                       "constants" % constants)


def test_lie_reports_a_bracket_that_leaves_the_span(monkeypatch, capsys,
                                                    tmp_path):
    """A closure failure fails the run: exit 1, closure "no" in the text,
    and no structure constants in the JSON payload."""
    def leaves(basis):
        raise ValueError("bracket leaves the tangent span")

    monkeypatch.setattr(cli, "structure_constants", leaves)
    dump = tmp_path / "lie.json"
    assert run(["lie", "--n", "3", "--kind", "projected",
                "--dump", str(dump)]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == \
        "bracket closure: no, 0 nonzero structure constants"
    doc = json.loads(dump.read_text())
    assert doc["closed"] is False and doc["ok"] is False
    assert doc["structure_constants"] == []
    assert all(rel["status"] for rel in doc["relations"])


def test_build_r_spec_values(tmp_path):
    out = tmp_path / "r.json"
    assert run(["build-r", "--n", "3", "--spec", "s=2",
                "--format", "json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    R = build_R(IndexGeometry(3))
    got = {tuple(rec["idx"]): Fraction(rec["value"]) for rec in doc["entries"]}
    want = {k: specialize(v, {"s": Fraction(2)}) for k, v in R.entries.items()}
    assert got == {k: v for k, v in want.items() if v}


def test_usage_errors_exit_two(capsys):
    assert run(["verify", "--suite", "rmatrix", "--n", "2"]) == 2
    assert run(["frobnicate", "--n", "3"]) == 2
    assert run(["reduce", "--n", "3", "--algebra", "plane",
                "--word", "u x1"]) == 2
    assert run(["build-r", "--n", "3", "--series", "D"]) == 2
    assert run(["build-r", "--n", "3", "--spec", "g99=1"]) == 2
    assert run(["verify", "--suite", "embedding", "--n", "3",
                "--series", "D", "--spec", "s=2"]) == 2
    assert run(["det", "--n", "3", "--spec", "zz=1"]) == 2
    # only verify and lie take --degree
    assert run(["det", "--n", "3", "--degree", "5"]) == 2
    assert run(["build-r", "--n", "3", "--degree", "7"]) == 2
    assert run(["reduce", "--n", "3", "--word", "u", "--degree", "9"]) == 2
    assert run(["pair", "--n", "3", "--functional", "L-[1,1]",
                "--word", "u", "--degree", "4"]) == 2
    assert run(["pair", "--n", "3", "--functional", "L+[9,1]",
                "--word", "u"]) == 2
    for tag in ["L+[1,1)", "L+[1,1,1]", "L+[a,1]"]:
        assert run(["pair", "--n", "3", "--functional", tag,
                    "--word", "u"]) == 2
        assert "unknown functional generator tag" in capsys.readouterr().err
    capsys.readouterr()
    for argv in (["verify", "--suite", "rmatrix", "--n", "3"],
                 ["lie", "--n", "3"]):
        assert run(argv + ["--degree", "0"]) == 2
        assert capsys.readouterr().err == \
            "error: --degree must be at least 1\n"
    assert run(["build-r", "--n", "3", "--spec", "s"]) == 2
    assert capsys.readouterr().err == \
        "error: --spec expects k=v pairs, got 's'\n"
    # a repeated name is refused, not resolved by the last value
    assert run(["build-r", "--n", "3", "--spec", "s=2, s=3"]) == 2
    assert capsys.readouterr() == ("", "error: --spec names 's' twice\n")
    # an empty --spec is refused, not read as no --spec
    assert run(["build-r", "--n", "3", "--spec", ""]) == 2
    assert capsys.readouterr() == (
        "", "error: --spec expects k=v pairs, got ''\n")


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "all"], ["det"], ["build-r"]],
    ids=["verify", "det", "build-r"])
def test_too_large_n_exits_two_before_any_handler(monkeypatch, capsys, argv):
    """--n above 62 is refused before a handler builds anything: a
    geometry of dimension n + 2 would pass the bound 64 that
    tensor_from_json applies, and ParamSpace(10**9) alone would list
    about 10**17 deformation pairs.  62 itself reaches the handler."""
    reached = []
    for name in ("_cmd_verify", "_cmd_det", "_cmd_build_r"):
        monkeypatch.setattr(cli, name, lambda args: reached.append(args.n)
                            or 0)
    for n in ("63", "1000000000"):
        assert run(argv + ["--n", n]) == 2
        assert capsys.readouterr().err == "error: --n must be at most 62\n"
    assert reached == []
    assert run(argv + ["--n", "62"]) == 0
    assert reached == [62]


@pytest.mark.parametrize("argv", [
    ["det", "--n", "3"], ["verify", "--suite", "embedding", "--n", "3"]],
    ids=["det", "verify"])
@pytest.mark.parametrize("option", ["--out", "--dump"])
def test_an_unwritable_output_path_exits_two(tmp_path, capsys, argv,
                                             option):
    """An --out or --dump path in a missing directory, or naming a
    directory, ends the run with exit code 2 and one error line, not a
    traceback and not exit code 1, which means a failing check."""
    for path in (tmp_path / "missing" / "x.json", tmp_path):
        assert run(argv + [option, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write %s: " % path)
        assert err.count("\n") == 1


def test_envelope_suite_passes_degree_to_every_bounded_report(monkeypatch):
    seen = []

    def recorder(name):
        def report(N, D=None):
            seen.append((name, N, D))
            return Report("stub " + name)
        return report

    monkeypatch.setattr(cli, "verify_envelope_suite", recorder("relations"))
    monkeypatch.setattr(cli, "verify_parameter_collapse", recorder("collapse"))
    monkeypatch.setattr(cli, "verify_pairing_axioms",
                        lambda N: Report("stub pairing"))
    assert run(["verify", "--suite", "envelope", "--n", "4",
                "--degree", "1"]) == 0
    assert seen == [("relations", 4, 1), ("collapse", 4, 1)]


def test_failing_suite_exits_one(monkeypatch, capsys):
    def broken(cfg):
        rep = Report("stub suite")
        rep.add("always fails", False, "planted")
        return [rep]

    monkeypatch.setattr(cli, "_SUITES", [("rmatrix", broken)])
    assert run(["verify", "--suite", "rmatrix", "--n", "3"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] always fails" in out


def test_presentation_suite_names_the_first_wrong_degree(monkeypatch,
                                                          capsys):
    orig = cli.hilbert_dimension
    monkeypatch.setattr(cli, "hilbert_dimension",
                        lambda p, rs, d, letters=None:
                        orig(p, rs, d, letters=letters) + (d >= 2))
    assert run(["verify", "--suite", "presentation", "--n", "3"]) == 1
    assert ("[FAIL] coordinate monomial counts match the commutative table "
            "-- degree 2") in capsys.readouterr().out


def test_scalar_domain_error_exits_three(monkeypatch, capsys):
    def poleful(cfg):
        raise PoleAtOne("denominator vanishes at r = 1")

    monkeypatch.setattr(cli, "_SUITES", [("rmatrix", poleful)])
    assert run(["verify", "--suite", "rmatrix", "--n", "3"]) == 3
    assert "exact arithmetic left its domain" in capsys.readouterr().err


@pytest.mark.parametrize("error", [NotConfluent, TopDegreeNotOneDimensional,
                                   IncompleteRules])
def test_presentation_error_exits_three(monkeypatch, capsys, error):
    def refused(n):
        raise error("exterior(3) says no")

    monkeypatch.setattr(cli, "quantum_determinant", refused)
    assert run(["det", "--n", "3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("presentation precondition failed: exterior(3) "
                            "says no\n")


# --- payload io --------------------------------------------------------------

def test_io_tensor_round_trip(tmp_path):
    g = IndexGeometry(3)
    ps = g.params
    X = SparseTensor4(g, {(1, 2, 2, 1): ps.s_pow(2), (3, 1, 1, 3): ps.one})
    path = tmp_path / "t.json"
    io("save", str(path), "tensor", X)
    Y, notes = io("load", str(path), "tensor")
    ok, _ = tensor_equal(X, Y)
    assert ok and notes == []
    # byte-identical when saved again
    path2 = tmp_path / "t2.json"
    io("save", str(path2), "tensor", Y)
    assert path.read_bytes() == path2.read_bytes()


def test_io_tensor_reorders_with_note(tmp_path):
    g = IndexGeometry(3)
    ps = g.params
    X = SparseTensor4(g, {(1, 2, 2, 1): ps.s_pow(2), (3, 1, 1, 3): ps.one})
    path = tmp_path / "t.json"
    io("save", str(path), "tensor", X)
    doc = json.loads(path.read_text())
    doc["entries"].reverse()
    path.write_text(json.dumps(doc))
    Y, notes = io("load", str(path), "tensor")
    ok, _ = tensor_equal(X, Y)
    assert ok
    assert notes == ["entry list was not in canonical order; re-sorted"]


def test_io_tensor_schema_pointers(tmp_path):
    g = IndexGeometry(3)
    ps = g.params
    X = SparseTensor4(g, {(1, 2, 2, 1): ps.s_pow(2)})
    path = tmp_path / "t.json"
    io("save", str(path), "tensor", X)
    doc = json.loads(path.read_text())

    bad = dict(doc, vars=["s", "q"])
    path.write_text(json.dumps(bad))
    with pytest.raises(SchemaError) as err:
        io("load", str(path), "tensor")
    assert err.value.pointer == "/vars"

    bad = json.loads(json.dumps(doc))
    bad["entries"][0]["idx"] = [1, 2, 2]
    path.write_text(json.dumps(bad))
    with pytest.raises(SchemaError) as err:
        io("load", str(path), "tensor")
    assert err.value.pointer == "/entries/0/idx"


def test_io_element_and_functional(tmp_path):
    p = build_presentation("iso", 3)
    A, ps = p.alphabet, p.params
    e = word_element(A, ps, A.word("x1", "u"), ps.s_pow(2))
    path = tmp_path / "e.json"
    io("save", str(path), "element", e)
    back, notes = io("load", str(path), "element", context=(A, ps))
    assert back == e and notes == []

    bundle = build_bundle(IndexGeometry(5, embedded=True))
    f = word_functional(bundle, ((1, 2, 2), (-1, 3, 3)))
    fpath = tmp_path / "f.json"
    io("save", str(fpath), "functional", f)
    fback, fnotes = io("load", str(fpath), "functional", context=bundle)
    assert fback == f and fnotes == []


def test_io_element_unknown_symbol(tmp_path):
    p = build_presentation("iso", 3)
    A, ps = p.alphabet, p.params
    e = word_element(A, ps, A.word("x1"))
    path = tmp_path / "e.json"
    io("save", str(path), "element", e)
    doc = json.loads(path.read_text())
    doc[0]["word"] = ["x9"]
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError) as err:
        io("load", str(path), "element", context=(A, ps))
    assert err.value.pointer == "/0/word/0"


# --- one parser per input ---------------------------------------------------

def _tensor_doc(tmp_path):
    ps = IndexGeometry(3).params
    X = SparseTensor4(IndexGeometry(3), {(1, 2, 2, 1): ps.s_pow(2)})
    path = tmp_path / "t.json"
    io("save", str(path), "tensor", X)
    return json.loads(path.read_text())


def _pointer_of(tmp_path, kind, doc, context=None):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError) as err:
        io("load", str(path), kind, context=context)
    return err.value.pointer


@pytest.mark.parametrize("edit, pointer", [
    (lambda v: v["num"][0].update(exponents=[2.7]), "/num/0/exponents/0"),
    (lambda v: v["num"][0].update(exponents=[99999]), "/num/0/exponents/0"),
    (lambda v: v["num"][0].update(coeff="1/0"), "/num/0/coeff"),
    # only the form str(Fraction) writes: no decimal exponent to expand
    (lambda v: v["num"][0].update(coeff="1e999999999"), "/num/0/coeff"),
    (lambda v: v.update(den=[]), "/den"),
])
def test_io_scalar_schema_pointers(tmp_path, edit, pointer):
    doc = _tensor_doc(tmp_path)
    edit(doc["entries"][0]["value"])
    assert _pointer_of(tmp_path, "tensor", doc) == \
        "/entries/0/value" + pointer


@pytest.mark.parametrize("edit, pointer", [
    (lambda d: d["entries"][0].update(idx=[True, 2, 2, True]),
     "/entries/0/idx/0"),
    (lambda d: d["entries"].append(d["entries"][0]), "/entries/1/idx"),
    # a dimension is checked before its parameter space is built
    (lambda d: d.update(dim=10 ** 6), "/dim"),
])
def test_io_tensor_header_and_index_pointers(tmp_path, edit, pointer):
    doc = _tensor_doc(tmp_path)
    edit(doc)
    assert _pointer_of(tmp_path, "tensor", doc) == pointer


def test_io_functional_index_range(tmp_path):
    bundle = build_bundle(IndexGeometry(5, embedded=True))
    path = tmp_path / "f.json"
    io("save", str(path), "functional",
       word_functional(bundle, ((1, 2, 2),)))
    doc = json.loads(path.read_text())
    doc[0]["word"] = ["L+[9,9]", "L-[0,1]"]
    assert _pointer_of(tmp_path, "functional", doc, bundle) == "/0/word/0"


@pytest.mark.parametrize("kind", ["element", "functional"])
def test_io_refuses_a_denominator_of_high_s_degree(tmp_path, kind):
    # the payload kinds of reduce (algebra elements) and pair (functional
    # combinations); 1 + s^1000 would cost the cyclotomic factorization
    # seconds, so the scalar parser refuses it at once
    doc, context, _ = FUZZ[kind]
    doc = copy.deepcopy(doc)
    nvars = len(doc[0]["coeff"]["num"][0]["exponents"])
    doc[0]["coeff"]["den"] = [
        {"coeff": "1", "exponents": [0] * nvars},
        {"coeff": "1", "exponents": [1000] + [0] * (nvars - 1)}]
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    with pytest.raises(SchemaError) as err:
        io("load", str(path), kind, context=context)
    assert time.perf_counter() - start < 0.5
    assert err.value.pointer == "/0/coeff/den"
    assert str(err.value) == ("denominator of s-degree 1000, above the "
                              "bound 128 at '/0/coeff/den'")


def test_pair_absorbs_eps_anywhere(capsys):
    for functional in ["eps L-[1,1]", "L-[1,1] eps", "L-[1,1]"]:
        assert run(["pair", "--n", "3", "--functional", functional,
                    "--word", "u"]) == 0
        assert capsys.readouterr().out == "s^-2\n"


def test_build_r_spec_point_errors_exit_two(capsys):
    for spec in ["s=0", "g99=1", "s=x"]:
        assert run(["build-r", "--n", "3", "--spec", spec]) == 2
    # iso(4) has g12 as well as s
    assert run(["build-r", "--n", "4", "--spec", "s=2"]) == 2
    assert "misses variables ['g12']" in capsys.readouterr().err


# Mutations of valid payloads: io("load") returns an object or raises
# SchemaError, nothing else.  A replaced node takes a value of another
# type, or of its own type out of range or unknown.  Values that pass the
# schema reach the engine, so they stay small.
GENERIC = [None, True, 2.7, [], {}, {"num": [], "den": []}]
NEAR = {int: [-1, 0, 99999, -10 ** 30],
        str: ["", "x9", "eps", "L+[9,9]", "L-[0,1]", "L*[1,1]", "T[1,1]",
              "1/0", "0", "1e5", "-3/4"],
        list: [[1, 2, 2, 1], ["u"], ["eps", "L+[1,1]"], [0], [2.7]]}


def _fuzz_payloads():
    g = IndexGeometry(3)
    ps = g.params
    X = SparseTensor4(g, {(1, 2, 2, 1): ps.s_pow(2),
                          (3, 1, 1, 3): scalar_invert(ps.one + ps.s_pow(2)),
                          (2, 2, 2, 2): ps.from_rational(Fraction(-3, 4))})
    p = build_presentation("iso", 3)
    A = p.alphabet
    e = word_element(A, p.params, A.word("x1", "u"), p.params.s_pow(2)) \
        - word_element(A, p.params, A.word("T[1,2]"))
    bundle = build_bundle(IndexGeometry(5, embedded=True))
    f = word_functional(bundle, ((1, 2, 2), (-1, 3, 1))) \
        + word_functional(bundle, ())
    return {"tensor": (tensor_to_json(X), None, X),
            "element": (element_to_json(e), (A, p.params), e),
            "functional": (functional_to_json(f), bundle, f)}


FUZZ = _fuzz_payloads()


def _slots(doc):
    """(container, key) for every node below doc."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) \
        if isinstance(doc, list) else ()
    for key, val in list(items):
        yield doc, key
        yield from _slots(val)


@st.composite
def _mutated(draw, doc):
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        slots = list(_slots(doc))
        if not slots:
            break
        parent, key = draw(st.sampled_from(slots))
        action = draw(st.sampled_from(["drop", "replace", "add"]))
        if action == "drop":
            del parent[key]
        elif action == "replace":
            parent[key] = copy.deepcopy(draw(st.sampled_from(
                NEAR.get(type(parent[key]), []) + GENERIC)))
        elif isinstance(parent, list):
            parent.append(copy.deepcopy(parent[key]))
        else:
            parent["extra"] = draw(st.sampled_from(NEAR[str]))
    return doc


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_io_load_returns_or_raises_schema_error(fuzz_dir, data):
    kind = data.draw(st.sampled_from(sorted(FUZZ)))
    doc, context, valid = FUZZ[kind]
    path = fuzz_dir / "m.json"
    path.write_text(json.dumps(data.draw(_mutated(doc))))
    try:
        obj, notes = io("load", str(path), kind, context=context)
    except SchemaError:
        return
    assert type(obj) is type(valid) and isinstance(notes, list)
