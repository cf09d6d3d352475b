"""Command-line surface tying together construction, verification,
reduction, pairing and the calculus reports.

One binary with subcommands:

  build-r   emit the R matrix for one dimension as canonical JSON
  verify    run a named check suite (or all of them) and report
  reduce    normal-form a word of the inhomogeneous algebra
  pair      evaluate the duality bracket of a functional word against
            an algebra word
  det       print the quantum determinant of the rotation block
  lie       dump every q-Lie relation instance and the structure
            constants of a tangent basis as JSON

Exit codes: 0 when every requested check passes, 1 when a check fails,
2 on usage or input-schema errors (an --out or --dump path that cannot
be written is one), 3 when exact arithmetic leaves its domain (a
non-invertible denominator class, or a pole at a point that should be
regular) or a presentation fails a precondition of its construction
(rules that are incomplete or not confluent, a top exterior degree that
is not one-dimensional).

All suites are deterministic; the --seed flag (default 0) is recorded
in JSON reports so identical invocations produce byte-identical output.

Every input has one parser, in the module that owns it: `io` loads files
through the *_from_json functions, and --word and --functional go through
the parsers of the JSON words, Alphabet.word and envelope.tag_word (which
absorbs eps, the unit, wherever it stands).  Each raises SchemaError, a
ValueError with the JSON pointer of the bad node, and the run exits 2.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from fractions import Fraction
from itertools import islice
from math import comb
from typing import Callable, Iterator, List, Optional

from .calculus import (_degree, adjoint_coaction_check, lie_rows,
                       structure_constants, tangent_basis, verify_qlie)
from .envelope import (functional_from_json, functional_to_json, pairing,
                       tag_word, word_functional, verify_envelope_suite,
                       verify_parameter_collapse, verify_pairing_axioms)
from .itensor import (_MAX_DIM, IndexGeometry, tensor_from_json,
                      tensor_to_json)
from .presentations import (build_presentation, check_confluence,
                            derive_rewrite_rules, element_from_json,
                            element_json_terms, element_to_json,
                            check_hopf_ideal,
                            hilbert_dimension, iso_normal_system,
                            merge_rewrite_systems, quantum_determinant,
                            reduce, word_element, word_key,
                            PresentationError)
from .report import Report, first_failure
from .rmatrix import build_R, build_bundle, decompose_embedding, \
    verify_rmatrix_suite
from .scalars import (ScalarError, SchemaError, render_scalar,
                      scalar_to_json, specialize)

__all__ = ["run", "main", "io", "SchemaError", "UsageError"]


class UsageError(Exception):
    pass


def _parse_spec(text: str):
    out = {}
    for piece in text.split(","):
        if "=" not in piece:
            raise UsageError("--spec expects k=v pairs, got %r" % (piece,))
        k, v = piece.split("=", 1)
        k = k.strip()
        if k in out:
            raise UsageError("--spec names %r twice" % (k,))
        try:
            out[k] = Fraction(v.strip())
        except (ValueError, ZeroDivisionError):
            raise UsageError("--spec value %r is not a rational" % (v,))
    return out


_JSON = json.JSONEncoder(indent=2, sort_keys=True)


def _dumps(payload) -> str:
    """payload as the JSON text that _dump writes."""
    return _JSON.encode(payload) + "\n"


class _Streamed(list):
    """A JSON array whose items are made only as _JSON encodes it, so a
    long payload list is never held whole.  The pure-Python encoder that
    an indent selects asks an array for its length and its items alone;
    items() makes them afresh on every pass, so --out and --dump can both
    write the payload."""

    __slots__ = ("_size", "_items")

    def __init__(self, size: int, items: Callable[[], Iterator]):
        super().__init__()
        self._size, self._items = size, items

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator:
        return self._items()


def _dump(payload, fh) -> None:
    """Write payload to fh as indented, key-sorted JSON and a newline,
    streamed in batches of the encoder's pieces rather than built as one
    string.  (Writing the pieces one by one, as json.dump does, is four
    times slower on a write-through stdout.)"""
    pieces = _JSON.iterencode(payload)
    while True:
        batch = "".join(islice(pieces, 4096))
        if not batch:
            break
        fh.write(batch)
    fh.write("\n")


def _open_out(path: str):
    """path opened for writing; a path that cannot be opened, such as a
    directory or a file in a missing directory, is a usage error."""
    try:
        return open(path, "w")
    except OSError as exc:
        raise UsageError("cannot write %s: %s" % (path, exc.strerror))


def _emit(args, render: Callable[[], str], payload) -> None:
    """Write the report: render() under --format text, the JSON payload
    otherwise."""
    text = render() + "\n" if args.format == "text" else None
    with (_open_out(args.out) if args.out
          else contextlib.nullcontext(sys.stdout)) as fh:
        if text is None:
            _dump(payload, fh)
        else:
            fh.write(text)
    if args.dump:
        with _open_out(args.dump) as fh:
            _dump(payload, fh)


def _render_element(e) -> str:
    if not e.terms:
        return "0"
    parts = []
    for w in sorted(e.terms, key=word_key):
        parts.append("(%s) %s" % (render_scalar(e.terms[w]),
                                  e.alphabet.show_word(w)))
    return " + ".join(parts)


# ---------------------------------------------------------------------------
# schema-checked payload io

# kind: (serializer, parser of (doc, context), what its list holds)
_PAYLOADS = {
    "tensor": (tensor_to_json, lambda doc, ctx: tensor_from_json(doc),
               "entry"),
    "element": (element_to_json,
                lambda doc, ctx: element_from_json(*ctx, doc), "term"),
    "functional": (functional_to_json,
                   lambda doc, ctx: functional_from_json(ctx, doc), "term"),
}


def io(mode: str, path: str, kind: str, payload=None, context=None):
    """Save or load one of the canonical JSON payloads.

    Kinds: "tensor" (four-index tensors), "element" (algebra elements,
    context = (alphabet, params)), "functional" (regular-functional
    combinations, context = bundle).  Loading decodes the file, parses it
    with the owning module's *_from_json (which raises SchemaError on a
    bad payload), and returns (object, notes) with a note flagging a
    payload whose terms were not in canonical order.
    """
    if kind not in _PAYLOADS:
        raise ValueError("unknown payload kind %r" % (kind,))
    to_json, from_json, listed = _PAYLOADS[kind]
    if mode == "save":
        with open(path, "w") as fh:
            _dump(to_json(payload), fh)
        return payload
    if mode != "load":
        raise ValueError("io mode must be save or load")
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except ValueError as exc:
        raise SchemaError("", "not valid JSON: %s" % exc)
    obj = from_json(doc, context)
    notes = []
    if list(obj.terms) != sorted(obj.terms, key=word_key):
        notes.append("%s list was not in canonical order; re-sorted"
                     % listed)
    return obj, notes


# ---------------------------------------------------------------------------
# suites

def _suite_rmatrix(args) -> List[Report]:
    return [verify_rmatrix_suite(IndexGeometry(args.n))]


def _suite_embedding(args) -> List[Report]:
    return [decompose_embedding(args.n)]


def _suite_presentation(args) -> List[Report]:
    n = args.n
    p = build_presentation("iso", n)
    rs = merge_rewrite_systems(derive_rewrite_rules(p, "plane"),
                               derive_rewrite_rules(p, "dilatation"))
    rep = Report("presentation suite for iso(%d)" % n)
    rep.extend(check_confluence(rs, p))
    dmax = args.degree if args.degree is not None else 4
    xs = ["x%d" % a for a in range(1, n + 1)]
    w = first_failure((d, hilbert_dimension(p, rs, d, letters=xs),
                       comb(n + d - 1, d)) for d in range(dmax + 1))
    rep.add("coordinate monomial counts match the commutative table",
            w is None, "" if w is None else "degree %d" % w[0])
    rep.extend(check_hopf_ideal(n))
    return [rep]


def _suite_envelope(args) -> List[Report]:
    return [verify_envelope_suite(args.n, args.degree),
            verify_parameter_collapse(args.n, args.degree),
            verify_pairing_axioms(args.n)]


def _suite_calculus_projected(args) -> List[Report]:
    return [verify_qlie("projected", args.n, args.degree),
            adjoint_coaction_check(args.n)]


def _suite_calculus_r1(args) -> List[Report]:
    return [verify_qlie("r1", args.n, args.degree)]


_SUITES = [
    ("rmatrix", _suite_rmatrix),
    ("embedding", _suite_embedding),
    ("presentation", _suite_presentation),
    ("envelope", _suite_envelope),
    ("calculus-projected", _suite_calculus_projected),
    ("calculus-r1", _suite_calculus_r1),
]


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_build_r(args) -> int:
    spec = _parse_spec(args.spec) if args.spec else {}
    geom = IndexGeometry(args.n)
    R = build_R(geom)
    if spec:
        unknown = set(spec) - set(geom.params.vars)
        if unknown:
            raise UsageError("--spec names unknown variables %s"
                             % sorted(unknown))
        try:  # specialize refuses a missing or a zero variable
            entries = [{"idx": list(k), "value": str(specialize(v, spec))}
                       for k, v in sorted(R.terms.items())]
        except ValueError as exc:
            raise UsageError("--spec: %s" % exc)
        payload = {
            "dim": geom.dim,
            "series": geom.series,
            "spec": {k: str(v) for k, v in spec.items()},
            "entries": entries,
        }
    else:
        payload = tensor_to_json(R)
    _emit(args, lambda: _dumps(payload).rstrip("\n"), payload)
    return 0


def _cmd_verify(args) -> int:
    wanted = args.suite
    reports: List[Report] = []
    for name, runner in _SUITES:
        if wanted in (name, "all"):
            reports.extend(runner(args))
    ok = all(rep.ok for rep in reports)
    checks = sum(len(rep.checks) for rep in reports)
    fails = sum(len(rep.failures()) for rep in reports)
    payload = {
        "command": "verify", "suite": wanted, "n": args.n,
        "degree": args.degree, "seed": args.seed, "ok": ok,
        "reports": [rep.to_json() for rep in reports],
    }
    _emit(args, lambda: "\n\n".join(rep.render() for rep in reports)
          + "\nsummary: %d checks, %d failures" % (checks, fails), payload)
    return 0 if ok else 1


def _cmd_reduce(args) -> int:
    tokens = args.word.split()
    p = build_presentation("iso", args.n)
    if args.algebra == "plane":
        xs = {"x%d" % a for a in range(1, args.n + 1)}
        if not set(tokens) <= xs:
            raise UsageError("the plane algebra only has the letters %s"
                             % " ".join(sorted(xs)))
        rs = derive_rewrite_rules(p, "plane")
    else:
        rs = iso_normal_system(p)
    nf = reduce(word_element(p.alphabet, p.params, p.alphabet.word(*tokens)),
                rs)
    payload = {"command": "reduce", "algebra": args.algebra, "n": args.n,
               "word": tokens, "normal_form": element_to_json(nf)}
    _emit(args, lambda: "%s -> %s" % (" ".join(tokens) or "I",
                                     _render_element(nf)), payload)
    return 0


def _cmd_pair(args) -> int:
    bundle = build_bundle(IndexGeometry(args.n + 2, embedded=True))
    tags = args.functional.split()
    f = word_functional(bundle, tag_word(args.n + 2, tags))
    p = build_presentation("iso", args.n)
    pa = word_element(p.alphabet, p.params,
                      p.alphabet.word(*args.word.split()))
    val = pairing(f, pa)
    payload = {"command": "pair", "n": args.n, "functional": tags,
               "word": args.word.split(), "value": scalar_to_json(val)}
    _emit(args, lambda: render_scalar(val), payload)
    return 0


def _cmd_det(args) -> int:
    e = quantum_determinant(args.n)
    payload = {"command": "det", "n": args.n,
               "element": _Streamed(len(e.terms),
                                    lambda: element_json_terms(e))}
    _emit(args, lambda: _render_element(e), payload)
    return 0


def _cmd_lie(args) -> int:
    D = _degree(args.degree)
    basis = tangent_basis(args.kind, args.n)
    rows = lie_rows(args.kind, args.n, D)
    try:
        constants = [{"i": i, "j": j, "k": k,
                      "value": scalar_to_json(c)}
                     for i, j, k, c in structure_constants(basis)]
        closed = True
    except ValueError:
        constants = []
        closed = False
    ok = closed and all(row["status"] for row in rows)
    payload = {
        "command": "lie", "kind": args.kind, "n": args.n, "degree": D,
        "seed": args.seed, "labels": basis.labels, "relations": rows,
        "closed": closed, "structure_constants": constants, "ok": ok,
    }

    def render():
        lines = ["tangent basis: %s" % " ".join(basis.labels)]
        for row in rows:
            lines.append("[%s] %s %r%s" % (
                "pass" if row["status"] else "fail", row["relation"],
                tuple(row["indices"]),
                " -- " + row["witness"] if "witness" in row else ""))
        lines.append("bracket closure: %s, %d nonzero structure constants"
                     % ("yes" if closed else "no", len(constants)))
        return "\n".join(lines)

    _emit(args, render, payload)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--n", type=int, required=True,
                        help="dimension: the matrix size for build-r and "
                             "the rmatrix suite, the coordinate count "
                             "elsewhere (3 to %d)" % (_MAX_DIM - 2))
    common.add_argument("--seed", type=int, default=0,
                        help="seed recorded in JSON reports; the suites "
                             "themselves are deterministic (default 0)")
    common.add_argument("--format", choices=["text", "json"],
                        default="text", help="output format")
    common.add_argument("--out", default=None,
                        help="write the report here instead of stdout")
    common.add_argument("--dump", default=None,
                        help="additionally write the JSON payload to "
                             "this path")

    parser = argparse.ArgumentParser(
        prog="qortho",
        description="Exact constructions and checks for the "
                    "multiparametric orthogonal quantum groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("build-r", parents=[common],
                        help="emit the R matrix as canonical JSON")
    sp.add_argument("--spec", default=None,
                    help="parameter assignment k=v,... with nonzero "
                         "rational values")
    sp.set_defaults(handler=_cmd_build_r)

    sp = sub.add_parser("verify", parents=[common],
                        help="run a verification suite")
    sp.add_argument("--suite", required=True,
                    choices=[name for name, _ in _SUITES] + ["all"])
    sp.add_argument("--degree", type=int, default=None,
                    help="word-length bound for evaluation checks")
    sp.set_defaults(handler=_cmd_verify)

    sp = sub.add_parser("reduce", parents=[common],
                        help="normal-form a word")
    sp.add_argument("--algebra", choices=["iso", "plane"], default="iso")
    sp.add_argument("--word", required=True,
                    help="space-separated generator symbols")
    sp.set_defaults(handler=_cmd_reduce)

    sp = sub.add_parser("pair", parents=[common],
                        help="evaluate the duality bracket")
    sp.add_argument("--functional", required=True,
                    help="space-separated tags like 'L+[1,2] L-[5,5]', "
                         "or 'eps'")
    sp.add_argument("--word", required=True,
                    help="space-separated algebra symbols")
    sp.set_defaults(handler=_cmd_pair)

    sp = sub.add_parser("det", parents=[common],
                        help="print the quantum determinant")
    sp.set_defaults(handler=_cmd_det)

    sp = sub.add_parser("lie", parents=[common],
                        help="dump q-Lie relations and structure constants")
    sp.add_argument("--kind", choices=["projected", "r1"],
                    default="projected")
    sp.add_argument("--degree", type=int, default=None,
                    help="word-length bound for the relation rows")
    sp.set_defaults(handler=_cmd_lie)
    return parser


def run(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else 2
    try:
        if args.n < 3:
            raise UsageError("--n must be at least 3")
        # every geometry a command builds, of dimension n or n + 2, stays
        # within the bound that tensor_from_json applies
        if args.n > _MAX_DIM - 2:
            raise UsageError("--n must be at most %d" % (_MAX_DIM - 2))
        # only verify and lie take --degree
        if getattr(args, "degree", None) is not None and args.degree < 1:
            raise UsageError("--degree must be at least 1")
        return args.handler(args)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except SchemaError as exc:
        print("schema error: %s" % exc, file=sys.stderr)
        return 2
    except ScalarError as exc:
        print("exact arithmetic left its domain: %s" % exc, file=sys.stderr)
        return 3
    except PresentationError as exc:
        print("presentation precondition failed: %s" % exc, file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())
