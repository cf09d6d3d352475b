"""Rules on the engine's source.  Internal invariants must raise real
exceptions: `python -O` strips assert statements, so an assert in
src/qortho would turn a broken invariant into a silently wrong result.
"""

import ast
import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import qortho
from qortho.itensor import (IndexGeometry, identity_tensor, tensor_compose,
                            triple_compose)

SRC = Path(qortho.__file__).parent


def test_engine_has_no_assert_statements():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_every_check_passes_a_detail():
    """Every check reports its first failing case: each rep.add(...) in
    src/qortho passes a detail, as a third positional argument or inside
    a starred one, so that no check can fail with a bare boolean."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "add"
                  and getattr(node.func.value, "id", None) == "rep"
                  and len(node.args) < 3
                  and not any(isinstance(a, ast.Starred) for a in node.args)]
    assert found == []


ROOT = Path(__file__).resolve().parents[1]
ENGINE = ROOT / "src" / "qortho"
SCANNED = ("src", "tests", "perfbench")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names_used(stmt: ast.stmt):
    """Names a top-level statement refers to: loaded or stored names,
    attributes, imported names and the entries of an __all__ list."""
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]
    if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__"
            for t in stmt.targets):
        for node in ast.walk(stmt.value):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                yield node.value


def test_every_engine_definition_is_referenced():
    """A module-level function or class of src/qortho that nothing in
    src/, tests/ or perfbench/ names, except its own body, is dead code."""
    defined = []
    used = set()
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for stmt in tree.body:
                owner = stmt.name if isinstance(stmt, DEFINITIONS) else None
                if owner is not None and path.parent == ENGINE:
                    defined.append("%s.%s" % (path.stem, owner))
                used.update(n for n in _names_used(stmt) if n != owner)
    assert [d for d in defined if d.split(".")[1] not in used] == []


def _identifiers(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, DEFINITIONS):
            yield node.lineno, node.name


def test_derived_data_is_kept_by_functools_only():
    """Derived data is built on first use and kept by functools.cache (on a
    private builder, since the tracer wraps public functions only) or
    functools.cached_property; a name ending in _cache marks a
    hand-rolled memo."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d %s" % (path.name, line, name)
                  for line, name in _identifiers(tree)
                  if name.endswith("_cache")]
        found += ["%s:%d public %s" % (path.name, node.lineno, node.name)
                  for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef)
                  and not node.name.startswith("_")
                  and any(ast.unparse(d) == "functools.cache"
                          for d in node.decorator_list)]
    assert found == []


def test_engine_reads_brackets_in_batches():
    """Only the command line asks for one bracket at a time: inside the
    engine a loop of eval_functional or pairing calls would walk each
    word once per functional, where envelope._brackets walks a batch."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "cli.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Call)
                  and getattr(node.func, "id", getattr(node.func, "attr", ""))
                  in ("eval_functional", "pairing")]
    assert found == []


def test_letter_numbering_lives_in_presentations():
    """presentations.t_letter alone decides which letter id is T^A_B:
    no other module writes the formula out or reads indices back out of
    a symbol string."""
    formula = re.compile(r"\(\w+ - 1\) \* \w+ \+")
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "presentations.py":
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if formula.search(line) or "[2:-1]" in line:
                found.append("%s:%d" % (path.name, lineno))
    assert found == []


def test_cone_ideal_lives_in_itensor():
    """IndexGeometry.cone_ideal alone lists the generators of the cone
    ideal H: no other module pairs the bullet index with the circ index."""
    pair = re.compile(r"\(\w+\.bullet, \w+\.circ\)")
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "itensor.py":
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if pair.search(line):
                found.append("%s:%d" % (path.name, lineno))
    assert found == []


def test_fraction_representation_stays_in_scalars():
    """Only scalars.py sees how a Scalar is stored: no other engine module
    reads .num or .den or the packed monomial layout of a ParamSpace (its
    field width, bias, guard bits, masks and tag position), or reaches
    the polynomial kernels poly_mul and poly_add or the canonicalization
    _canon, by import or attribute."""
    fields = {"num", "den", "_bias", "_guard", "_hi", "_width", "_smask",
              "_half", "_tag_at"}
    kernels = {"poly_mul", "poly_add", "_canon"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "scalars.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                name = node.attr
                hit = name in fields or name in kernels
            elif isinstance(node, ast.alias):
                name = node.name.rsplit(".", 1)[-1]
                hit = name in kernels
            else:
                continue
            if hit:
                found.append("%s:%d %s" % (path.name, node.lineno, name))
    assert found == []


def test_scalars_has_one_packed_product_loop():
    """The guard-bit test of a packed monomial product, m & guard != hi,
    stands in scalars.py only in poly_mul's loop over one monomial and in
    tagged_mul_acc, the one in-place multiply kernel, which poly_mul's
    general loop calls.  A second accumulate loop with an overflow path
    of its own cannot come back unnoticed."""
    found = []
    tree = ast.parse((SRC / "scalars.py").read_text())
    for fn in tree.body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        branches = [(node, ast.unparse(node.test)) for node in ast.walk(fn)
                    if isinstance(node, ast.If)]
        for node in ast.walk(fn):
            if (isinstance(node, ast.Compare)
                    and isinstance(node.left, ast.BinOp)
                    and isinstance(node.left.op, ast.BitAnd)
                    and ast.unparse(node.left.right) in ("guard", "ps._guard")
                    and [ast.unparse(c) for c in node.comparators]
                    in (["hi"], ["ps._hi"])):
                inside = [test for branch, test in branches
                          if any(node is sub for stmt in branch.body
                                 for sub in ast.walk(stmt))]
                found.append((fn.name, inside))
    assert found == [("poly_mul", ["len(p1) == 1"]), ("tagged_mul_acc", [])]


def test_benchmark_counters_name_engine_functions():
    """perfbench/run.py reads call counts and times by name from a
    Counter, so a renamed engine function would read 0 without a word:
    every name it reads must be a public function of its qortho module,
    or a Scalar or RMatrixBundle method, which is what the tracer wraps."""
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    keys = [node.slice.value for node in ast.walk(tree)
            if isinstance(node, ast.Subscript)
            and getattr(node.value, "id", None) in ("calls", "incl")
            and isinstance(node.slice, ast.Constant)]
    assert "itensor.tensor_compose" in keys
    unresolved = []
    for key in keys:
        layer, *path = key.split(".")
        module = importlib.import_module("qortho." + layer)
        if len(path) == 1:
            fn = getattr(module, path[0], None)
            ok = (not path[0].startswith("_") and inspect.isfunction(fn)
                  and fn.__module__ == module.__name__)
        else:
            owner, method = path
            ok = (owner in ("Scalar", "RMatrixBundle")
                  and method in vars(getattr(module, owner, object)))
        if not ok:
            unresolved.append(key)
    assert unresolved == []


def test_tracer_observers_read_engine_results():
    """The tracer's observers read tensor_compose(...).entries and
    len(triple_compose(...)) off the engine's results."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    probe = tracer.Tracer()
    I = identity_tensor(IndexGeometry(3))
    for name, args, result in (
            ("itensor.tensor_compose", (I, I), tensor_compose(I, I)),
            ("itensor.triple_compose", ([(I, 12)],),
             triple_compose([(I, 12)]))):
        tracer.OBSERVERS[name](probe, args, result)
    assert probe.tallies == {"itensor.entries_out": 9 + 27}


def test_payload_records_are_read_by_their_owners():
    """The *_from_json parser of each owning module alone reads a payload
    record: cli.py names a record field only as a key of a payload it
    writes, never to look one up."""
    fields = {"idx", "word", "coeff", "exponents", "entries"}
    tree = ast.parse((SRC / "cli.py").read_text())
    written = {id(key) for node in ast.walk(tree)
               if isinstance(node, ast.Dict) for key in node.keys}
    found = ["cli.py:%d %s" % (node.lineno, node.value)
             for node in ast.walk(tree) if isinstance(node, ast.Constant)
             and node.value in fields and id(node) not in written]
    assert found == []


def _side_closures(source: str, filename: str = "<source>") -> list:
    """Lines where a lambda is passed to _Side(...), or where _mapped
    builds a lambda or a nested function."""
    tree = ast.parse(source, filename=filename)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", "") == \
                "_Side":
            args = node.args + [k.value for k in node.keywords]
            found += [n.lineno for a in args for n in ast.walk(a)
                      if isinstance(n, ast.Lambda)]
        elif isinstance(node, ast.FunctionDef) and node.name == "_mapped":
            found += [n.lineno for n in ast.walk(node) if n is not node
                      and isinstance(n, (ast.Lambda, ast.FunctionDef))]
    return found


def test_side_maps_are_named_functions():
    """A side's map is a named module-level scalar function applied as
    fn(value, scale), never a closure: a map of a map would hide a
    product (v * inverse) inside the map, where limit_r_to_1 could not
    avoid forming it."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += ["%s:%d" % (path.name, line)
                  for line in _side_closures(path.read_text(), str(path))]
    assert found == []
    # the closures the rule is there to keep out
    assert _side_closures(
        "def _as_side(side):\n"
        "    return _Side(terms, lambda v: v * inverse)\n") == [2]
    assert _side_closures(
        "def _mapped(side, fn):\n"
        "    s = _as_side(side)\n"
        "    return _Side(s.terms, lambda v: fn(s.fn(v)))\n") == [3, 3]


def _unshared_dens(source: str, filename: str = "<source>") -> list:
    """Lines of Scalar(...) calls whose denominator is neither an
    attribute _one_den or den nor the result of the interning builder
    _den(...)."""
    tree = ast.parse(source, filename=filename)
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and getattr(node.func, "id", "") == "Scalar"):
            continue
        dens = node.args[2:3] + [k.value for k in node.keywords
                                 if k.arg == "den"]
        ok = len(dens) == 1 and (
            isinstance(dens[0], ast.Attribute)
            and dens[0].attr in ("_one_den", "den")
            or isinstance(dens[0], ast.Call)
            and getattr(dens[0].func, "id", "") == "_den")
        if not ok:
            found.append(node.lineno)
    return found


def test_every_scalar_holds_a_shared_denominator():
    """Every Scalar(...) in scalars.py takes as its den ps._one_den, the
    .den of an existing Scalar, or what _den returns, so no path builds a
    denominator that the identity tests of + and sum_products would
    miss."""
    path = SRC / "scalars.py"
    assert _unshared_dens(path.read_text(), str(path)) == []
    # the denominators the rule is there to keep out
    assert _unshared_dens(
        "Scalar(ps, num, {ps._bias: 1})\n"
        "Scalar(ps, num, den)\n"
        "Scalar(ps, num, den=dict(a.den))\n"
        "Scalar(ps, num)\n") == [1, 2, 3, 4]
    assert _unshared_dens(
        "Scalar(ps, num, a.den)\n"
        "Scalar(ps, num, den=ps._one_den)\n"
        "Scalar(ps, num, _den(ps, key))\n") == []


def _limit_reads(source: str, filename: str = "<source>") -> list:
    """Lines that name limit_r_to_1 or _mapped outside the module-level
    function _view; an import or a docstring names neither."""
    tree = ast.parse(source, filename=filename)
    inside = {id(node) for stmt in tree.body
              if isinstance(stmt, ast.FunctionDef) and stmt.name == "_view"
              for node in ast.walk(stmt)}
    return [node.lineno for node in ast.walk(tree) if id(node) not in inside
            and (getattr(node, "id", None) or getattr(node, "attr", None))
            in ("limit_r_to_1", "_mapped")]


def test_the_calculus_decides_its_limit_in_one_view():
    """Whether the calculus reads a functional through the r = 1 limit
    is decided once, by calculus._view from the calculus kind: every
    reader asks it, and no reader maps a side or limits a bracket on its
    own."""
    path = SRC / "calculus.py"
    source = path.read_text()
    assert "\ndef _view(" in source
    assert _limit_reads(source, str(path)) == []
    # the readers the rule is there to keep out
    assert _limit_reads(
        "from .scalars import limit_r_to_1\n"
        "def _view(kind, f):\n"
        "    return _mapped(f, limit_r_to_1) if kind == 'r1' else f\n"
        "def _letter_values(f, limit):\n"
        "    side = _mapped(f, limit_r_to_1) if limit else f\n"
        "    vals = {k: scalars.limit_r_to_1(v) for k, v in vals.items()}\n"
        "    side = _Factored(b, {t: limit_r_to_1(c) for t, c in terms})\n"
        ) == [5, 5, 6, 7]


def _named_outside(source: str, names, function=None) -> list:
    """(line, name) of every name or attribute in names, outside the
    module-level function of that name; a definition, an import or a
    docstring names nothing."""
    tree = ast.parse(source)
    inside = {id(node) for stmt in tree.body
              if isinstance(stmt, ast.FunctionDef) and stmt.name == function
              for node in ast.walk(stmt)}
    return [(node.lineno, name) for node in ast.walk(tree)
            if id(node) not in inside
            and (name := getattr(node, "id", None)
                 or getattr(node, "attr", None)) in names]


def test_the_only_side_map_is_the_r1_view():
    """A side map is only ever the r = 1 limit: in src/qortho, _mapped is
    named by its definition and inside calculus._view alone, and the
    g_ab = r collapse is a bundle of its own, so merge_deformations is
    named only where it is defined (scalars.py) and where the
    uniparametric bundle maps R (rmatrix.py)."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        names = {"_mapped"}
        if path.name not in ("scalars.py", "rmatrix.py"):
            names.add("merge_deformations")
        found += ["%s:%d %s" % (path.name, line, name)
                  for line, name in _named_outside(
                      path.read_text(), names,
                      "_view" if path.name == "calculus.py" else None)]
    assert found == []
    # the side maps the rule is there to keep out
    assert _named_outside(
        "from .scalars import merge_deformations\n"
        "def _mapped(side, fn):\n"
        "    return side\n"
        "def _view(kind, f):\n"
        "    return _mapped(f, limit_r_to_1)\n"
        "def collapse(f):\n"
        "    return envelope._mapped(f, scalars.merge_deformations)\n",
        {"_mapped", "merge_deformations"}, "_view") == [
            (7, "_mapped"), (7, "merge_deformations")]
