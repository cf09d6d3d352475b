"""Rules on the engine's source.  Internal invariants must raise real
exceptions: `python -O` strips assert statements, so an assert in
src/qortho would turn a broken invariant into a silently wrong result.
"""

import ast
from pathlib import Path

import qortho

SRC = Path(qortho.__file__).parent


def test_engine_has_no_assert_statements():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
