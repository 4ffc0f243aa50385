"""No internal check in the package is an ``assert``.

``python -O`` strips ``assert`` statements but keeps whatever work
builds their operands, so a check written that way can vanish while
its cost stays.  An internal check is an explicit ``raise``
(``WalkError``, ``DeadlockError``, the constructors' ``ValueError``s).
"""

import ast
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).parent


def test_package_has_no_assert_statement():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.relative_to(PACKAGE.parent)}:{node.lineno}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
