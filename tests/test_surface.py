"""Every public library function has a caller in the package itself.

A function that nothing in ``src`` reaches is surface that no subcommand
runs: tests keep it alive while the verdict never executes it.  This test
parses every module and fails for a public top-level function whose name
is referenced nowhere in ``src`` but its own ``def``, the package's
re-export in ``__init__``, and other such functions.  Names are matched as
written (``name`` or ``module.name``); an import statement is not a
reference.
"""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "heatframe"

# Public functions with no caller in src, and why each stays.
ALLOWED = {
    # the console-script entry point named in pyproject.toml
    ("cli", "main"),
    # the reader of save_net's format; the benchmark's export check imports it
    ("nets", "load_net"),
}


def _references(node: ast.AST) -> list[str]:
    return [
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    ]


def test_every_public_function_has_a_caller_in_src():
    statements = [
        (path.stem, node)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    # A function whose only callers are themselves unreached is unreached
    # too, so the search runs to a fixed point.
    unreached: set[tuple[str, str]] = set()
    while True:
        counts = Counter(
            name
            for module, node in statements
            if (module, getattr(node, "name", None)) not in unreached
            for name in _references(node)
        )
        found = {
            (module, node.name)
            for module, node in statements
            if isinstance(node, ast.FunctionDef)
            and not node.name.startswith("_")
            and (module, node.name) not in ALLOWED | unreached
            and counts[node.name] == _references(node).count(node.name)
        }
        if not found:
            break
        unreached |= found
    assert sorted(f"{module}.{name}" for module, name in unreached) == []
