"""Every public library function and every option has a caller in the
package itself.

A function that nothing in ``src`` reaches is surface that no subcommand
runs: tests keep it alive while the verdict never executes it.  The first
test parses every module and fails for a public top-level function whose
name is referenced nowhere in ``src`` but its own ``def``, the package's
re-export in ``__init__``, and other such functions.  Names are matched as
written (``name`` or ``module.name``); an import statement is not a
reference.

A defaulted parameter that no call in ``src`` passes is the same thing one
level down: an option only tests set.  The second test fails for one,
over every ``def`` in ``src``, private ones included.  A call passes a
parameter by keyword, by position, or through ``*args``/``**kwargs``; calls
are matched to definitions by name alone, so a call to any function of the
same name counts.

The third test keeps the interval's coordinate inside ``geometry``: no
other module reads the space's private theta table, sorted runs or
ball-volume memo, so the other modules see only the metric, the measure and
the space's methods.

The fourth keeps the kernel's factors inside ``heat``: no other module reads
a kernel's ``rows`` or ``decay``, so the integral operator V^T D V (w f) is
formed in one place, ``FactoredKernel.apply``, and the other modules see a
kernel only through its methods.
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


# Defaulted parameters that no call in src passes, and why each stays.
ALLOWED_DEFAULTS = {
    # the console script calls main() bare; tests pass argv
    ("cli", "main", "argv"),
}


def _defaulted(node: ast.FunctionDef, method: bool) -> list[tuple[int | None, str]]:
    """(position or None for keyword-only, name) of each defaulted parameter,
    positions counted as a caller writes them."""
    positional = node.args.posonlyargs + node.args.args
    offset = 1 if method else 0
    first = len(positional) - len(node.args.defaults)
    found = [(i - offset, positional[i].arg) for i in range(first, len(positional))]
    found += [
        (None, arg.arg)
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults)
        if default is not None
    ]
    return found


def _passes(call: ast.Call, position: int | None, name: str) -> bool:
    if any(kw.arg in (None, name) for kw in call.keywords):
        return True
    return position is not None and (
        len(call.args) > position or any(isinstance(arg, ast.Starred) for arg in call.args)
    )


def test_every_default_is_overridden_by_some_call_in_src():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    # a method's callers do not write its self
    methods = {
        id(item)
        for tree in trees.values()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for item in cls.body
    }
    unset = sorted(
        (module, node.name, name)
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        for position, name in _defaulted(node, id(node) in methods)
        if (module, node.name, name) not in ALLOWED_DEFAULTS
        and not any(_passes(call, position, name) for call in calls.get(node.name, []))
    )
    assert unset == []


# The space's private state; only geometry.py may read it.
SPACE_PRIVATE = {"_theta", "_sorted_nodes", "_node_ball_volumes"}


def test_only_geometry_reads_the_space_private_state():
    reads = sorted(
        f"{path.stem}:{node.lineno}:{node.attr}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "geometry.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in SPACE_PRIVATE
    )
    assert reads == []


# The kernel's spectral factors; only heat.py may read them.
KERNEL_FACTORS = {"rows", "decay"}


def test_only_heat_reads_the_kernel_factors():
    reads = sorted(
        f"{path.stem}:{node.lineno}:{node.attr}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "heat.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in KERNEL_FACTORS
    )
    assert reads == []
