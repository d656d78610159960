"""Every public name of the package has a caller, and every import is read.

Parses the package's modules and bench/ with ast, by path from this file, so
the check reads the checkout's source whether the package under test is the
source tree or an installed wheel.  A public module-level function or class,
or a public method, must be referenced somewhere in src/ or bench/ outside its
own definition, as an ast.Name or an ast.Attribute: a name inside a string, or
in the package's re-export list, is no caller.  Names match by their last
part, so a method is called wherever any object's attribute of that name is
read.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nbiotsim"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))

# public names kept with no caller in src/ or bench/, each for its reason
NO_CALLER = {
    "config.format_scenario": "the inverse of parse_scenario: the scenario file round-trip "
                              "property reads it, and a planned --explain would print it",
    "flows.Interval.end_us": "the end of a timeline record, which readers of flow_timeline "
                             "walk the timeline by; the layout tracks its own clock",
}


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def public_definitions():
    """(qualified name, path, first line, last line) of each public module-level
    function and class and each public method of such a class."""
    for path in MODULES:
        for node in parse(path).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
                continue
            yield f"{path.stem}.{node.name}", path, node.lineno, node.end_lineno
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and item.name[0] != "_":
                        yield (f"{path.stem}.{node.name}.{item.name}", path,
                               item.lineno, item.end_lineno)


def references() -> dict[str, list[tuple[Path, int]]]:
    """Where each name is read as an ast.Name or an ast.Attribute in src/ and bench/."""
    out: dict[str, list[tuple[Path, int]]] = {}
    for path in SOURCES:
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Name):
                out.setdefault(node.id, []).append((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                out.setdefault(node.attr, []).append((path, node.lineno))
    return out


def uncalled() -> list[str]:
    """The public names no code in src/ or bench/ refers to outside their definition."""
    refs = references()
    return [name for name, path, first, last in public_definitions()
            if all(p == path and first <= line <= last
                   for p, line in refs.get(name.rsplit(".", 1)[1], []))]


def test_every_public_name_has_a_caller():
    # NO_CALLER holds exactly the names without one: an entry whose name
    # gained a caller, or went away, is stale
    found = set(uncalled())
    missing, stale = sorted(found - NO_CALLER.keys()), sorted(NO_CALLER.keys() - found)
    assert (missing, stale) == ([], []), f"no caller: {missing}; stale in NO_CALLER: {stale}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    tree = parse(path)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unread = [name for name in bound if name not in read]
    assert unread == [], f"{path.name} imports names it never reads: {unread}"
