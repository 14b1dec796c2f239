"""Guard for negcamp's readers: each input format has one decoder. JSON text
goes through ``ingest.decode_json_line``, which alone calls ``json.loads``,
and CSV through ``csv.reader``, so a second decoder with its own error
handling (``json.loads``, ``json.load`` or ``csv.DictReader`` called
anywhere else in the package) fails here.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "negcamp"
FORKS = {"json.loads", "json.load", "csv.DictReader"}
ALLOWED = {("ingest.py", "decode_json_line", "json.loads")}


def fork_calls(tree: ast.Module, filename: str) -> list[tuple[str, str, str]]:
    """(file, enclosing function, callee) for each call of a name in
    ``FORKS``, however the module or the name was imported."""
    names: dict[str, str] = {}  # local name -> dotted name it stands for
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                names[alias.asname or alias.name] = f"{node.module}.{alias.name}"

    def dotted(func: ast.expr) -> str | None:
        if isinstance(func, ast.Name):
            return names.get(func.id)
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id in names:
            return f"{names[func.value.id]}.{func.attr}"
        return None

    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and dotted(child.func) in FORKS:
                found.append((filename, scope, dotted(child.func)))
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope)

    visit(tree, "<module>")
    return found


def test_guard_sees_each_way_of_calling_a_fork():
    source = (
        "import json, csv as c\nfrom json import load as read\n"
        "def f(p):\n    json.loads(p)\n    read(p)\n    c.DictReader(p)\n    json.dumps(p)\n"
    )
    assert fork_calls(ast.parse(source), "m.py") == [
        ("m.py", "f", "json.loads"), ("m.py", "f", "json.load"), ("m.py", "f", "csv.DictReader"),
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_second_decoder(path):
    calls = fork_calls(ast.parse(path.read_text(encoding="utf-8")), path.name)
    assert [call for call in calls if call not in ALLOWED] == []
