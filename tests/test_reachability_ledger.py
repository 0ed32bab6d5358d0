"""The committed reachability ledger, checked for what cannot go stale.

``benchmarks/results/reachability.json`` is regenerated by hand
(``tools/reachability.py``, about half an hour under line tracing).  What
must hold at every commit: the artifact adds up, DESIGN.md quotes it, its
``lines`` column is the tree's (under the Python minor version that wrote
it), it names no module or function the tree no longer defines, and a
function it says nothing enters is an interface stub or a ``__repr__``,
or has its reason written down in DESIGN.md §3.
"""

import ast
import importlib.util
import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DESIGN = (ROOT / "DESIGN.md").read_text()
KEYS = ("lines", "workload", "tests_only", "neither")


@pytest.fixture(scope="module")
def ledger():
    return json.loads((ROOT / "benchmarks" / "results" / "reachability.json").read_text())


def _section(number: int) -> str:
    return re.search(rf"^## {number}\. .*?(?=^## |\Z)", DESIGN, re.S | re.M).group(0)


def test_ledger_adds_up(ledger):
    totals = dict.fromkeys(KEYS, 0)
    for name, module in ledger["modules"].items():
        sums = [sum(column) for column in zip(*module["functions"].values())]
        assert sums == [module[key] for key in KEYS], name
        for lines, workload, tests_only, neither in module["functions"].values():
            assert lines == workload + tests_only + neither > 0
        for key in KEYS:
            totals[key] += module[key]
    assert totals == ledger["totals"]


def test_ledger_lines_are_the_trees(ledger):
    # Any edit to a function moves its line table, so this fails until the
    # ledger is regenerated with the edit in place.
    python = f"{sys.version_info.major}.{sys.version_info.minor}"
    if ledger.get("python") != python:
        pytest.skip(f"line tables differ across versions: ledger {ledger.get('python')}, "
                    f"interpreter {python}")
    spec = importlib.util.spec_from_file_location("reachability", ROOT / "tools" / "reachability.py")
    reachability = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reachability)
    tree = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        functions = {
            name: len(lines) for name, lines in reachability.function_lines(path).items() if lines
        }
        if functions:
            tree[str(path.relative_to(ROOT / "src"))] = functions
    recorded = {
        name: {function: counts[0] for function, counts in module["functions"].items()}
        for name, module in ledger["modules"].items()
    }
    drift = sorted(
        f"{name}: {function} ({recorded.get(name, {}).get(function)} -> "
        f"{tree.get(name, {}).get(function)})"
        for name in set(tree) | set(recorded)
        for function in set(tree.get(name, {})) | set(recorded.get(name, {}))
        if tree.get(name, {}).get(function) != recorded.get(name, {}).get(function)
    )
    assert not drift, (
        "the ledger's `lines` column no longer matches the tree; regenerate it "
        "with tools/reachability.py:\n" + "\n".join(drift)
    )


def test_design_quotes_the_ledger_totals(ledger):
    quoted = [f"{ledger['totals'][key]:,}".replace(",", " ") for key in KEYS]
    assert " / ".join(quoted) in " ".join(_section(3).split())


def _is_stub(function: ast.AST) -> bool:
    """An interface method: nothing but a docstring, ``...``, ``pass`` or
    ``raise NotImplementedError``."""
    for statement in function.body:
        if isinstance(statement, ast.Pass):
            continue
        if isinstance(statement, ast.Expr) and isinstance(statement.value, ast.Constant):
            continue
        if isinstance(statement, ast.Raise) and "NotImplementedError" in ast.dump(statement):
            continue
        return False
    return True


def _definitions(path: Path) -> dict:
    found = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found[prefix + child.name] = child
                visit(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text()), "")
    return found


def test_ledger_names_only_what_exists(ledger):
    # Folded code objects (`<lambda>`, `<dictcomp>`) have no definition
    # to find; every other name must still be defined where it is filed.
    stale = []
    for name, module in ledger["modules"].items():
        path = ROOT / "src" / name
        if not path.exists():
            stale.append(f"{name} (module)")
            continue
        definitions = _definitions(path)
        stale += [
            f"{name}: {function}"
            for function in module["functions"]
            if not function.startswith("<") and function not in definitions
        ]
    assert not stale, (
        "benchmarks/results/reachability.json names what the tree no longer "
        "defines; regenerate it with tools/reachability.py:\n" + "\n".join(stale)
    )


def test_unentered_functions_are_gone_or_accounted_for(ledger):
    # Exact names only: naming `Class.method` does not cover the class.
    prose = re.sub(r"```.*?```", "", _section(3), flags=re.S)
    kept = set(re.findall(r"`([^`]+)`", prose))
    unexplained = []
    for name, module in ledger["modules"].items():
        path = ROOT / "src" / name
        definitions = _definitions(path) if path.exists() else {}
        for function, (lines, _workload, _tests_only, neither) in module["functions"].items():
            if neither < lines or function not in definitions:
                continue
            bare = function.rsplit(".", 1)[-1]
            if bare in ("__repr__", "__str__") or _is_stub(definitions[function]):
                continue
            owner = function.split(".")[0]
            if not kept & {function, bare, owner, name.removeprefix("repro/")}:
                unexplained.append(f"{name}: {function}")
    assert not unexplained, (
        "nothing enters these, and DESIGN.md §3 does not say why they stay:\n"
        + "\n".join(unexplained)
    )


def _test_functions(directory: str) -> tuple[int, int]:
    files = sorted((ROOT / directory).rglob("test_*.py"))
    functions = sum(
        isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name.startswith("test_")
        for path in files
        for node in ast.walk(ast.parse(path.read_text()))
    )
    return functions, len(files)


def test_design_status_counts_are_current():
    status = " ".join(_section(17).split())
    for directory in ("tests", "benchmarks"):
        functions, files = _test_functions(directory)
        sentence = f"`{directory}/` holds {functions:,} test functions in {files} files".replace(",", " ")
        assert sentence in status, f"DESIGN.md §17 should say: {sentence}"
