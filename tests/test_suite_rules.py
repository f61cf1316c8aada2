"""Rules the test suite keeps itself."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def test_every_approx_states_its_absolute_tolerance():
    # pytest.approx's default abs=1e-12 exceeds every SI energy (~1e-28 J)
    # and force (~1e-18 N) in the package, so a call without abs= would
    # pass any value of that size
    bare = []
    for path in sorted(TESTS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and getattr(node.func, "attr",
                                                       getattr(node.func, "id", None)) == "approx"
                    and not any(keyword.arg == "abs" for keyword in node.keywords)):
                bare.append(f"{path.name}:{node.lineno}")
    assert not bare, f"pytest.approx without abs=: {', '.join(bare)}"


def test_the_oracles_import_nothing_from_cavityvdw():
    # an oracle that called into the library would check it against itself
    borrowed = []
    for path in (TESTS / "oracles.py", TESTS.parent / "perfbench" / "checks.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            borrowed += [f"{path.name}:{node.lineno} {name}" for name in names
                         if name.split(".")[0] == "cavityvdw"]
    assert not borrowed, f"oracle imports from cavityvdw: {', '.join(borrowed)}"
