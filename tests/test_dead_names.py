"""Every top-level function and class of the package is named somewhere
besides its own definition: in the package, the tests, the tools or the
benchmark. A name left behind when its last caller went fails here."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEARCHED = ("src", "tests", "tools", "perfbench")


def test_every_top_level_name_is_used():
    sources = {
        path: path.read_text(encoding="utf-8").splitlines()
        for part in SEARCHED
        for path in sorted((ROOT / part).rglob("*.py"))
    }
    checked, dead = 0, []
    for path in sorted((ROOT / "src" / "sormamba").glob("*.py")):
        for node in ast.parse("\n".join(sources[path])).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            checked += 1
            # the definition itself, with its decorators, docstring and body
            own = range(min([node.lineno] + [d.lineno for d in node.decorator_list]),
                        node.end_lineno + 1)
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            if not any(
                word.search(line)
                for source, lines in sources.items()
                for number, line in enumerate(lines, start=1)
                if not (source == path and number in own)
            ):
                dead.append(f"{path.name}:{node.lineno} {node.name}")
    assert checked > 50  # the search saw the package
    assert not dead, f"named nowhere but in their own definitions: {dead}"
