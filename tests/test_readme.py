"""The README's python snippets run as written and print what they say."""
from __future__ import annotations

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_snippets_give_their_commented_results():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 2
    namespace, shown = {}, []
    for block in blocks:
        lines = block.splitlines()
        for node in ast.parse(block).body:
            if isinstance(node, ast.Expr):
                value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
                shown.append((value, lines[node.end_lineno - 1].partition("#")[2].strip()))
            else:
                exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    M = namespace["Monomial"].parse
    assert [value for value, _ in shown] == ["lt", M("x2*x3"), [1, 1, 2, 1, 1], 8, (3, 1, 1)]
    for value, comment in shown:
        assert comment.endswith((repr(value), str(value))), (value, comment)
