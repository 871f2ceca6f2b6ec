"""The README's library example names only things the package defines."""

import ast
import re
from pathlib import Path

_README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_imports_resolve():
    text = _README.read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)
    assert blocks, "README has no python example"
    for block in blocks:
        imports = [
            node
            for node in ast.parse(block).body
            if isinstance(node, (ast.Import, ast.ImportFrom))
        ]
        assert imports
        module = ast.Module(body=imports, type_ignores=[])
        exec(compile(module, "README.md", "exec"), {})
