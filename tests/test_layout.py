"""Every public module-level function and class in src/mlx has a reader.

A name counts as read when it appears in src/mlx, demos/ or perfbench/
outside its own definition. Names that only tests call are listed in
TEST_ONLY, each with the reason it stays; a listed name that gains a
reader must leave the list.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mlx"

TEST_ONLY = {
    "perturb.masked_corner_optimum": "exact oracle for masked attacks in acceptance criterion 3",
    "train.grad_reg_term": "called by tests/test_acceptance.py, which stays unchanged",
}


def test_every_public_name_has_a_reader():
    sources = {
        path: path.read_text().splitlines()
        for folder in (PACKAGE, ROOT / "demos", ROOT / "perfbench")
        for path in sorted(folder.rglob("*.py"))
    }
    unread = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            start = min([node.lineno] + [d.lineno for d in node.decorator_list]) - 1
            own = range(start, node.end_lineno)
            word = re.compile(rf"\b{node.name}\b")
            read = any(
                word.search(line)
                for src, lines in sources.items()
                for i, line in enumerate(lines)
                if not (src == path and i in own)
            )
            if not read:
                unread.add(f"{path.stem}.{node.name}")
    assert unread - set(TEST_ONLY) == set(), "public names nothing outside the tests reads"
    assert set(TEST_ONLY) - unread == set(), "allowlisted names that now have a reader (or are gone)"
