"""Every config key has a user.

A key counts as used when a config under demos/configs/ or a dict
literal in perfbench/ sets it, matched by its full dotted path. A dict
literal sits at the path its nesting gives it; an outermost one is
placed at the first config block (top level first) that holds all of
its keys, so a top-level ``seed`` never counts as ``gp_verify.seed``.
A sweep entry's ``training`` overrides count for ``training``. JSON is
a Python expression, so both sources are read as syntax trees. Keys
nothing sets are listed in UNSET, each with the reason it stays; a
listed key that gains a user must leave the list.
"""

import ast
from pathlib import Path

from mlx.config import _SCHEMA

ROOT = Path(__file__).resolve().parent.parent

UNSET = {
    "out_dir": "deployment path; --out sets it on every demo and benchmark run",
    "dataset.data_dir": "deployment path to a real digit corpus",
    "training.perturb.sigma": "avg-ex noise scale; no demo config runs avg-ex",
    "training.perturb.k_samples": "avg-ex draws per example; no demo config runs avg-ex",
}


def _blocks(schema, prefix=""):
    yield prefix, schema
    for key, sub in schema.items():
        if isinstance(sub, dict):
            yield from _blocks(sub, f"{prefix}{key}.")


BLOCKS = list(_blocks(_SCHEMA))
LEAVES = {prefix + key for prefix, block in BLOCKS for key, sub in block.items() if not isinstance(sub, dict)}


def _collect(node, prefix, found):
    """Add to ``found`` the config paths that dict literals under ``node`` set."""
    if isinstance(node, ast.Dict):
        keys = [k.value if isinstance(k, ast.Constant) else k for k in node.keys]
        named = [k for k in keys if k is not None]  # None is a ** spread
        if not all(isinstance(k, str) for k in named):
            prefix = None
        elif prefix is None:
            prefix = next((p for p, block in BLOCKS if all(k in block for k in named)), None)
        if prefix is not None:
            for key, value in zip(keys, node.values):
                if key is not None and isinstance(value, ast.Dict):
                    _collect(value, f"{prefix}{key}.", found)
                    continue
                if key is not None:
                    found.add(prefix + key)
                _collect(value, None, found)
            return
    for child in ast.iter_child_nodes(node):
        _collect(child, None, found)


def used_keys() -> set[str]:
    found: set[str] = set()
    for path in sorted((ROOT / "demos" / "configs").glob("*.json")):
        _collect(ast.parse(path.read_text(), mode="eval"), None, found)
    for path in sorted((ROOT / "perfbench").rglob("*.py")):
        _collect(ast.parse(path.read_text()), None, found)
    return found


def test_every_config_key_has_a_user():
    used = used_keys()
    assert sorted(LEAVES - used - set(UNSET)) == [], "config keys that no demo config or benchmark sets"
    assert sorted(set(UNSET) & used) == [], "allowlisted keys that now have a user"
    assert sorted(set(UNSET) - LEAVES) == [], "allowlisted keys that are not in the schema"
