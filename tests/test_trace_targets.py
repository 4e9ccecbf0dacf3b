"""The benchmark tracer's targets name functions the package still has.

``perfbench/spans.py`` wraps each ``TARGETS`` entry by module and attribute
name, and fails its traced run when one is missing. Reading the table here,
without importing or changing that file, makes a rename fail in seconds.
"""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _targets() -> dict:
    tree = ast.parse(SPANS.read_text(), filename=str(SPANS))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS assignment in {SPANS}")


def test_every_traced_name_is_a_package_callable():
    targets = _targets()
    assert targets
    missing = []
    for layer, names in targets.items():
        module = importlib.import_module(f"tripletdist.{layer}")
        for name in names:
            obj = module
            for part in name.split("."):
                obj = getattr(obj, part, None)
            if not callable(obj):
                missing.append(f"{layer}.{name}")
    assert not missing, "traced names not found in tripletdist: " + ", ".join(missing)
