"""The package's import layers, read from the source with ast.

errors and schema sit at the bottom, the learners know nothing of SCADA
records, evaluation sits on the learners alone, and only the CLI drives
the pipeline."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "icewatch"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")


def package_imports(path: Path) -> set[str]:
    """The icewatch modules the source at `path` imports, at any depth."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [a.name.removeprefix("icewatch.") for a in node.names if a.name.startswith("icewatch.")]
        elif isinstance(node, ast.ImportFrom) and (node.level == 1 or (node.module or "").startswith("icewatch")):
            base = node.module if node.level == 1 else node.module.removeprefix("icewatch").lstrip(".")
            names = [base] if base else [a.name for a in node.names]
        else:
            continue
        found.update(name.split(".")[0] for name in names)
    return found


def imports_of(module: str) -> set[str]:
    return package_imports(PACKAGE / f"{module}.py")


ALLOWED = {
    "errors": set(),
    "schema": {"errors"},
    "learners": {"errors", "schema"},  # LearnerConfig declares its fields' domains
    "evaluation": {"learners", "errors"},
}


def test_every_module_is_known():
    assert set(ALLOWED) <= set(MODULES)
    assert {"cli", "pipeline"} <= set(MODULES)
    for module in MODULES:
        assert imports_of(module) <= set(MODULES), module


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_low_layers_import_only_what_they_may(module):
    assert imports_of(module) <= ALLOWED[module]


def test_only_the_cli_imports_the_pipeline():
    assert [m for m in MODULES if "pipeline" in imports_of(m)] == ["cli"]


def test_the_guard_sees_every_import_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from . import learners\nfrom .scada import Label\nimport icewatch.rules\n"
        "from icewatch.schema import x\nfrom icewatch import errors\nimport numpy\n"
        "def f():\n    from .pipeline import run\n"
    )
    assert package_imports(probe) == {"learners", "scada", "rules", "schema", "errors", "pipeline"}
