"""The package's import layers and error classes, read from the source
with ast, and the line count that tests/code_lines.py prints.

errors and schema sit at the bottom, the learners know nothing of SCADA
records, evaluation sits on the learners alone, and only the CLI drives
the pipeline. errors defines the package's four exception classes, and
no other module defines one. One function, scada.write_csv_rows, writes
every CSV: the csv module only reads. One function, schema.to_dict, turns
a dataclass into its JSON document: no module calls dataclasses.asdict.
Only cli.entry and the forked runs' pipeline._fork_share end the process
with os._exit, and the icewatch console script is cli.entry."""

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


# --- error classes ----------------------------------------------------------------

ERROR_CLASSES = {
    "IcewatchError": ["Exception"],
    "ConfigError": ["IcewatchError"],
    "InvalidConfig": ["ConfigError"],
    "DataError": ["IcewatchError"],
}


def class_bases(path: Path) -> dict[str, list[str]]:
    """Each class the source at `path` defines, at any depth, with the last
    name of each of its bases (``errors.DataError`` is ``DataError``)."""
    classes = {}
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ClassDef):
            classes[node.name] = [b.attr if isinstance(b, ast.Attribute) else getattr(b, "id", "") for b in node.bases]
    return classes


def exception_classes(path: Path) -> set[str]:
    """The classes at `path` whose base is an exception: a builtin one, an
    icewatch one, or any name ending in Error or Exception."""
    return {
        name
        for name, bases in class_bases(path).items()
        if any(b in ERROR_CLASSES or b.endswith(("Error", "Exception")) for b in bases)
    }


def test_errors_defines_the_two_kinds_and_nothing_else():
    assert class_bases(PACKAGE / "errors.py") == ERROR_CLASSES


@pytest.mark.parametrize("module", [m for m in MODULES if m != "errors"])
def test_no_other_module_defines_an_exception_class(module):
    """An error is told apart by its message, not by a class of its own."""
    assert exception_classes(PACKAGE / f"{module}.py") == set()


def test_the_guard_sees_every_exception_base(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from . import errors\nfrom .errors import DataError\n"
        "class A(DataError): pass\nclass B(errors.InvalidConfig): pass\nclass C(ValueError): pass\n"
        "class D(Exception): pass\nclass E(object): pass\ndef f():\n    class F(KeyError): pass\n"
    )
    assert exception_classes(probe) == {"A", "B", "C", "D", "F"}


# --- CSV files and JSON documents ----------------------------------------------------


def module_names(path: Path, module: str) -> set[str]:
    """The names of the standard `module` that the source at `path` uses:
    each attribute of the module under any alias, and each name imported
    from it."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imports = [a for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names]
    aliases = {a.asname or a.name for a in imports if a.name == module}
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module == module:
            found.update(a.name for a in node.names)
    return found


def test_only_the_row_reader_uses_the_csv_module():
    """No module calls csv.writer, so every CSV is formatted by
    scada.write_csv_rows; scada's row reader is csv.reader."""
    used = {module: module_names(PACKAGE / f"{module}.py", "csv") for module in MODULES}
    assert {module: names for module, names in used.items() if names} == {"scada": {"reader"}}


def test_the_csv_guard_sees_every_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import csv\nimport csv as c\nfrom csv import DictWriter\n"
        "def f(s):\n    return csv.writer(s), c.reader(s), c.QUOTE_ALL, DictWriter\n"
    )
    assert module_names(probe, "csv") == {"writer", "reader", "QUOTE_ALL", "DictWriter"}


def test_schema_is_the_only_dataclass_encoder():
    """No module calls dataclasses.asdict, so every dataclass is written by
    schema.to_dict, the inverse of the from_dict that reads it."""
    users = [module for module in MODULES if "asdict" in module_names(PACKAGE / f"{module}.py", "dataclasses")]
    assert users == []


# --- the end of the process ---------------------------------------------------------


def functions_using(path: Path, module: str, name: str) -> set[str]:
    """The functions of the source at `path`, by qualified name, that use
    `name` of the standard `module`: as an attribute of the module under any
    alias, or imported from it. Module level is "<module>"."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imports = [a for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names]
    aliases = {a.asname or a.name for a in imports if a.name == module}
    found = set()

    def visit(node, scope):
        if (isinstance(node, ast.Attribute) and node.attr == name and getattr(node.value, "id", None) in aliases) or (
            isinstance(node, ast.ImportFrom) and node.module == module and name in {a.name for a in node.names}
        ):
            found.add(scope or "<module>")
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return found


def test_only_entry_and_the_forked_run_skip_the_interpreters_teardown():
    """os._exit skips exit handlers and the flush of open files. cli.entry
    ends the icewatch process with it once the standard streams are
    flushed, and pipeline._fork_share ends each forked child with it; no
    other path may."""
    used = {module: functions_using(PACKAGE / f"{module}.py", "os", "_exit") for module in MODULES}
    assert {module: names for module, names in used.items() if names} == {
        "cli": {"entry"},
        "pipeline": {"_fork_share"},
    }


def test_the_exit_guard_sees_every_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import os as o\nfrom os import _exit\n"
        "def f():\n    o._exit(0)\nclass A:\n    def g(self):\n        import os\n        os._exit(1)\n"
        "def h():\n    from os import _exit as quit\n    return o.exit\n"
    )
    assert functions_using(probe, "os", "_exit") == {"<module>", "f", "A.g", "h"}


def test_the_console_script_is_entry():
    """The icewatch command and python -m icewatch.cli share one exit path."""
    import tomllib

    pyproject = tomllib.loads((PACKAGE.parent.parent / "pyproject.toml").read_text(encoding="utf-8"))
    assert pyproject["project"]["scripts"] == {"icewatch": "icewatch.cli:entry"}


# --- the line count of tests/code_lines.py --------------------------------------------


def test_code_lines_counts_each_kind():
    from code_lines import count_lines

    source = '''"""A module docstring

over three lines."""

import os  # a trailing comment makes no comment line


class A:
    """One line."""

    # a comment
    x = """not a docstring:
    a string's lines are code"""

    def f(self):
        """Two
        lines."""
        return os.sep
'''
    assert count_lines(source) == {"code": 6, "docstring": 6, "comment": 1, "blank": 5}
