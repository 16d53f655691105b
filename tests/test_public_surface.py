"""The public API is what the README and the benchmark harness use.

``perfbench/tests`` is outside the tier-1 test paths, so these tests read
the harness and the README as source and check every ``review_calib``
name they import.
"""

from __future__ import annotations

import ast
import importlib
import json
import re
import sys
from dataclasses import replace
from pathlib import Path

import review_calib
from review_calib import ExperimentConfig
from review_calib.cli import build_parser

ROOT = Path(__file__).parents[1]
ERROR_TYPES = {"ConfigurationError", "GenerationError"}


def _readme_blocks(language: str) -> list[str]:
    blocks = (ROOT / "README.md").read_text(encoding="utf-8").split("```")
    return [b[len(language) :] for b in blocks[1::2] if b.startswith(language + "\n")]


def _review_calib_imports(source: str) -> set[tuple[str, str]]:
    """(module, name) for each ``from review_calib[.module] import name`` in the source."""
    return {
        (node.module, alias.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "review_calib"
        for alias in node.names
    }


def test_all_is_what_the_readme_and_harness_import():
    imports = _review_calib_imports((ROOT / "perfbench" / "harness.py").read_text(encoding="utf-8"))
    examples = [b for b in _readme_blocks("python") if "from review_calib import" in b]
    assert examples, "README has no library example"
    for example in examples:
        imports |= _review_calib_imports(example)
    for module, name in sorted(imports):
        assert hasattr(importlib.import_module(module), name), f"{module}.{name} does not resolve"
    top_level = {name for module, name in imports if module == "review_calib"}
    assert sorted(review_calib.__all__) == sorted(top_level | ERROR_TYPES)


def test_readme_config_example_gives_the_defaults():
    (example,) = [b for b in _readme_blocks("json") if '"gen"' in b]
    config = ExperimentConfig.from_json(json.loads(example))
    assert config.effective_seed == 42
    assert replace(config, master_seed=None) == ExperimentConfig()


def test_readme_cli_synopsis_lists_every_flag():
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## CLI\n")[1]
    synopsis = section.split("```bash\n")[1].split("```")[0]
    documented = set(re.findall(r"--[a-z][a-z-]*", synopsis))
    flags = {opt for action in build_parser()._actions for opt in action.option_strings if opt.startswith("--")}
    assert documented == flags - {"--help"}


def test_the_package_imports_only_the_standard_library_and_numpy():
    # every import statement, at module level or inside a function, read from the source
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    for path in sorted((ROOT / "src" / "review_calib").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                assert module.split(".")[0] in allowed, f"{path.name}:{node.lineno}: {module}"


def test_the_submodules_import_one_another_without_a_cycle():
    # every ``from .x import`` statement, at module level or inside a function, read from the source
    package = ROOT / "src" / "review_calib"
    modules = {path.stem for path in package.glob("*.py")} - {"__init__", "__main__"}
    imports = {
        module: {
            node.module
            for node in ast.walk(ast.parse((package / f"{module}.py").read_text(encoding="utf-8")))
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in modules
        }
        for module in modules
    }
    assert imports["bench"] and imports["estimators"]  # the reader sees the package's imports
    done: set[str] = set()

    def visit(module: str, path: tuple[str, ...]) -> None:
        assert module not in path, f"import cycle: {' -> '.join((*path[path.index(module) :], module))}"
        if module not in done:
            for imported in sorted(imports[module]):
                visit(imported, (*path, module))
            done.add(module)

    for module in sorted(modules):
        visit(module, ())


def test_every_source_file_parses_at_the_declared_python_floor():
    # tomllib arrived in Python 3.11, so the floor is read with a regex
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    floor = tuple(map(int, re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', pyproject, re.M).groups()))
    paths = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py")])
    assert len(paths) > 10
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=floor)
