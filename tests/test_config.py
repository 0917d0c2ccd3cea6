"""PipelineConfig is the one config: the README's defaults table matches it
and the CLI, and no other dataclass restates one of its defaults."""

import argparse
import dataclasses
import importlib
import pkgutil
from pathlib import Path

import weaklabel
from weaklabel import cli
from weaklabel.config import PipelineConfig

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_table() -> dict[str, tuple[str, str]]:
    """Each row of the README's "Configuration defaults" table: field -> (default, flag)."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Configuration defaults\n", 1)[1].split("\n## ", 1)[0]
    rows = [[cell.strip().strip("`") for cell in line.strip("|").split("|")]
            for line in section.splitlines() if line.startswith("| `")]
    return {name: (default, flag) for name, default, flag in rows}


def test_readme_table_lists_each_field_with_its_default_and_flag():
    table = readme_table()
    fields = dataclasses.fields(PipelineConfig)
    assert list(table) == [f.name for f in fields]
    assert {name: default for name, (default, _) in table.items()} == \
        {f.name: repr(f.default) for f in fields}
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    options = {a.dest: ", ".join(a.option_strings) for a in sub.choices["run-all"]._actions}
    assert set(options) - {"help", "config"} <= set(table)  # every other flag sets a field
    assert {name: flag for name, (_, flag) in table.items()} == \
        {name: options.get(name, "config file only") for name in table}


def test_no_other_dataclass_restates_a_config_default():
    defaults = {(f.name, repr(f.default)) for f in dataclasses.fields(PipelineConfig)}
    restated = []
    for info in pkgutil.iter_modules(weaklabel.__path__):
        module = importlib.import_module(f"weaklabel.{info.name}")
        for obj in vars(module).values():
            if (isinstance(obj, type) and dataclasses.is_dataclass(obj)
                    and obj.__module__ == module.__name__ and obj is not PipelineConfig):
                restated += [f"{module.__name__}.{obj.__qualname__}.{f.name}"
                             for f in dataclasses.fields(obj)
                             if (f.name, repr(f.default)) in defaults]
    assert restated == []
