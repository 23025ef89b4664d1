"""The README's verifier table and the command line's choices follow the
verifier table in `ncomplex.verify`, its library table names every module,
the README's quick tour runs, its command lines parse, and the module
constants it names exist."""
import argparse
import importlib
import re
import shlex
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

from ncomplex.cli import build_parser
from ncomplex.verify import VERIFIER_ALIASES, VERIFIER_IDS

README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_verifier_rows():
    section = README.read_text(encoding="utf-8").split("## Verifiers", 1)[1]
    section = section.split("\n## ", 1)[0]
    return [line.split("|")[1] for line in section.splitlines()
            if line.startswith("| `")]


def test_readme_lists_every_verifier_in_table_order():
    rows = _readme_verifier_rows()
    assert [re.search(r"`([^`]+)`", cell).group(1) for cell in rows] == list(VERIFIER_IDS)
    aliases = {alias: re.search(r"`([^`]+)`", cell).group(1)
               for cell in rows for alias in re.findall(r"alias `([^`]+)`", cell)}
    assert aliases == VERIFIER_ALIASES


def test_readme_library_table_lists_every_module():
    section = README.read_text(encoding="utf-8").split("## Library overview", 1)[1]
    section = section.split("\n## ", 1)[0]
    rows = re.findall(r"^\| `ncomplex\.(\w+)` \|", section, re.M)
    package = Path(importlib.import_module("ncomplex").__file__).parent
    modules = {p.stem for p in package.glob("*.py")} - {
        "__init__", "__main__", "errors", "cli"}
    assert sorted(rows) == sorted(modules)


def test_verify_choices_are_the_ids_aliases_and_all():
    parser = build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction))
    which = next(a for a in commands.choices["verify"]._actions if a.dest == "which")
    assert set(which.choices) == set(VERIFIER_IDS) | set(VERIFIER_ALIASES) | {"all"}


def test_readme_commands_parse():
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    commands = [words[words.index("ncomplex") + 1:] for words in commands
                if "ncomplex" in words]
    assert len(commands) == 8
    for argv in commands:
        build_parser().parse_args(argv)


def test_readme_quick_tour_runs_and_prints_what_it_says():
    text = README.read_text(encoding="utf-8")
    tour = re.search(r"```python\n(from ncomplex import \*\n.*?)```", text, re.S).group(1)
    out = StringIO()
    with redirect_stdout(out):
        exec(compile(tour, "README quick tour", "exec"), {})
    assert out.getvalue().splitlines() == ["['0', '0', '0', 'Z^11']", "8"]


def test_readme_constants_exist():
    text = README.read_text(encoding="utf-8")
    named = re.findall(r"`([a-z_]+)\.([A-Z][A-Z0-9_]*)`", text)
    assert named
    for module, name in named:
        assert hasattr(importlib.import_module(f"ncomplex.{module}"), name), \
            f"{module}.{name}"
