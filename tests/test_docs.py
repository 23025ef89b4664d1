"""The README's verifier table and the command line's choices follow the
verifier table in `ncomplex.verify`."""
import argparse
import re
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


def test_verify_choices_are_the_ids_aliases_and_all():
    parser = build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction))
    which = next(a for a in commands.choices["verify"]._actions if a.dest == "which")
    assert set(which.choices) == set(VERIFIER_IDS) | set(VERIFIER_ALIASES) | {"all"}
