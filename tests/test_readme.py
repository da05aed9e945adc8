"""README command examples: every ``$ flipforge`` example whose output the
README shows is run in-process, in an empty directory, and must print exactly
that output."""

import re
import shlex
from pathlib import Path

import pytest

from flipforge.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _examples() -> list[tuple[str, str]]:
    """(command line, shown output) per example; output runs from the line
    after the command to the next command, blank line or end of block."""
    found = []
    text = README.read_text(encoding="utf-8")
    for block in re.findall(r"^```\n(.*?)^```", text, re.M | re.S):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, _, rest = chunk.partition("\n")
            shown = rest.split("\n\n")[0].rstrip("\n")
            if command.startswith("flipforge ") and shown:
                found.append((command, shown + "\n"))
    return found


EXAMPLES = _examples()


def test_examples_found():
    assert [command for command, _ in EXAMPLES] == [
        "flipforge construct-br --b 4 --r 5 --verify",
        "flipforge construct-br --b 6 --r 7 --out g.json",
        "flipforge bounds --b 11,25 | head -4",
        "flipforge gaps-plan --q 2 --k 9 --prefix-e 140,135 --prefix-deg 42,135 --out plan.json",
        "flipforge gaps-plan --q 2 --k 9 --from-br 42,135 --out plan.json",
        "flipforge gaps-plan --q 2 --k 11 --from-br 42,135 --out plan.json",
        "flipforge search-sumfree --group z:8",
    ]


@pytest.mark.parametrize("command, shown", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_example_prints_what_the_readme_shows(command, shown, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = shlex.split(command)
    head = None
    if "|" in argv:
        cut = argv.index("|")
        assert argv[cut + 1] == "head", command
        head = int(argv[cut + 2].lstrip("-"))
        argv = argv[:cut]
    main(argv[1:])
    out = capsys.readouterr().out
    if head is not None:
        out = "".join(out.splitlines(keepends=True)[:head])
    assert out == shown
