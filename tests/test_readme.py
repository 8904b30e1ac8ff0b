"""The README's quickstarts run as written."""

import re
import shlex
from pathlib import Path

from swifttrap import LAGRANGIANS
from swifttrap.cli import OUT_ENV, main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.S | re.M)
    assert blocks, "README has no python block"
    for k, block in enumerate(blocks):
        exec(compile(block, f"{README.name} python block {k}", "exec"), {"__name__": "readme"})


def _cli_quickstart() -> list[tuple[list[str], list[str]]]:
    """The command-line quickstart's `$ ` commands, each with the lines shown after it."""
    section = README.read_text().split("## Quickstart (command line)", 1)[1]
    block = re.search(r"^```sh\n(.*?)^```$", section, flags=re.S | re.M).group(1)
    session: list[tuple[list[str], list[str]]] = []
    for line in block.replace("\\\n", " ").splitlines():
        if line.startswith("$ "):
            session.append((shlex.split(line[2:]), []))
        elif line.strip():
            session[-1][1].append(line)
    return session


def test_readme_cli_quickstart_prints_as_shown(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(OUT_ENV, raising=False)
    ran = []
    for argv, shown in _cli_quickstart():
        if argv[0] == "ls":
            continue
        assert argv[0] == "swifttrap"
        main(argv[1:])
        assert capsys.readouterr().out.splitlines() == shown, " ".join(argv)
        ran.append(argv[1])
    assert ran == ["optimize", "verify"]


def test_readme_cost_table_lists_every_cost():
    # one row per entry of LAGRANGIANS and no other, so a new cost brings its row
    table = re.search(r"^\| cost \| `A\(s\)` \| `B\(s\)` \| `C\(s\)` \|\n\|[-|]+\|\n((?:\|.*\n)+)",
                      README.read_text(), flags=re.M)
    assert table, "README has no cost table"
    rows = [line.split("|")[1].strip() for line in table.group(1).splitlines()]
    assert rows == list(LAGRANGIANS)
