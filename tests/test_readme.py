"""The README's shell and Python examples run as written.

Each ``$ cat FILE`` in a code block shows a file, which the tests write out;
each ``$ raagv ...`` line that shows output is run through ``cli.main`` in
that directory, and its stdout followed by its stderr must be the lines the
README shows under it.  A ``printf ... |`` in front of the command becomes
its stdin.  The ``python`` blocks run in order in one namespace, and each
line a ``print`` writes must begin the comment on that ``print``'s line.
"""

import io
import re
import shlex
from pathlib import Path

import pytest

from raagv.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def shell_examples() -> tuple[dict[str, str], list[tuple[str, str]]]:
    """The files ``$ cat`` shows, and (command, shown text) for every other
    ``$`` line: the lines under it up to a blank line or the block's end."""
    runs: list[tuple[str, list[str]]] = []
    shown = None
    in_block = False
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_block, shown = not in_block, None
        elif in_block and line.startswith("$ "):
            shown = []
            runs.append((line[2:], shown))
        elif shown is not None and line:
            shown.append(line)
        else:
            shown = None
    files, commands = {}, []
    for command, lines in runs:
        text = "".join(f"{line}\n" for line in lines)
        if command.startswith("cat "):
            files[command[4:]] = text
        elif text:
            commands.append((command, text))
    return files, commands


FILES, COMMANDS = shell_examples()


def test_readme_shows_its_files_and_commands():
    assert set(FILES) == {"square.el", "tail.el"}
    assert len(COMMANDS) == 8


@pytest.mark.parametrize("command, shown", COMMANDS, ids=[c for c, _ in COMMANDS])
def test_readme_command_prints_what_it_shows(tmp_path, capsys, monkeypatch, command, shown):
    for name, text in FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    argv = shlex.split(command, comments=True)
    if "|" in argv:
        bar = argv.index("|")
        assert argv[:bar - 1] == ["printf"]
        monkeypatch.setattr("sys.stdin", io.StringIO(argv[bar - 1].replace("\\n", "\n")))
        argv = argv[bar + 1:]
    assert argv[0] == "raagv"
    main(argv[1:])
    out, err = capsys.readouterr()
    assert out + err == shown


def python_examples() -> list[str]:
    """The README's ``python`` code blocks, in order."""
    return re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_python_examples_print_what_they_show(capsys):
    blocks = python_examples()
    assert len(blocks) == 2
    namespace: dict = {}
    for block in blocks:
        # a later block uses the names an earlier one binds
        exec(block, namespace)
        shown = [line.split("# ", 1)[1] for line in block.splitlines() if line.startswith("print(")]
        printed = capsys.readouterr().out.splitlines()
        assert len(printed) == len(shown)
        for out, comment in zip(printed, shown):
            assert comment.startswith(out)
