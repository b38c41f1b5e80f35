"""Every `$ gpdalg ...` example in README.md prints what the README
shows, and so does its `--format machine` repeat where the README
prints one."""
import pathlib
import re
import shlex

import gpdalg.cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
BLOCK = re.compile(r"^```\n(.*?)^```$", re.S | re.M)


def examples():
    """(argv, printed output) per example, the machine repeat included:
    the code block after a `$ gpdalg` block whose prose names
    `--format machine`."""
    readme = (ROOT / "README.md").read_text()
    blocks = list(BLOCK.finditer(readme))
    out = []
    for this, after in zip(blocks, blocks[1:] + [None]):
        command, _, printed = this.group(1).partition("\n")
        if not command.startswith("$ gpdalg "):
            continue
        argv = shlex.split(command)[2:]
        out.append((argv, printed))
        if after is not None and "--format" not in argv \
                and "`--format machine`" in readme[this.end():after.start()]:
            out.append((argv + ["--format", "machine"], after.group(1)))
    return out


def test_every_readme_example_prints_what_the_readme_shows(capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    found = examples()
    assert len(found) >= 3 and any(argv[-1] == "machine" for argv, _ in found)
    for argv, printed in found:
        code = gpdalg.cli.main(argv)
        out, err = capsys.readouterr()
        assert (code, out, err) == (0, printed, ""), argv
