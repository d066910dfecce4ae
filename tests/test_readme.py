import re
import shlex
from pathlib import Path

from hhrec.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_example_executes():
    text = README.read_text()
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert blocks, "README lost its python example"
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the examples write sequence.csv
    lines = [line for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
             for line in block.splitlines() if line.startswith("hhrec ")]
    assert len(lines) >= 10, "README lost its CLI examples"
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        target = None
        if ">" in argv:  # shell redirect of stdout into a file
            argv, target = argv[:argv.index(">")], argv[argv.index(">") + 1]
        expected = 1 if "negative control" in line else 0
        assert main(argv) == expected, line
        out = capsys.readouterr().out
        if target is not None:
            Path(target).write_text(out)
