"""The README's library example runs as written, at a smaller size, and its
command-line examples parse."""
import re
import shlex
from pathlib import Path

from manyminds import cli

README = Path(__file__).resolve().parents[1] / "README.md"
SMALL_N = "4096"


def library_block() -> str:
    section = README.read_text().split("## Library", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs():
    code, swaps = re.subn(r"\b\d{6,}\b", SMALL_N, library_block())
    assert swaps == 2  # n_minds and the scenario sample size
    ns = {}
    exec(compile(code, str(README), "exec"), ns)
    assert ns["run"].record.pair_count("+", "+") == 0
    assert all(c.all_consistent for c in ns["run"].report_checks)
    assert ns["report"].n == int(SMALL_N)


def test_command_line_examples_parse():
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    argvs = [shlex.split(line.split("#", 1)[0])[1:] for line in block.splitlines()
             if line.startswith("manyminds ")]
    parser = cli.build_parser()
    assert [parser.parse_args(argv).command for argv in argvs] == [argv[0] for argv in argvs]
    assert {argv[0] for argv in argvs} == set(cli._COMMANDS)
