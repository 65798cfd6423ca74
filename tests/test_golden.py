"""Committed report bodies, compared byte for byte.

A report body is the behaviour contract of a command: for a fixed command,
configuration and seed it must not change. Each case below runs the CLI at a
small size and compares the body with the file committed under ``golden/``:

* JSON: the ``body`` object, dumped with ``indent=2, sort_keys=True``. The
  header is left out because it carries the timestamp.
* CSV: every line except the ``# key=value`` header comments.

A change that alters a body on purpose regenerates the files with
``PYTHONPATH=src python tests/test_golden.py`` and says why in CHANGES.md.
"""
import json
import sys
from pathlib import Path

import pytest

from manyminds import cli

GOLDEN = Path(__file__).parent / "golden"

TREE_SPEC = {"events": [
    {"probs": [1 / 3, 2 / 3]},
    {"skip": True},
    {"id": "third", "labels": ["a", "b", "c"], "probs": [0.5, 0.25, 0.25]},
]}

# ghz runs at 25,600 minds so that the per-cell band check (n >= 256 * 100) runs
CASES = {
    "tree": ["tree", "--spec", "{spec}", "--minds", "5000", "--seed", "3"],
    "epr_joint": ["epr", "--minds", "2000", "--seed", "5"],
    "epr_independent": ["epr", "--minds", "2000", "--seed", "5", "--policy", "independent"],
    "epr_bob45": ["epr", "--minds", "2000", "--seed", "5", "--bob-axis", "45"],
    "hulk_independent": ["hulk", "--trials", "20000", "--seed", "1"],
    "hulk_joint": ["hulk", "--trials", "20000", "--seed", "1", "--policy", "joint"],
    "ghz": ["ghz", "--minds", "25600", "--seed", "2"],
    "chsh": ["chsh", "--trials", "20000", "--seed", "4"],
    "enumerate": ["enumerate", "--seed", "0"],
}
FORMATS = ("json", "csv")


def render_body(name: str, fmt: str, workdir: Path) -> str:
    """Run one case through ``cli.main`` and return its body text."""
    spec = workdir / "tree_spec.json"
    spec.write_text(json.dumps(TREE_SPEC))
    out = workdir / f"{name}.{fmt}"
    argv = [str(spec) if a == "{spec}" else a for a in CASES[name]]
    cli.main(argv + ["--format", fmt, "--out", str(out)])
    text = out.read_text()
    if fmt == "json":
        return json.dumps(json.loads(text)["body"], indent=2, sort_keys=True) + "\n"
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith("# "))


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_body_matches_golden(name, fmt, tmp_path, monkeypatch):
    monkeypatch.delenv(cli.ENV_SEED, raising=False)
    want = (GOLDEN / f"{name}.{fmt}").read_text()
    assert render_body(name, fmt, tmp_path) == want


def test_ghz_case_runs_the_cell_band_check():
    body = json.loads((GOLDEN / "ghz.json").read_text())
    assert "cell_frequency_band" in {c["name"] for c in body["checks"]}


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            for fmt in FORMATS:
                (GOLDEN / f"{case}.{fmt}").write_text(render_body(case, fmt, Path(tmp)))
    sys.exit(0)
