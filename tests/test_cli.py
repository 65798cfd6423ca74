"""CLI plumbing: config resolution, reports, exit codes, determinism."""
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from manyminds import cli
from manyminds import epr, ghz, quantum
from manyminds.rng import CHUNK, sample_indices
from manyminds.walks import WalkResult, build_tree, random_walk, tree_spec_from_json


def run_to_file(tmp_path, argv, name="report.json"):
    out = tmp_path / name
    status = cli.main(argv + ["--out", str(out)])
    return status, out


def load(out):
    return json.loads(out.read_text())


TREE_SPEC = {"events": [{"probs": [1 / 3, 2 / 3]},
                        {"probs": [1 / 3, 1 / 3, 1 / 3]}]}


@pytest.fixture
def tree_spec_path(tmp_path):
    p = tmp_path / "tree.json"
    p.write_text(json.dumps(TREE_SPEC))
    return str(p)


class TestCommands:
    def test_enumerate(self, tmp_path):
        status, out = run_to_file(tmp_path, ["enumerate", "--seed", "1"])
        assert status == 0
        report = load(out)
        assert report["body"]["satisfying"] == 0
        assert report["body"]["total"] == 64
        assert report["header"]["command"] == "enumerate"
        assert report["header"]["schema_version"] == 3

    def test_tree(self, tmp_path, tree_spec_path):
        status, out = run_to_file(tmp_path, ["tree", "--spec", tree_spec_path,
                                             "--minds", "20000", "--seed", "4"])
        assert status == 0
        body = load(out)["body"]
        assert len(body["leaves"]) == 6
        assert body["all_checks_passed"] is True
        assert sum(leaf["count"] for leaf in body["leaves"]) == 20000

    def test_tree_of_65_one_outcome_events(self, tmp_path):
        # exited 1 with numpy's "maximum supported dimension for an ndarray is 64"
        spec = write_tree_spec(tmp_path, [[1.0]] * 65)
        status, out = run_to_file(tmp_path, ["tree", "--spec", spec, "--minds", "100"])
        assert status == 0
        body = load(out)["body"]
        assert body["leaves"] == [{"count": 100, "exact_prob": 1.0, "path": "/".join("1" * 65)}]
        assert body["event_marginals"] == {f"t{k}": {"1": 1.0} for k in range(1, 66)}
        # one leaf leaves the fit no degree of freedom, so nothing is tested
        assert "chi_square_fit" not in [c["name"] for c in body["checks"]]
        assert "chi_square_pvalue" not in body

    def test_epr_joint(self, tmp_path):
        status, out = run_to_file(tmp_path, ["epr", "--minds", "20000", "--seed", "5"])
        assert status == 0
        body = load(out)["body"]
        assert body["communication"] == "performed"
        assert body["record"]["report_consistent"] is True
        assert body["record"]["pair_counts"][0][0] == 0
        assert body["record"]["pair_counts"][1][1] == 0

    @pytest.mark.parametrize("axis, text", [("y", "y"), ("0", "0deg"), ("-45", "-45deg"),
                                            ("1e-7", "1e-07deg"), ("360", "360deg"),
                                            ("22.5", "22.5deg")])
    def test_epr_axis_texts(self, tmp_path, axis, text):
        status, out = run_to_file(tmp_path, ["epr", f"--alice-axis={axis}", "--minds", "1000"])
        assert status == 0
        body = load(out)["body"]
        assert (body["alice_axis"], body["bob_axis"]) == (text, "z")

    def test_epr_independent_tilted(self, tmp_path):
        status, out = run_to_file(tmp_path, ["epr", "--minds", "5000", "--seed", "5",
                                             "--policy", "independent",
                                             "--bob-axis", "45"])
        assert status == 0
        body = load(out)["body"]
        assert body["communication"] == "skipped"
        assert body["record"]["report_consistent"] is None

    def test_hulk_default_policy_is_single_mind(self, tmp_path):
        status, out = run_to_file(tmp_path, ["hulk", "--trials", "30000", "--seed", "1"])
        assert status == 0
        body = load(out)["body"]
        assert body["policy"] == "independent/single-mind"
        assert abs(body["mismatch_rate"] - 0.5) <= 4 * math.sqrt(0.5 * 0.5 / 30000)

    def test_hulk_joint_rate_zero(self, tmp_path):
        status, out = run_to_file(tmp_path, ["hulk", "--trials", "5000", "--seed", "1",
                                             "--policy", "joint"])
        assert status == 0
        assert load(out)["body"]["mismatch_rate"] == 0.0

    def test_ghz(self, tmp_path):
        status, out = run_to_file(tmp_path, ["ghz", "--minds", "30000", "--seed", "7"])
        assert status == 0
        body = load(out)["body"]
        assert body["enumeration"] == {"total": 64, "satisfying": 0}
        assert body["cells"]["nonempty"] == 256
        assert body["witnesses"] == {"cells_without_witness": 0,
                                     "sampled_triples_without_witness": 0}
        assert body["constraints"]["XXX"]["expectation"] == pytest.approx(-1.0, abs=1e-9)

    def test_ghz_counts_every_cell_without_a_witness(self, tmp_path, monkeypatch):
        # a witness table with gaps: the body counts each cell that has none, once
        table = np.ones(256, bool)
        table[[0, 17, 255]] = False
        monkeypatch.setattr(ghz, "_HAS_WITNESS", table)
        status, out = run_to_file(tmp_path, ["ghz", "--minds", "3000", "--seed", "7"])
        body = load(out)["body"]
        assert body["witnesses"]["cells_without_witness"] == 3
        assert status != 0 and not body["all_checks_passed"]

    def test_chsh(self, tmp_path):
        status, out = run_to_file(tmp_path, ["chsh", "--trials", "20000", "--seed", "9"])
        assert status == 0
        body = load(out)["body"]
        assert body["exact"] == pytest.approx(2 ** 1.5, abs=1e-9)
        se_sq = sum(1 - pair["exact"] ** 2 for pair in body["pairs"]) / 20000
        assert abs(body["estimate"] - body["exact"]) <= 4 * math.sqrt(se_sq)

    def test_chsh_custom_axes_degenerate(self, tmp_path):
        status, out = run_to_file(tmp_path, ["chsh", "--trials", "2000", "--seed", "9",
                                             "--axes", "z", "z", "z", "z"])
        assert status == 0
        assert load(out)["body"]["exact"] == pytest.approx(2.0, abs=1e-9)

    @pytest.mark.parametrize("events", [
        [{"probs": [1.0, 0.0]}, {"probs": [0.5, 0.5]}],
        [{"probs": [1.0]}],
    ])
    def test_tree_with_single_or_zero_probability_outcomes(self, tmp_path, events):
        # these trees used to get a NaN chi-square p-value and exit 2
        spec = tmp_path / "tree.json"
        spec.write_text(json.dumps({"events": events}))
        status, out = run_to_file(tmp_path, ["tree", "--spec", str(spec), "--minds", "1000"])
        assert status == 0

        def reject(name):
            raise ValueError(f"non-finite number {name} in report")

        body = json.loads(out.read_text(), parse_constant=reject)["body"]
        assert body["all_checks_passed"] is True

    @pytest.mark.parametrize("events", [[[0.3333333333] * 3] * 10, [[0.5, 0.5000000009]] * 2],
                             ids=["ten-thirds", "two-halves"])
    def test_tree_whose_events_each_sum_to_one_within_tolerance(self, tmp_path, events):
        # each event passes its own sum check, but their errors add up over the leaves,
        # whose sum build_tree compared with 1 and refused: exit 1
        spec = write_tree_spec(tmp_path, events)
        status, out = run_to_file(tmp_path, ["tree", "--spec", spec, "--minds", "1000"])
        assert status == 0
        checks = {c["name"]: c["passed"] for c in load(out)["body"]["checks"]}
        assert checks["leaf_probabilities_normalized"] is True


COLD_START = textwrap.dedent("""
    import json, os, sys
    from manyminds import cli

    def scipy_modules():
        return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

    out = os.path.join(sys.argv[1], "report.json")
    status = [cli.main(argv + ["--out", out]) for argv in (
        ["epr", "--minds", "10000", "--seed", "3"],
        ["epr", "--minds", "10000", "--seed", "3", "--policy", "independent"],
        ["hulk", "--trials", "20000", "--seed", "11"],
        ["ghz", "--minds", "20000", "--seed", "7"],
        ["chsh", "--trials", "10000", "--seed", "13"],
        ["enumerate"],
    )]
    before_tree = scipy_modules()
    status.append(cli.main(["tree", "--spec", sys.argv[2], "--minds", "1000", "--out", out]))
    print(json.dumps({"status": status, "before_tree": before_tree,
                      "after_tree": scipy_modules()}))
""")


def test_no_command_loads_scipy(tmp_path, tree_spec_path):
    # a fresh interpreter, so modules the test session imported do not count
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", COLD_START, str(tmp_path), tree_spec_path],
                          env=env, capture_output=True, text=True, timeout=300, check=True)
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen["status"] == [0] * 7
    assert seen["before_tree"] == []
    assert seen["after_tree"] == []


def test_no_module_imports_scipy():
    modules = Path(cli.__file__).parent.glob("*.py")
    assert [p.name for p in modules
            if any(s in p.read_text() for s in ("import scipy", "from scipy"))] == []


def test_no_module_reads_the_environment():
    # a run is set by its flags and config file alone, never by process state
    modules = Path(cli.__file__).parent.glob("*.py")
    assert [p.name for p in modules
            if any(s in p.read_text() for s in ("environ", "getenv"))] == []


LOADED = textwrap.dedent("""
    import json, sys
    from manyminds import cli

    status = cli.main(json.loads(sys.argv[1])) if len(sys.argv) > 1 else None
    print(json.dumps({"status": status, "modules": sorted(
        m for m in sys.modules if m.split(".")[0] == "manyminds"
        or m in ("concurrent.futures", "fractions"))}))
""")
# what a bare import of cli loads of the package; a command loads these and its own layers
BASE = {"manyminds", "manyminds.cli", "manyminds.quantum", "manyminds.rng", "manyminds.walks"}
OWN_LAYERS = {"tree": set(), "ghz": {"manyminds.ghz"}, "enumerate": {"manyminds.ghz"},
              **dict.fromkeys(("epr", "hulk", "chsh"), {"manyminds.minds", "manyminds.epr"})}


def loaded_modules(*argv) -> tuple:
    """(exit status, modules of interest loaded) of a fresh interpreter that imports cli
    and, given ``argv``, runs ``cli.main(argv)``."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    args = [json.dumps(argv)] if argv else []
    proc = subprocess.run([sys.executable, "-c", LOADED, *args], env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    seen = json.loads(proc.stdout.splitlines()[-1])
    return seen["status"], set(seen["modules"])


def test_importing_cli_loads_no_command_layer():
    assert loaded_modules() == (None, BASE)


@pytest.mark.parametrize("argv", [["tree", "--minds", "1000"], ["epr", "--minds", "1000"],
                                  ["hulk", "--trials", "1000"], ["ghz", "--minds", "1000"],
                                  ["chsh", "--trials", "1000"], ["enumerate"]],
                         ids=lambda argv: argv[0])
def test_each_command_loads_only_its_own_layers(argv, tmp_path, tree_spec_path):
    # a one-thread run never needs the pool, so it leaves concurrent.futures unloaded
    spec = ["--spec", tree_spec_path] if argv[0] == "tree" else []
    status, loaded = loaded_modules(*argv, *spec, "--threads", "1",
                                    "--out", str(tmp_path / "report.json"))
    assert status == 0
    assert loaded - {"fractions"} == BASE | OWN_LAYERS[argv[0]]


def test_a_fresh_pool_run_gives_the_one_thread_body(tmp_path):
    # 2 * CHUNK minds are two windows, so two threads count them in a pool
    bodies = []
    for threads in ("1", "2"):
        out = tmp_path / f"ghz{threads}.json"
        status, loaded = loaded_modules("ghz", "--minds", str(2 * CHUNK), "--threads", threads,
                                        "--out", str(out))
        assert status == 0
        assert ("concurrent.futures" in loaded) == (threads == "2" and (os.cpu_count() or 1) > 1)
        bodies.append(load(out)["body"])
    assert bodies[0] == bodies[1]


def test_default_chsh_axes_are_defined_once():
    assert cli.RunConfig(command="chsh").axes is epr.DEFAULT_CHSH_AXES is quantum.DEFAULT_CHSH_AXES


class TestConfigResolution:
    def test_config_file_supplies_values(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": "hulk", "trials": 4000,
                                   "seed": 17, "policy": "joint"}))
        status, out = run_to_file(tmp_path, ["hulk", "--config", str(cfg)])
        assert status == 0
        report = load(out)
        assert report["header"]["seed"] == 17
        assert report["header"]["seed_source"] == "config"
        assert report["header"]["n"] == 4000

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": 4000, "seed": 17}))
        status, out = run_to_file(tmp_path, ["hulk", "--config", str(cfg),
                                             "--seed", "99", "--trials", "2000"])
        assert status == 0
        header = load(out)["header"]
        assert header["seed"] == 99
        assert header["seed_source"] == "flag"
        assert header["n"] == 2000

    def test_environment_sets_no_seed(self, tmp_path, monkeypatch):
        # the seed comes only from a flag or the config file
        monkeypatch.setenv("MANYMINDS_SEED", "abc")
        status, out = run_to_file(tmp_path, ["enumerate"])
        assert status == 0
        header = load(out)["header"]
        assert (header["seed"], header["seed_source"]) == (0, "default")

    def test_command_mismatch_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": "ghz"}))
        assert cli.main(["hulk", "--config", str(cfg)]) == 1
        assert "command" in capsys.readouterr().err

    def test_unknown_config_keys_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"walkers": 5}))
        assert cli.main(["hulk", "--config", str(cfg)]) == 1
        assert "unknown keys" in capsys.readouterr().err

    def test_malformed_config_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert cli.main(["hulk", "--config", str(cfg)]) == 1
        assert "not valid JSON" in capsys.readouterr().err


# the flags each command takes besides --config, --seed, --threads, --out and --format
OWN_FLAGS = {"tree": ["--minds", "10", "--spec", "tree.json"],
             "epr": ["--minds", "10", "--policy", "joint", "--alice-axis", "x", "--bob-axis", "45"],
             "hulk": ["--trials", "10", "--policy", "joint"],
             "ghz": ["--minds", "10"],
             "chsh": ["--trials", "10", "--axes", "0", "90", "45", "-45"],
             "enumerate": []}


class TestCommandSettings:
    @pytest.mark.parametrize("command", sorted(OWN_FLAGS))
    def test_every_own_flag_parses(self, command):
        argv = [command, "--config", "c.json", "--seed", "1", "--threads", "2", "--out", "r.csv",
                "--format", "csv", *OWN_FLAGS[command]]
        assert cli.build_parser().parse_args(argv).command == command

    @pytest.mark.parametrize("command, flag", [
        ("tree", "--trials"), ("tree", "--policy"), ("epr", "--trials"), ("hulk", "--minds"),
        ("ghz", "--trials"), ("ghz", "--policy"), ("chsh", "--minds"), ("chsh", "--policy"),
        ("enumerate", "--minds"), ("enumerate", "--trials"), ("enumerate", "--policy")])
    def test_flag_the_command_does_not_read_exits_one(self, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, flag, "joint" if flag == "--policy" else "5"])
        assert exc.value.code == 1
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, cfg", [
        ("ghz", {"trials": 5}), ("epr", {"axes": [0, 90, 45, -45]}), ("hulk", {"minds": 5}),
        ("chsh", {"policy": "joint"}), ("tree", {"alice_axis": "x"}), ("enumerate", {"spec": "t"})])
    def test_config_key_the_command_does_not_read_exits_one(self, tmp_path, capsys, command, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli.main([command, "--config", str(path)]) == 1
        assert f"unknown keys: {list(cfg)}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["tree", "--minds", "100"], ["epr", "--minds", "100"],
                                      ["hulk", "--trials", "100"], ["ghz", "--minds", "100"],
                                      ["chsh", "--trials", "100"], ["enumerate"]],
                             ids=lambda argv: argv[0])
    def test_header_names_a_policy_only_for_epr_and_hulk(self, tmp_path, tree_spec_path, argv):
        spec = ["--spec", tree_spec_path] if argv[0] == "tree" else []
        for fmt in ("json", "csv"):
            status, out = run_to_file(tmp_path, argv + spec + ["--format", fmt])
            assert status == 0
            text = out.read_text()
            header = load(out)["header"] if fmt == "json" else dict(
                line[2:].split("=", 1) for line in text.splitlines() if line.startswith("# "))
            policy = {"epr": "joint", "hulk": "independent"}.get(argv[0])
            assert header.get("policy") == policy
            assert {"command", "n", "seed", "seed_source", "threads"} <= set(header)

    def test_hulk_runs_one_default_policy_in_process_and_from_the_cli(self, tmp_path):
        status, out = run_to_file(tmp_path, ["hulk", "--trials", "1000", "--seed", "5"])
        _, report = cli.run(cli.RunConfig("hulk", trials=1000, seed=5))
        assert status == 0
        assert load(out)["header"]["policy"] == report["header"]["policy"] == "independent"
        assert load(out)["body"] == json.loads(cli.render_json(report))["body"]


class TestUsageErrors:
    def test_zero_minds(self, tree_spec_path):
        assert cli.main(["tree", "--spec", tree_spec_path, "--minds", "0"]) == 1

    def test_missing_tree_spec(self):
        assert cli.main(["tree"]) == 1

    def test_unknown_command_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["bogus"])
        assert exc.value.code == 1

    def test_no_command(self, capsys):
        assert cli.main([]) == 1

    @pytest.mark.parametrize("where", ["missing_directory", "directory"])
    def test_unwritable_out_refused_before_the_run(self, tmp_path, monkeypatch, capsys, where):
        out = tmp_path / "missing" / "x.json" if where == "missing_directory" else tmp_path
        ran = []
        monkeypatch.setattr(cli, "run", ran.append)
        assert cli.main(["enumerate", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("manyminds: error: ") and err.count("\n") == 1
        assert "Traceback" not in err and str(out) in err
        assert ran == []

    def test_out_kept_when_the_run_fails(self, tmp_path, capsys):
        spec, out = tmp_path / "bad.json", tmp_path / "report.json"
        spec.write_text("{not json")
        out.write_text("earlier report")
        assert cli.main(["tree", "--spec", str(spec), "--out", str(out)]) == 1
        assert out.read_text() == "earlier report"

    def test_out_made_for_a_failing_run_is_removed(self, tmp_path, capsys):
        spec, out = tmp_path / "bad.json", tmp_path / "new.json"
        spec.write_text("{not json")
        assert cli.main(["tree", "--spec", str(spec), "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("content", [b"{bad", b"\xff{}"], ids=["syntax", "not_utf8"])
    def test_tree_spec_that_is_not_json_names_its_path(self, tmp_path, capsys, content):
        spec = tmp_path / "bad.json"
        spec.write_bytes(content)
        assert cli.main(["tree", "--spec", str(spec)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"manyminds: error: tree spec {str(spec)!r} is not valid JSON: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("content", [b"{bad", b"\xff{}"], ids=["syntax", "not_utf8"])
    def test_config_that_is_not_json_names_its_path(self, tmp_path, capsys, content):
        config = tmp_path / "bad.json"
        config.write_bytes(content)
        assert cli.main(["enumerate", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"manyminds: error: config {str(config)!r} is not valid JSON: ")
        assert err.count("\n") == 1

    def test_bad_axis(self, capsys):
        assert cli.main(["epr", "--alice-axis", "sideways"]) == 1
        assert "axis" in capsys.readouterr().err

    def test_tree_event_id_freq_accepted(self, tmp_path):
        # repeated_frequency draws from its own "freq" scope, outside the "tree" namespace
        spec = tmp_path / "tree.json"
        spec.write_text(json.dumps({"events": [{"id": "freq", "probs": [0.5, 0.5]}]}))
        assert run_to_file(tmp_path, ["tree", "--spec", str(spec)])[0] == 0

    @pytest.mark.parametrize("prob", ["NaN", "Infinity"])
    def test_non_finite_tree_probability_names_the_event(self, tmp_path, capsys, prob):
        spec = tmp_path / "tree.json"
        spec.write_text('{"events": [{"id": "odd", "probs": [%s, 1.0]}]}' % prob)
        assert cli.main(["tree", "--spec", str(spec)]) == 1
        assert "error: odd: probabilities must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["epr", "--bob-axis", "nan"], "--bob-axis"),
        (["epr", "--bob-axis", "inf"], "--bob-axis"),
        (["epr", "--alice-axis=-inf"], "--alice-axis"),
        (["chsh", "--axes", "0", "90", "45", "nan"], "--axes"),
    ])
    def test_non_finite_axis_names_the_flag(self, argv, flag, capsys):
        assert cli.main(argv) == 1
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("command, cfg, key", [
        ("epr", {"minds": "100"}, "minds"),
        ("chsh", {"axes": 5}, "axes"),
        ("epr", {"threads": 2.5}, "threads"),
        ("epr", {"seed": 1.7}, "seed"),
        ("epr", {"seed": True}, "seed"),
        ("epr", {"out": 5}, "out"),
    ])
    def test_config_value_of_wrong_json_type(self, tmp_path, capsys, command, cfg, key):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli.main([command, "--config", str(path)]) == 1
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("spec", [
        {"events": [{"probs": [0.5, 0.5], "labels": ["a", "a"]}]},
        {"events": [{"probs": [0.5, 0.5], "labels": [1, 2]}]},
        {"events": [3]},
        {"events": 3},
        {"events": [{"probs": 0.5}]},
        {"events": [{"probs": [0.5, 0.5], "id": ["e"]}]},
    ])
    def test_malformed_tree_spec(self, tmp_path, capsys, spec):
        path = tmp_path / "tree.json"
        path.write_text(json.dumps(spec))
        assert cli.main(["tree", "--spec", str(path), "--minds", "100"]) == 1
        assert "error" in capsys.readouterr().err


    def test_slash_in_tree_label_exits_one(self, tmp_path, capsys):
        # with "/" allowed, two leaves of this tree both printed as a/b/c
        path = tmp_path / "tree.json"
        path.write_text(json.dumps({"events": [
            {"probs": [0.5, 0.5], "labels": ["a", "a/b"]},
            {"probs": [0.5, 0.5], "labels": ["b/c", "c"]}]}))
        assert cli.main(["tree", "--spec", str(path), "--minds", "100"]) == 1
        assert "'/'" in capsys.readouterr().err

    def test_oversize_tree_refused_before_allocating(self, tmp_path, capsys):
        # 2^40 leaves: building them ran the machine out of memory
        path = tmp_path / "tree.json"
        path.write_text(json.dumps({"events": [{"probs": [0.5, 0.5]}] * 40}))
        tracemalloc.start()
        try:
            status = cli.main(["tree", "--spec", str(path), "--minds", "100"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert status == 1
        assert f"{2**40} leaves" in capsys.readouterr().err
        assert peak < 2**20

    @pytest.mark.parametrize("command, flag", [("ghz", "--minds"), ("hulk", "--trials"),
                                               ("chsh", "--trials"), ("epr", "--minds"),
                                               ("tree", "--minds")])
    def test_oversize_draws_refused_before_allocating(self, tree_spec_path, capsys,
                                                      command, flag):
        # 1e12 draws: 8 TB of uniforms ran the machine out of memory
        spec = ["--spec", tree_spec_path] if command == "tree" else []
        tracemalloc.start()
        try:
            status = cli.main([command, flag, "1000000000000", *spec])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert status == 1
        err = capsys.readouterr().err
        assert f"{flag} 1000000000000" in err and f"{cli.MAX_DRAWS:,} draws" in err
        assert peak < 2**20
        field = flag[2:]
        limit = cli.MAX_DRAWS
        assert cli.RunConfig(command, spec_path="t.json", **{field: limit}).draws == limit
        with pytest.raises(cli.UsageError, match=flag):
            cli.RunConfig(command, spec_path="t.json", **{field: limit + 1})


class TestPhysicsFailureExit:
    def test_failed_check_exits_two(self, tmp_path, monkeypatch, capsys):
        def broken(config):
            payload = {"value": 1.0}
            checks = [cli._check("impossible", False, "forced failure for plumbing test")]
            return payload, checks, [["k", "v"]]

        monkeypatch.setitem(cli._COMMANDS, "enumerate",
                            cli._COMMANDS["enumerate"]._replace(runner=broken))
        status, out = run_to_file(tmp_path, ["enumerate"])
        assert status == 2
        assert load(out)["body"]["all_checks_passed"] is False
        assert "impossible" in capsys.readouterr().err

    def test_leaves_that_are_not_the_events_outer_product_exit_two(self, tmp_path, monkeypatch,
                                                                   tree_spec_path):
        def skewed(spec):
            tree = build_tree(spec)
            return type(tree)(tree.spec, tree.probs * (1 + 1e-6))

        monkeypatch.setattr(cli, "build_tree", skewed)
        # 100 walkers expect too few per leaf for the chi-square fit, which would refuse the sum
        status, out = run_to_file(tmp_path, ["tree", "--spec", tree_spec_path, "--minds", "100"])
        assert status == 2
        checks = {c["name"]: c["passed"] for c in load(out)["body"]["checks"]}
        assert checks["leaf_probabilities_normalized"] is False


# JSON values a report may hold: string keys; text with JSON and format
# punctuation, control and non-ASCII characters; ints past 64 bits; nan and inf
JSON_TEXT = st.text(st.one_of(st.sampled_from('{},"\n%:\\\u00e9\u2603'), st.characters()),
                    max_size=6)
JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-2**70, 2**70),
                         st.floats(), JSON_TEXT)
JSON_ROWS = st.lists(JSON_TEXT, min_size=1, max_size=3, unique=True).flatmap(
    lambda keys: st.lists(st.fixed_dictionaries(dict.fromkeys(keys, JSON_SCALARS)),
                          min_size=1, max_size=5))
JSON_LISTS = st.one_of(
    *(st.lists(s, min_size=1, max_size=6) for s in (
        JSON_SCALARS, JSON_TEXT, st.integers(-2**70, 2**70), st.floats(),
        st.floats(allow_nan=False, allow_infinity=False), st.one_of(st.booleans(), st.integers()),
        st.dictionaries(JSON_TEXT, JSON_SCALARS, max_size=3))),
    JSON_ROWS,
    # long float columns with repeats and both zeros, formatted once per distinct value
    st.lists(st.sampled_from([0.0, -0.0, 5e-324, 1 / 3, 0.1, 1e16, -1.5]),
             min_size=1, max_size=200))
JSON_VALUES = st.recursive(
    st.one_of(JSON_SCALARS, JSON_LISTS),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(JSON_TEXT, inner, max_size=4)),
    max_leaves=12)


def json_dumps_report(report):
    return json.dumps({"header": report["header"], "body": report["body"]},
                      indent=2, sort_keys=True) + "\n"


def block_rows(block):
    """The records of a ``cli.Records`` block as tuples of Python strings, ints and floats."""
    return list(zip(*(c.tolist() if isinstance(c, np.ndarray)
                      else [h + t for h in c[0] for t in c[1]] for c in block.columns)))


def materialised(report):
    """The report with its ``cli.Records`` blocks as the list of dicts and the table of
    rows that ``json.dumps`` and ``csv.writer`` take."""
    body = {k: [dict(zip(v.keys, row)) for row in block_rows(v)]
            if isinstance(v, cli.Records) else v for k, v in report["body"].items()}
    table = report["_csv_table"]
    if isinstance(table, cli.Records):
        table = [list(table.titles), *block_rows(table)]
    return {"header": report["header"], "body": body, "_csv_table": table}


class TestRenderJson:
    @settings(max_examples=500, deadline=None)
    @given(header=st.dictionaries(JSON_TEXT, JSON_SCALARS, max_size=3), body=JSON_VALUES)
    def test_matches_json_dumps_byte_for_byte(self, header, body):
        report = {"header": header, "body": body, "_csv_table": []}
        assert cli.render_json(report) == json_dumps_report(report)

    def test_signed_zeros_stay_apart(self):
        report = {"header": {}, "body": {"zeros": [0.0, -0.0, 0.0]}, "_csv_table": []}
        assert '-0.0' in cli.render_json(report)
        assert cli.render_json(report) == json_dumps_report(report)

    def test_tree_report_never_enters_pure_python_encoder(self, tmp_path, monkeypatch):
        path = tmp_path / "tree.json"
        path.write_text(json.dumps({"events": [{"probs": [1 / 3, 2 / 3]}] * 16}))
        _, report = cli.run(cli.RunConfig(command="tree", minds=1000, spec_path=str(path)))
        rows = materialised(report)
        assert len(rows["body"]["leaves"]) == 65536
        want = json_dumps_report(rows)

        def refuse(*args, **kwargs):
            raise AssertionError("the pure-Python JSON encoder was entered")

        monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
        with pytest.raises(AssertionError, match="pure-Python"):
            json_dumps_report(rows)
        assert cli.render_json(report) == want

    def test_tree_leaves_are_held_as_halves_and_joined_once(self, tmp_path):
        # the run holds 2 x 256 path halves, not 65,536 path texts, and the body is one join
        spec = write_tree_spec(tmp_path, [[1 / 3, 2 / 3]] * 16)
        config = cli.RunConfig("tree", spec_path=spec, minds=1000)
        cli.run(config)
        tracemalloc.start()
        try:
            _, report = cli.run(config)
            retained = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            text = cli.render_json(report)
            peak = tracemalloc.get_traced_memory()[1] - retained
        finally:
            tracemalloc.stop()
        assert retained < 2e6
        assert peak <= 2 * len(text)


def csv_writer_text(report):
    out = io.StringIO()
    out.writelines(f"# {k}={report['header'][k]}\n" for k in sorted(report["header"]))
    csv.writer(out).writerows(report["_csv_table"])
    return out.getvalue()


# cells csv.writer must quote (delimiter, quote, line breaks), cells it writes
# as empty ("" and None), and the text "None" in a cell of its own
CSV_TEXT = st.lists(st.sampled_from(["a", ",", '"', "\r", "\n", " ", "None", "\u00e9"]),
                    max_size=3).map("".join)
CSV_CELLS = st.one_of(CSV_TEXT, st.integers(), st.floats(), st.none())
CSV_ROWS = st.one_of(st.lists(CSV_CELLS, max_size=4), st.tuples(CSV_CELLS, CSV_CELLS, CSV_CELLS))
# tables of one width (0 to 4 columns, none to several rows) and ragged tables
CSV_TABLES = st.one_of(
    st.integers(0, 4).flatmap(lambda w: st.lists(st.lists(CSV_CELLS, min_size=w, max_size=w),
                                                 max_size=5)),
    st.lists(CSV_ROWS, max_size=5))


# small trees whose labels hold CSV and format punctuation, line breaks and non-ASCII
# text that UTF-8 can hold (no lone surrogate); each event has 1 to 3 outcomes, some of
# probability 0
TREE_LABELS = st.text(st.one_of(st.sampled_from(',"\r\n%\u00e9\u2603a'), st.characters(
    blacklist_categories=("Cs",), blacklist_characters="/")), max_size=3)
TREE_EVENT = st.integers(1, 3).flatmap(lambda k: st.fixed_dictionaries({
    "probs": st.lists(st.integers(0, 4), min_size=k, max_size=k).filter(any).map(
        lambda w: [x / sum(w) for x in w]),
    "labels": st.lists(TREE_LABELS, min_size=k, max_size=k, unique=True)}))
TREE_EVENTS = st.lists(TREE_EVENT, min_size=1, max_size=4)
# 0 to 5 measured events among skipped slots
SLOTTED_EVENTS = st.lists(st.one_of(TREE_EVENT, st.just({"skip": True})), max_size=7).filter(
    lambda events: sum("probs" in e for e in events) <= 5)
TIMESTAMP = re.compile(r'\n\s*"timestamp": "[^"]*",?|\n# timestamp=[^\n]*')


class TestOutputFormats:
    def test_stdout_json(self, capsys):
        assert cli.main(["enumerate", "--seed", "1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["body"]["satisfying"] == 0

    def test_csv_format(self, tmp_path, tree_spec_path):
        status, out = run_to_file(tmp_path, ["tree", "--spec", tree_spec_path,
                                             "--minds", "1000", "--seed", "2",
                                             "--format", "csv"], name="report.csv")
        assert status == 0
        lines = out.read_text().splitlines()
        comments = [l for l in lines if l.startswith("# ")]
        assert any(l.startswith("# seed=2") for l in comments)
        data = [l for l in lines if not l.startswith("#")]
        assert data[0] == "leaf_path,count,exact_prob"
        assert len(data) == 7

    @pytest.mark.parametrize("events, minds", [([[1 / 3, 2 / 3]] * 16, 1000),
                                               ([[-0.0, 1.0]], 10)])
    def test_csv_writes_each_float_as_its_repr(self, tmp_path, events, minds):
        spec = write_tree_spec(tmp_path, events)
        _, report = cli.run(cli.RunConfig("tree", spec_path=spec, minds=minds, format="csv"))
        want = io.StringIO()
        want.writelines(f"# {k}={report['header'][k]}\n" for k in sorted(report["header"]))
        csv.writer(want).writerows([["leaf_path", "count", "exact_prob"],
                                    *block_rows(report["body"]["leaves"])])
        # lines, not one 3.8 MB string, so that a failure reports without a text diff
        assert cli.render_csv(report).splitlines() == want.getvalue().splitlines()
        assert ("-0.0" in want.getvalue()) == (minds == 10)

    def test_tree_csv_never_enters_csv_writer(self, tmp_path, monkeypatch):
        spec = write_tree_spec(tmp_path, [[1 / 3, 2 / 3]] * 8)
        _, report = cli.run(cli.RunConfig("tree", spec_path=spec, minds=1000, format="csv"))
        want = csv_writer_text(materialised(report))

        def refuse(*args, **kwargs):
            raise AssertionError("csv.writer was entered")

        monkeypatch.setattr(csv, "writer", refuse)
        assert cli.render_csv(report) == want

    def test_labels_that_need_quoting(self, tmp_path):
        # the body the row template's predecessor, csv.writer alone, wrote
        path = tmp_path / "tree.json"
        path.write_text(json.dumps({"events": [{"probs": [0.5, 0.5], "labels": ["a,b", 'c"d']}]}))
        _, report = cli.run(cli.RunConfig("tree", spec_path=str(path), minds=1000, seed=3,
                                          format="csv"))
        body = cli.render_csv(report).split("\n", len(report["header"]))[-1]
        assert body == 'leaf_path,count,exact_prob\r\n"a,b",499,0.5\r\n"c""d",501,0.5\r\n'

    @settings(max_examples=200, deadline=None)
    @given(events=TREE_EVENTS, minds=st.integers(1, 300))
    def test_tree_leaves_render_as_json_dumps_and_csv_writer(self, tmp_path_factory, events,
                                                              minds):
        path = tmp_path_factory.mktemp("tree") / "tree.json"
        path.write_text(json.dumps({"events": events}))
        for fmt in ("json", "csv"):
            _, report = cli.run(cli.RunConfig("tree", spec_path=str(path), minds=minds,
                                              format=fmt))
            rows = materialised(report)
            assert cli.render_json(report) == json_dumps_report(rows)
            assert cli.render_csv(report) == csv_writer_text(rows)

    @settings(max_examples=500, deadline=None)
    @given(header=st.dictionaries(st.text(max_size=3), CSV_CELLS, max_size=2), table=CSV_TABLES)
    def test_render_csv_matches_csv_writer_byte_for_byte(self, header, table):
        report = {"header": header, "body": {}, "_csv_table": table}
        assert cli.render_csv(report) == csv_writer_text(report)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_tree_run_builds_no_path_tuples(self, tmp_path, monkeypatch, fmt):
        # the label tuples of Tree.paths are built on first read, and no command reads them
        built = []

        def keep(spec):
            built.append(build_tree(spec))
            return built[-1]

        monkeypatch.setattr(cli, "build_tree", keep)
        spec = write_tree_spec(tmp_path, [[1 / 3, 2 / 3]] * 8)
        status, _ = run_to_file(tmp_path, ["tree", "--spec", spec, "--format", fmt])
        assert status == 0
        assert len(built) == 1 and "paths" not in vars(built[0])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0


class TestBlockWrites:
    @pytest.mark.parametrize("block", [1, 7, 4096])
    @settings(max_examples=100, deadline=None)
    @given(events=SLOTTED_EVENTS, minds=st.integers(1, 300))
    @example(events=[{"probs": [0.5, 0.5], "labels": ["a,b", "c"]}, {"skip": True},
                     {"probs": [0.25, 0.75]}], minds=10)
    def test_main_writes_what_the_renderers_return(self, tmp_path_factory, block, events,
                                                  minds):
        path = tmp_path_factory.mktemp("tree") / "tree.json"
        path.write_text(json.dumps({"events": events}))
        run, reports = cli.run, []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "RECORDS_PER_BLOCK", block)
            mp.setattr(cli, "run", lambda config: reports.append(run(config)) or reports[-1])
            for fmt, render in (("json", cli.render_json), ("csv", cli.render_csv)):
                argv = ["tree", "--spec", str(path), "--minds", str(minds), "--format", fmt]
                out, stdout = path.parent / f"report.{fmt}", io.StringIO()
                with redirect_stdout(stdout):
                    assert cli.main(argv) in (0, 2)
                assert cli.main(argv + ["--out", str(out)]) in (0, 2)
                with open(out, newline="") as fh:
                    written = fh.read()
                report = reports[-1][1]
                assert written == render(report)
                assert TIMESTAMP.sub("", stdout.getvalue()) == TIMESTAMP.sub("", written)
                rows = materialised(report)
                assert written == (json_dumps_report(rows) if fmt == "json"
                                   else csv_writer_text(rows))

    @pytest.mark.parametrize("render", [cli.render_json, cli.render_csv])
    def test_each_number_is_formatted_once_across_blocks(self, tmp_path, monkeypatch, render):
        spec = write_tree_spec(tmp_path, [[1 / 3, 2 / 3]] * 16)
        _, report = cli.run(cli.RunConfig("tree", spec_path=spec, minds=1000))
        counts, probs = report["body"]["leaves"].columns[1:]
        formatted = []
        monkeypatch.setattr(cli, "RECORDS_PER_BLOCK", 7)
        monkeypatch.setattr(cli, "repr", lambda x: formatted.append(x) or repr(x), raising=False)
        render(report)
        assert len(np.unique(probs)) == 17
        assert len(formatted) == len(np.unique(counts)) + len(np.unique(probs))

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_tree_report_is_written_without_its_body_text(self, tmp_path, fmt):
        # written as one text, this 65,536-leaf report (8.69 MB as JSON, 3.77 MB as CSV)
        # peaked 15.8 and 8.2 MB above the run; block by block the run sets the peak
        spec = write_tree_spec(tmp_path, [[1 / 3, 2 / 3]] * 16)
        out = tmp_path / f"report.{fmt}"
        argv = ["tree", "--spec", spec, "--minds", "1000", "--format", fmt, "--out", str(out)]
        cli.main(argv)
        peaks = []
        for call in (lambda: cli.run(cli.RunConfig("tree", spec_path=spec, minds=1000)),
                     lambda: cli.main(argv)):
            tracemalloc.start()
            try:
                call()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        run_peak, main_peak = peaks
        assert out.stat().st_size > 3.5e6
        assert main_peak < run_peak + 1e6

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_disk_exits_one_without_a_traceback(self, capsys):
        assert cli.main(["enumerate", "--out", "/dev/full"]) == 1
        assert capsys.readouterr().err == "manyminds: error: [Errno 28] No space left on device\n"

    def test_label_utf8_cannot_hold_exits_one_without_a_traceback(self, tmp_path, capsys):
        spec = tmp_path / "tree.json"
        spec.write_text('{"events": [{"probs": [1.0], "labels": ["\\ud800"]}]}')
        argv = ["tree", "--spec", str(spec), "--format", "csv", "--out", str(tmp_path / "r.csv")]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("manyminds: error: 'utf-8' codec can't encode")
        assert err.count("\n") == 1

    def test_label_utf8_cannot_hold_is_refused_before_the_run(self, tmp_path, capsys):
        spec, out = tmp_path / "s.json", tmp_path / "r.csv"
        spec.write_text('{"events": [{"probs": [0.5, 0.5]}, {"id": "spin", "probs": [1.0], '
                        '"labels": ["up\\ud800"]}]}')
        argv = ["tree", "--spec", str(spec), "--format", "csv", "--out", str(out)]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("manyminds: error: ") and err.endswith(" of event spin\n")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_reader_gone_mid_block_exits_one(self, tmp_path, monkeypatch, capsys):
        # one block of 4,096 records (481 KB of JSON): a pipe whose reader leaves takes part
        # of the block's write, and the rest must fail it; stdout is unbuffered, as under
        # python -u or PYTHONUNBUFFERED, where no BufferedWriter retries the short write
        spec = write_tree_spec(tmp_path, [[0.5, 0.5]] * 12)
        statuses = []
        for _ in range(20):
            read, write = os.pipe()
            stdout = io.TextIOWrapper(open(write, "wb", buffering=0), write_through=True)
            with stdout, ThreadPoolExecutor(1) as pool:
                monkeypatch.setattr(sys, "stdout", stdout)
                status = pool.submit(cli.main, ["tree", "--spec", spec, "--minds", "1000"])
                try:
                    assert len(os.read(read, 10)) == 10
                finally:  # else a failed read leaves the writer blocked
                    os.close(read)
                statuses.append(status.result(timeout=60))
        assert statuses == [1] * 20
        assert capsys.readouterr().err == "manyminds: error: [Errno 32] Broken pipe\n" * 20

    def test_reader_gone_after_ten_bytes_exits_one_without_a_traceback(self, tmp_path):
        # a report of 4 blocks, so a block is written after the reader has gone
        spec = write_tree_spec(tmp_path, [[0.5, 0.5]] * 14)
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.Popen([sys.executable, "-m", "manyminds.cli", "tree", "--spec", spec,
                                 "--minds", "100"], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=env)
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 1
        assert err.decode() == "manyminds: error: [Errno 32] Broken pipe\n"


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ["ghz", "--minds", "20000", "--seed", "7"],
        ["epr", "--minds", "10000", "--seed", "3", "--policy", "independent"],
        ["hulk", "--trials", "20000", "--seed", "11"],
        ["chsh", "--trials", "10000", "--seed", "13"],
    ])
    def test_bodies_byte_identical_across_threads(self, tmp_path, argv):
        bodies = []
        for i, threads in enumerate(("1", "4")):
            _, out = run_to_file(tmp_path, argv + ["--threads", threads],
                                 name=f"r{i}.json")
            bodies.append(json.dumps(load(out)["body"], sort_keys=True))
        assert bodies[0] == bodies[1]

    def test_rerun_identical_but_timestamp(self, tmp_path, tree_spec_path):
        argv = ["tree", "--spec", tree_spec_path, "--minds", "5000", "--seed", "2"]
        _, out1 = run_to_file(tmp_path, argv, name="a.json")
        _, out2 = run_to_file(tmp_path, argv, name="b.json")
        r1, r2 = load(out1), load(out2)
        assert r1["body"] == r2["body"]
        h1 = {k: v for k, v in r1["header"].items() if k != "timestamp"}
        h2 = {k: v for k, v in r2["header"].items() if k != "timestamp"}
        assert h1 == h2

    def test_csv_rows_deterministic(self, tmp_path, tree_spec_path):
        argv = ["tree", "--spec", tree_spec_path, "--minds", "5000", "--seed", "2",
                "--format", "csv"]
        rows = []
        for name in ("a.csv", "b.csv"):
            _, out = run_to_file(tmp_path, argv, name=name)
            rows.append([l for l in out.read_text().splitlines()
                         if not l.startswith("# timestamp")])
        assert rows[0] == rows[1]


def stochastic_checks(body):
    return [c for c in body["checks"] if "p_value" in c]


def skewed_scenarios(n_triples, rng):
    """The GHZ sampler with the first XXX triple at weight 0.26 instead of 1/4."""
    probs = {1: [0.26] + [0.74 / 3] * 3}
    cell = np.zeros(n_triples, dtype=np.int64)
    for scen in ghz.SCENARIOS:
        cell = cell * 4 + sample_indices(rng.uniforms(n_triples, "ghz", scen.index),
                                         probs.get(scen.index, [0.25] * 4))
    return ghz.ScenarioSample(np.bincount(cell, minlength=256))


class TestStochasticChecks:
    @settings(max_examples=100, deadline=None)
    @given(p_values=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
    def test_sidak_thresholds_combine_to_alpha(self, p_values):
        def sampled(config):
            checks = [cli._stochastic(f"c{i}", 0.0, p, "") for i, p in enumerate(p_values)]
            return {}, checks + [cli._check("exact", True, "")], [["k", "v"]]

        with pytest.MonkeyPatch.context() as mp:
            mp.setitem(cli._COMMANDS, "enumerate",
                       cli._COMMANDS["enumerate"]._replace(runner=sampled))
            status, report = cli.run(cli.RunConfig("enumerate"))
        checks = report["body"]["checks"]
        assert checks[-1] == {"name": "exact", "passed": True, "detail": ""}
        thresholds = {c["threshold"] for c in checks[:-1]}
        assert len(thresholds) == 1
        t = thresholds.pop()
        assert -math.expm1(len(p_values) * math.log1p(-t)) == pytest.approx(cli.ALPHA, rel=1e-12)
        assert [c["passed"] for c in checks[:-1]] == [p > t for p in p_values]
        assert status == (0 if all(p > t for p in p_values) else 2)

    def test_one_check_runs_at_alpha(self, tree_spec_path):
        _, report = cli.run(cli.RunConfig("tree", spec_path=tree_spec_path, minds=1000))
        (check,) = stochastic_checks(report["body"])
        assert check["threshold"] == cli.ALPHA

    def test_golden_records_carry_statistic_threshold_and_verdict(self):
        golden = Path(__file__).parent / "golden"
        for path in sorted(golden.glob("*.json")):
            checks = json.loads(path.read_text())["checks"]
            sampled = stochastic_checks({"checks": checks})
            for c in checks:
                if c in sampled:
                    assert set(c) == {"name", "passed", "detail", "statistic", "threshold",
                                      "p_value"}
                    assert c["passed"] == (c["p_value"] > c["threshold"])
                else:
                    assert set(c) == {"name", "passed", "detail"}
            if sampled:
                family = 1 - math.prod(1 - c["threshold"] for c in sampled)
                assert family == pytest.approx(cli.ALPHA, rel=1e-9), path.name

    @pytest.mark.parametrize("argv", [
        # these exited 2 under per-quantity 4-sigma bands with no multiplicity correction
        ["ghz", "--minds", "1000000", "--seed", "0"],
        ["epr", "--minds", "500000", "--policy", "independent", "--seed", "2"],
    ])
    def test_correct_runs_that_used_to_fail(self, tmp_path, argv):
        status, out = run_to_file(tmp_path, argv)
        assert status == 0
        assert all(c["passed"] for c in load(out)["body"]["checks"])

    def test_cell_check_detects_one_skewed_triple(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ghz, "simulate_scenarios", skewed_scenarios)
        status, out = run_to_file(tmp_path, ["ghz", "--minds", "1000000", "--seed", "0"])
        assert status == 2
        failed = [c["name"] for c in load(out)["body"]["checks"] if not c["passed"]]
        assert failed == ["cell_frequency_band"]


def write_tree_spec(tmp_path, events):
    path = tmp_path / "tree.json"
    path.write_text(json.dumps({"events": [{"probs": p} for p in events]}))
    return str(path)


UNIFORM_6X3 = [[1 / 3] * 3] * 6  # 729 leaves, each expecting n / 729 walkers


class TestTreeFitGate:
    def test_deep_tree_below_the_gate_exits_zero(self, tmp_path, monkeypatch):
        # Pearson's law does not hold at 0.0023 walkers per leaf: this seed
        # failed the fit at p < 1e-4 when the check ran on every tree, and its
        # p-value, 6.23e-06, read as a failed fit in the body
        def never(result):
            raise AssertionError("chi_square_pvalue computed below the gate")

        monkeypatch.setattr(cli, "chi_square_pvalue", never)
        spec = write_tree_spec(tmp_path, [[1 / 3, 2 / 3]] * 16)
        status, out = run_to_file(tmp_path, ["tree", "--spec", spec, "--minds", "100000",
                                             "--seed", "189"])
        assert status == 0
        body = load(out)["body"]
        assert "chi_square_fit" not in [c["name"] for c in body["checks"]]
        assert "chi_square_pvalue" not in body

    @pytest.mark.parametrize("minds, checked", [(72_899, False), (72_900, False),
                                                (72_901, True)])
    def test_fit_runs_from_min_expected_walkers_per_leaf(self, tmp_path, minds, checked):
        # at 72,900 walkers the smallest expectation is 99.99999999999997
        spec = write_tree_spec(tmp_path, UNIFORM_6X3)
        status, report = cli.run(cli.RunConfig("tree", spec_path=spec, minds=minds))
        assert status == 0
        names = [c["name"] for c in stochastic_checks(report["body"])]
        assert names == (["chi_square_fit"] if checked else [])
        # the body prints the p-value only where the fit is checked
        assert ("chi_square_pvalue" in report["body"]) == checked

    def test_fit_detects_one_skewed_event_at_the_gate(self, tmp_path, monkeypatch):
        skewed = build_tree(tree_spec_from_json(
            {"events": [{"probs": [0.4, 0.3, 0.3]}] + [{"probs": p} for p in UNIFORM_6X3[1:]]}))

        def skewed_walk(tree, n_walkers, rng):
            # walk the skewed tree; the report compares against the spec's own
            return WalkResult(tree, random_walk(skewed, n_walkers, rng).counts, n_walkers)

        monkeypatch.setattr(cli, "random_walk", skewed_walk)
        spec = write_tree_spec(tmp_path, UNIFORM_6X3)
        status, out = run_to_file(tmp_path, ["tree", "--spec", spec, "--minds", "72901"])
        assert status == 2
        failed = [c["name"] for c in load(out)["body"]["checks"] if not c["passed"]]
        assert failed == ["chi_square_fit"]
