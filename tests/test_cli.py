"""CLI plumbing: config resolution, reports, exit codes, determinism."""
import json

import pytest

from manyminds import cli


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
        assert report["header"]["schema_version"] == 1

    def test_tree(self, tmp_path, tree_spec_path):
        status, out = run_to_file(tmp_path, ["tree", "--spec", tree_spec_path,
                                             "--minds", "20000", "--seed", "4"])
        assert status == 0
        body = load(out)["body"]
        assert len(body["leaves"]) == 6
        assert body["all_checks_passed"] is True
        assert sum(leaf["count"] for leaf in body["leaves"]) == 20000

    def test_epr_joint(self, tmp_path):
        status, out = run_to_file(tmp_path, ["epr", "--minds", "20000", "--seed", "5"])
        assert status == 0
        body = load(out)["body"]
        assert body["communication"] == "performed"
        assert body["record"]["report_consistent"] is True
        assert body["record"]["pair_counts"][0][0] == 0
        assert body["record"]["pair_counts"][1][1] == 0

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
        assert abs(body["mismatch_rate"] - 0.5) <= body["tolerance"]

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

    def test_chsh(self, tmp_path):
        status, out = run_to_file(tmp_path, ["chsh", "--trials", "20000", "--seed", "9"])
        assert status == 0
        body = load(out)["body"]
        assert body["exact"] == pytest.approx(2 ** 1.5, abs=1e-9)
        assert abs(body["estimate"] - body["exact"]) <= body["tolerance"]

    def test_chsh_custom_axes_degenerate(self, tmp_path):
        status, out = run_to_file(tmp_path, ["chsh", "--trials", "2000", "--seed", "9",
                                             "--axes", "z", "z", "z", "z"])
        assert status == 0
        assert load(out)["body"]["exact"] == pytest.approx(2.0, abs=1e-9)


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

    def test_env_seed_echoed(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.ENV_SEED, "123")
        status, out = run_to_file(tmp_path, ["enumerate"])
        assert status == 0
        header = load(out)["header"]
        assert header["seed"] == 123
        assert header["seed_source"] == "env"

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.ENV_SEED, "123")
        status, out = run_to_file(tmp_path, ["enumerate", "--seed", "5"])
        assert status == 0
        assert load(out)["header"]["seed"] == 5
        assert load(out)["header"]["seed_source"] == "flag"

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

    def test_bad_axis(self, capsys):
        assert cli.main(["epr", "--alice-axis", "sideways"]) == 1
        assert "axis" in capsys.readouterr().err

    def test_bad_env_seed(self, monkeypatch, capsys):
        monkeypatch.setenv(cli.ENV_SEED, "not-a-number")
        assert cli.main(["enumerate"]) == 1

    def test_tree_event_id_freq_rejected(self, tmp_path, capsys):
        # "freq" would share repeated_frequency's stream in the "tree" namespace
        spec = tmp_path / "tree.json"
        spec.write_text(json.dumps({"events": [{"id": "freq", "probs": [0.5, 0.5]}]}))
        assert cli.main(["tree", "--spec", str(spec)]) == 1
        assert "freq" in capsys.readouterr().err


class TestPhysicsFailureExit:
    def test_failed_check_exits_two(self, tmp_path, monkeypatch, capsys):
        def broken(config):
            payload = {"value": 1.0}
            checks = [cli._check("impossible", False, "forced failure for plumbing test")]
            return payload, checks, [["k", "v"]]

        monkeypatch.setitem(cli._RUNNERS, "enumerate", broken)
        status, out = run_to_file(tmp_path, ["enumerate"])
        assert status == 2
        assert load(out)["body"]["all_checks_passed"] is False
        assert "impossible" in capsys.readouterr().err


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

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0


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
