"""Fast tests of the benchmark itself (run: python3 -m pytest bench)."""
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == run.per_layer_names()


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_emits_every_metric(workload, trace, key):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke", "--seconds", "0",
         "--workload", workload, "--seed", "3", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC[key]}


def _traced_ops(tmp_path):
    import manyminds.cli as cli

    tracer = tracing.Tracer()
    ops = [op for name in ("epr-minds", "sample-stream", "tree-deep")
           for op in workloads.build(name, 0, str(tmp_path), smoke=True).ops]
    with tracer.patched():
        for op in ops:
            with tracer.operation(op.name):
                assert cli.main(list(op.argv) + ["--out", str(tmp_path / "out")]) == 0
    return tracer, ops


def test_self_times_never_exceed_the_operation(tmp_path):
    tracer, ops = _traced_ops(tmp_path)
    roots = {s["op"]: s for s in tracer.spans if s["name"] == tracing.ROOT_SPAN}
    assert set(roots) == {op.name for op in ops}
    for name, root in roots.items():
        layer_self = sum(tracer.self_times(name).values())
        assert 0 < layer_self <= root["end"] - root["start"]
    assert tracer.counts["minds.split_joint.minds"] > 0
    assert tracer.counts["walks.build_tree.leaves"] > 0


def _snapshot():
    import manyminds.rng as rng
    import manyminds.walks as walks

    state = {(mod.__name__, attr): value for mod in tracing.package_modules()
             for attr, value in vars(mod).items()}
    state[("RngSpec", "uniforms")] = vars(rng.RngSpec)["uniforms"]
    state[("WalkResult", "event_marginal")] = vars(walks.WalkResult)["event_marginal"]
    return state


def test_wrappers_cover_every_binding_and_restore_it():
    import manyminds.cli as cli
    import manyminds.epr as epr
    import manyminds.ghz as ghz
    import manyminds.minds as minds
    import manyminds.quantum as quantum
    import manyminds.rng as rng
    import manyminds.walks as walks

    before = _snapshot()
    imported = {
        rng.sample_indices: (minds, epr, ghz, walks),
        quantum.branch_decompose: (cli, epr, ghz),
        minds.split_local: (epr,), minds.split_joint: (epr,),
        minds.report_correlation: (epr,), minds.mismatch_probability: (epr,),
        walks.build_tree: (cli,), walks.random_walk: (cli,), walks.chi_square_pvalue: (cli,),
    }
    with pytest.raises(RuntimeError, match="inside"):
        with tracing.Tracer().patched():
            for original, modules in imported.items():
                for mod in modules:
                    assert getattr(mod, original.__name__).__wrapped__ is original
            assert rng.RngSpec.uniforms.__wrapped__ is before[("RngSpec", "uniforms")]
            assert walks.WalkResult.event_marginal.__wrapped__ is before[
                ("WalkResult", "event_marginal")]
            raise RuntimeError("inside")
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
