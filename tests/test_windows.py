"""One chunk grid: every sampling command counts its run window by window.

Every body figure is a sum of integer counts over minds, walkers or trials,
and mind i reads draw i of each stream. So neither the window size
(``rng.CHUNK``) nor the worker count (``--threads``) may change a body, and
the memory a run takes must not grow with its number of windows.
"""
import concurrent.futures
import json
import math
from collections.abc import Iterator

import pytest
import tracemalloc

from manyminds import cli, epr, ghz, walks
from manyminds import rng as rng_mod
from manyminds.rng import RngSpec, code_counts
from manyminds.walks import SKIP, TreeEvent, TreeSpec, build_tree, random_walk
from test_golden import CASES, GOLDEN, TREE_SPEC, render_body

SAMPLING = ("tree", "epr_joint", "epr_independent", "epr_bob45", "hulk_independent",
            "hulk_joint", "ghz", "chsh")


@pytest.mark.parametrize("threads", ["1", "2"])
# 4 is one Philox block, 12 an odd multiple of it, 2**18 more than every golden n
@pytest.mark.parametrize("chunk", [4, 12, 2**18])
@pytest.mark.parametrize("name", SAMPLING)
def test_golden_bodies_for_every_window_size(name, chunk, threads, tmp_path, monkeypatch):
    monkeypatch.setattr(rng_mod, "CHUNK", chunk)
    monkeypatch.setattr(rng_mod.os, "cpu_count", lambda: 2)
    monkeypatch.setitem(CASES, name, CASES[name] + ["--threads", threads])
    assert render_body(name, "json", tmp_path) == (GOLDEN / f"{name}.json").read_text()


WINDOW = 2**14
# what a run may allocate at 4 windows beyond its peak at 1; a run that held
# one more 8-byte column of its draws would need 3 * 8 * WINDOW = 384 KiB more
SLACK = 32 * 1024


@pytest.mark.parametrize("command, settings", [
    ("tree", {}),
    ("epr", {"policy": "joint"}),
    ("epr", {"policy": "independent"}),
    ("epr", {"bob_axis": 45.0}),
    ("hulk", {"policy": "independent"}),
    ("hulk", {"policy": "joint"}),
    ("ghz", {}),
    ("chsh", {}),
])
def test_peak_memory_does_not_grow_with_the_run(command, settings, tmp_path, monkeypatch):
    monkeypatch.setattr(rng_mod, "CHUNK", WINDOW)
    spec = tmp_path / "tree.json"
    spec.write_text(json.dumps(TREE_SPEC))
    size = "trials" if command in ("hulk", "chsh") else "minds"
    peaks = []
    for n in (WINDOW, 4 * WINDOW):
        config = cli.RunConfig(command, spec_path=str(spec), **settings, **{size: n})
        cli.run(config)  # imports and first-use caches stay out of the measurement
        tracemalloc.start()
        try:
            cli.run(config)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + SLACK, peaks


def test_threads_set_only_the_worker_count(tmp_path, monkeypatch):
    # --threads used to set the number of chunks, each deriving a key and a
    # generator: chsh --trials 2e6 took 10.6 s at --threads 100000, 0.07 s at 1
    built, pools = [], []
    stream = RngSpec.stream

    def counted_stream(self, *scope):
        built.append(scope)
        return stream(self, *scope)

    class Recording(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(RngSpec, "stream", counted_stream)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
    monkeypatch.setattr(rng_mod.os, "cpu_count", lambda: 2)
    n = 2_000_000
    generators = []
    for threads in ("1", "100000"):
        built.clear()
        out = tmp_path / f"chsh{threads}.json"
        assert cli.main(["chsh", "--trials", str(n), "--threads", threads,
                         "--out", str(out)]) == 0
        generators.append(len(built))
    assert generators == [4 * math.ceil(n / rng_mod.CHUNK)] * 2
    # one pool of the 2 cores' worth of threads, never more
    assert pools == [2]


def test_tree_without_a_measured_event_counts_every_walker(monkeypatch):
    # its leaf code has no digit, so each window is counted on the one empty leaf
    monkeypatch.setattr(rng_mod, "CHUNK", 4)
    monkeypatch.setattr(rng_mod.os, "cpu_count", lambda: 2)
    for threads in (1, 2):
        result = random_walk(build_tree(TreeSpec((SKIP,))), 10, RngSpec(1, threads=threads))
        assert result.counts.tolist() == [10]


@pytest.mark.parametrize("module, sample", [
    (walks, lambda rng: random_walk(build_tree(TreeSpec((
        TreeEvent("a", (0.5, 0.5)), TreeEvent("b", (0.25, 0.75))))), 100, rng)),
    (epr, lambda rng: epr.chsh_monte_carlo(*epr.DEFAULT_CHSH_AXES, 100, rng)),
    (ghz, lambda rng: ghz.simulate_scenarios(100, rng)),
])
def test_sampled_columns_reach_code_counts_one_at_a_time(module, sample, monkeypatch):
    # a list would hold every index column of a window before any is counted
    passed = []

    def spy(size, columns, radices):
        passed.append(columns)
        return code_counts(size, columns, radices)

    monkeypatch.setattr(module, "code_counts", spy)
    sample(RngSpec(8))
    assert passed and all(isinstance(columns, Iterator) for columns in passed), passed


def test_a_window_holds_one_draw_column_and_two_index_columns(monkeypatch):
    # 16 binary events at one window of W walkers. Sampling holds the 8W bytes of one
    # draw column, its 1-byte comparison mask, two 1-byte index columns and the 4-byte
    # (uint32) code: 15W. Counting holds the code, the 8-byte intp copy bincount makes
    # of it, the last index column and 2**16 int64 counts: 13W + 512 KiB. A window
    # that held all 16 index columns would peak at 32W.
    window = 2**17
    monkeypatch.setattr(rng_mod, "CHUNK", window)
    tree = build_tree(TreeSpec(tuple(TreeEvent(f"e{k}", (1 / 3, 2 / 3)) for k in range(16))))
    random_walk(tree, window, RngSpec(3))  # first-use caches stay out of the measurement
    tracemalloc.start()
    try:
        random_walk(tree, window, RngSpec(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= max(15 * window, 13 * window + 8 * 2**16) + SLACK, peak
