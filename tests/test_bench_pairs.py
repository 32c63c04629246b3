"""The verdicts ``tools/bench_pairs.py`` writes per end-to-end metric, on synthetic runs."""

import os
import subprocess
import sys

import pytest

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")

STEP = {"name": "step_us", "unit": "us", "better": "lower", "bound": 0.2}
OK = {"name": "ok_ratio", "unit": "ratio", "better": "higher", "bound": 0.01}


@pytest.fixture
def bench_pairs():
    sys.path.insert(0, TOOLS)
    try:
        import bench_pairs

        yield bench_pairs
    finally:
        sys.path.remove(TOOLS)


def _runs(parent: list, change: list, name: str = "step_us") -> list:
    """One run record per pair, as ``main`` keeps them, holding only ``name``."""
    return [{"seed": seed, "parent": {"values": {name: p}}, "change": {"values": {name: c}}}
            for seed, (p, c) in enumerate(zip(parent, change), 1)]


PARENT = [20.0, 20.2, 20.4, 20.6, 20.8, 21.0, 21.2, 21.4, 21.6, 21.8]  # median 20.9, IQR 1.1


def _verdict(bench_pairs, parent, change, metric=STEP):
    return bench_pairs.summary(_runs(parent, change, metric["name"]), [metric])[metric["name"]]


@pytest.mark.parametrize(
    "change, won, verdict",
    [
        ([p - 1.5 for p in PARENT], 10, "gain"),
        # one tie counts for neither side: 9 of 10 is still a gain
        ([PARENT[0]] + [p - 1.5 for p in PARENT[1:]], 9, "gain"),
        # 8 of 10 is not, however far apart the medians
        (PARENT[:2] + [p - 3.0 for p in PARENT[2:]], 8, None),
        # every pair won, but the medians differ by less than the parent's IQR
        ([p - 0.5 for p in PARENT], 10, None),
        # 10 % slower: within the 20 % bound
        ([p * 1.1 for p in PARENT], 0, None),
        # 30 % slower: past it
        ([p * 1.3 for p in PARENT], 0, "regression"),
    ],
)
def test_a_lower_is_better_metric_gets_its_verdict(bench_pairs, change, won, verdict):
    entry = _verdict(bench_pairs, PARENT, change)
    assert (entry["change_won"], entry["verdict"]) == (won, verdict)


def test_a_higher_is_better_metric_gets_its_verdict(bench_pairs):
    ones = [1.0] * 10
    assert _verdict(bench_pairs, ones, ones, OK)["verdict"] is None
    assert _verdict(bench_pairs, ones, [0.995] * 10, OK)["verdict"] is None
    assert _verdict(bench_pairs, ones, [0.9] * 10, OK)["verdict"] == "regression"
    assert _verdict(bench_pairs, [0.5] * 10, ones, OK)["verdict"] == "gain"


WIDE = [10.0, 14.0, 18.0, 22.0, 26.0, 30.0, 34.0, 38.0, 42.0, 46.0]  # median 28, IQR 22


@pytest.mark.parametrize(
    "change, verdict",
    [
        # the parent's IQR (22) is wider than the 20 % bound (5.6): no change reads as none
        (WIDE, "unresolved"),
        ([p + 3.0 for p in WIDE], "unresolved"),
        # every pair won, by less than the IQR, and the runs still overlap
        ([p - 20.0 for p in WIDE], "unresolved"),
        # every change run beats every parent run: resolved, though not a gain
        ([9.0] * 10, None),
        # a gain and a regression are tested first
        ([p - 25.0 for p in WIDE], "gain"),
        ([p * 2.0 for p in WIDE], "regression"),
    ],
)
def test_a_metric_whose_parent_spreads_past_its_bound_is_unresolved(bench_pairs, change, verdict):
    assert _verdict(bench_pairs, WIDE, change)["verdict"] == verdict


def test_a_higher_is_better_metric_can_be_unresolved(bench_pairs):
    flaky = [0.90, 0.92, 0.94, 0.96, 0.98, 1.0, 1.0, 1.0, 1.0, 1.0]  # IQR 0.065, bound 0.0099
    assert _verdict(bench_pairs, flaky, [1.0] * 10, OK)["verdict"] == "unresolved"
    assert _verdict(bench_pairs, flaky, [1.001] * 10, OK)["verdict"] is None  # all above


def test_the_side_that_ran_first_has_its_own_median(bench_pairs):
    # the parent runs first on odd seeds, the change on even ones; the first run reads higher
    parent = [44.0 if seed % 2 else 43.8 for seed in range(1, 11)]
    change = [43.8 if seed % 2 else 44.0 for seed in range(1, 11)]
    rss = {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05}
    entry = _verdict(bench_pairs, parent, change, rss)
    assert (entry["first_median"], entry["second_median"]) == (44.0, 43.8)
    assert entry["parent"]["median"] == entry["change"]["median"] == 43.9
    assert (entry["change_won"], entry["verdict"]) == (5, None)


def test_the_verdict_line_names_unresolved_metrics_only_when_there_are_some(bench_pairs):
    runs = _runs(WIDE, WIDE)
    for run, step in zip(runs, PARENT):
        run["parent"]["values"]["wall_s"] = run["change"]["values"]["wall_s"] = step
    wall = {**STEP, "name": "wall_s", "unit": "s"}
    line = bench_pairs.verdict_line("cli_scenarios", bench_pairs.summary(runs, [STEP, wall]))
    assert line == "cli_scenarios: gain -; regression -; unresolved step_us"


def test_the_verdict_line_names_each_metric_once(bench_pairs):
    runs = _runs(PARENT, [p - 1.5 for p in PARENT])
    for run, wall in zip(runs, PARENT):
        run["parent"]["values"]["wall_s"], run["change"]["values"]["wall_s"] = wall, 1.3 * wall
    wall = {**STEP, "name": "wall_s", "unit": "s"}
    line = bench_pairs.verdict_line("ensemble_checks", bench_pairs.summary(runs, [STEP, wall]))
    assert line == "ensemble_checks: gain step_us; regression wall_s"


@pytest.mark.parametrize("parent, change, line", [
    (2572, 2574, "src lines: 2572 -> 2574 (+2)"),
    (2540, 2524, "src lines: 2540 -> 2524 (-16)"),
    (2529, 2529, "src lines: 2529 -> 2529 (+0)"),
])
def test_the_lines_line_reads_both_totals_and_their_delta(bench_pairs, parent, change, line):
    lines = {side: {"files": {"core.py": total}, "total": total}
             for side, total in (("parent", parent), ("change", change))}
    assert bench_pairs.lines_line(lines) == line


def _git(cwd, *args):
    subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True)


@pytest.fixture
def one_commit_checkout(tmp_path, monkeypatch):
    """A git repository of one commit holding ``a.txt``, as the working directory."""
    _git(tmp_path, "init", "-q")
    (tmp_path / "a.txt").write_text("a\n", encoding="utf-8")
    _git(tmp_path, "add", "a.txt")
    _git(tmp_path, "-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q", "-m", "one")
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_the_exports_are_removed_when_the_block_ends(bench_pairs, one_commit_checkout):
    with bench_pairs.exports("HEAD", "HEAD") as made:
        (sha, path), (same, _) = made
        with open(os.path.join(path, "a.txt"), encoding="utf-8") as fh:
            assert sha == same and fh.read() == "a\n"
    assert not (one_commit_checkout / ".bench_build").exists()


def test_the_exports_are_removed_on_an_error(bench_pairs, one_commit_checkout):
    with pytest.raises(RuntimeError, match="a run failed"):
        with bench_pairs.exports("HEAD") as [(_, path)]:
            assert os.path.isdir(path)
            raise RuntimeError("a run failed")
    assert not (one_commit_checkout / ".bench_build").exists()
    # an export that fails removes the exports made before it
    with pytest.raises(subprocess.CalledProcessError):
        with bench_pairs.exports("HEAD", "no-such-revision"):
            pass
    assert not (one_commit_checkout / ".bench_build").exists()
