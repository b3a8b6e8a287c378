"""``tools/pairs.py``, which runs the benchmark in alternating pairs, driven
here by a stub runner in place of ``perfbench/run.py``."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "pairs.py"
_spec = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

END_TO_END = [{"name": "prt_per_s", "unit": "PRT/s", "better": "higher"},
              {"name": "peak_rss_mb", "unit": "MB", "better": "lower"}]


def _tree(root, name, marker):
    tree = root / name
    (tree / ".git").mkdir(parents=True)
    (tree / "perfbench" / "results").mkdir(parents=True)
    (tree / "BENCHMARK.json").write_text(
        json.dumps({"end_to_end": END_TO_END}))
    (tree / "marker").write_text(marker)
    return tree


class Stub:
    """Runner that records each call and returns preset values per tree:
    the change holds 12 MB less and runs at the parent's speed, but for
    one pair that it loses."""

    def __init__(self, fail=None):
        self.calls = []
        self.fail = fail

    def __call__(self, tree, workload, seed, seconds):
        label = (tree / "marker").read_text()
        self.calls.append((tree, label, workload, seed, seconds))
        n = sum(c[1] == label for c in self.calls) - 1
        assert not (tree / ".git").exists()
        assert not (tree / "perfbench" / "results").exists()
        if label == "parent":
            values = {"prt_per_s": 50e3 + n, "peak_rss_mb": 76.4}
        else:
            values = {"prt_per_s": 50e3 + n + (-1 if n == 3 else 1),
                      "peak_rss_mb": 64.2}
        return values, 1000 * (n + 1), (label, n) != self.fail


def test_pairs_alternate_in_copies_of_equal_path_length(tmp_path, capsys):
    parent = _tree(tmp_path, "p", "parent")
    change = _tree(tmp_path, "a-longer-name", "change")
    stub = Stub()
    rc = pairs.main([str(parent), str(change), "--workload", "ber",
                     "--seed", "13", "--pairs", "4", "--seconds", "2",
                     "--work", str(tmp_path)], runner=stub)
    assert rc == 0
    assert [c[1] for c in stub.calls] == ["parent", "change",
                                          "change", "parent"] * 2
    assert {c[2:] for c in stub.calls} == {("ber", 13, 2.0)}
    paths = {c[1]: c[0] for c in stub.calls}
    assert paths["parent"] != paths["change"]
    assert len(str(paths["parent"])) == len(str(paths["change"]))
    assert not paths["parent"].exists()          # the copies are removed
    rows = {line.split(" | ")[0]: line.split(" | ")
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("| ") and "---" not in line}
    # wins, the parent's quartile distance and the verdict per metric
    assert rows["| peak_rss_mb (MB)"][1:] == [
        "76.4 [76.4, 76.4]", "64.2 [64.2, 64.2]", "-16.0%", "4/4", "0",
        "yes |"]
    assert rows["| prt_per_s (PRT/s)"][4:] == ["3/4", "1.5", "no |"]
    assert rows["| minor_faults (count)"][4:] == ["0/4", "1500", "no |"]


def test_a_failed_run_fails_the_tool(tmp_path, capsys):
    parent = _tree(tmp_path, "p", "parent")
    change = _tree(tmp_path, "c", "change")
    rc = pairs.main([str(parent), str(change), "--workload", "ber",
                     "--seed", "1", "--pairs", "2", "--work", str(tmp_path)],
                    runner=Stub(fail=("change", 1)))
    out = capsys.readouterr().out
    assert rc == 1
    assert "# pair 1 change: " in out and out.count("FAILED") == 1
    assert "# 1 run(s) failed" in out


def test_a_missing_work_directory_is_refused_before_any_run(tmp_path,
                                                            capsys):
    parent = _tree(tmp_path, "p", "parent")
    change = _tree(tmp_path, "c", "change")
    stub = Stub()
    with pytest.raises(SystemExit) as exit_:
        pairs.main([str(parent), str(change), "--workload", "ber",
                    "--seed", "1", "--pairs", "1",
                    "--work", str(tmp_path / "missing")], runner=stub)
    assert exit_.value.code == 2
    assert "--work" in capsys.readouterr().err
    assert stub.calls == [] and not (tmp_path / "missing").exists()


@pytest.mark.parametrize("better, parent, change, wins, clears", [
    ("lower", [10, 11, 12], [8, 9, 13], 2, False),
    ("lower", [10, 11, 12], [7, 8, 9], 3, True),
    ("higher", [10, 11, 12], [12, 13, 14], 3, True),
    ("higher", [10, 11, 12], [11, 12, 13], 3, False),   # gain = distance
])
def test_a_claim_clears_on_wins_and_the_parents_spread(better, parent,
                                                       change, wins, clears):
    cells = pairs.metric_row("m", "u", better, parent, change).split(" | ")
    assert cells[4] == f"{wins}/3"
    assert cells[6] == ("yes |" if clears else "no |")
