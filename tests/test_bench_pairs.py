"""tools/bench_pairs.py's statistics and identity gate, on hand-made readings:
no checkout is run and no process started."""

import pytest

from helpers import load_tool


@pytest.fixture(scope="module")
def bench_pairs():
    """tools/bench_pairs.py, imported by path."""
    return load_tool("bench_pairs")


def test_compare_takes_medians_quartiles_and_wins(bench_pairs):
    # parent quartiles (12, 14, 16), change (11, 12, 13); the change is lower in
    # pairs 1, 3 and 4, higher in pairs 2 and 5
    parent, change = [10.0, 12.0, 14.0, 16.0, 18.0], [9.0, 13.0, 11.0, 12.0, 20.0]
    m = bench_pairs.compare(parent, change, "lower")
    assert m["parent_quartiles"] == [12.0, 14.0, 16.0]
    assert m["change_quartiles"] == [11.0, 12.0, 13.0]
    assert (m["parent_iqr"], m["change_iqr"]) == (4.0, 2.0)
    assert m["ratio_of_medians"] == 12.0 / 14.0
    assert m["change_better_pairs"] == 3
    assert bench_pairs.compare(parent, change, "higher")["change_better_pairs"] == 2


def fig5_record(seconds, peak=0.5):
    return {"sweep_s": seconds, "rows": [[peak.hex(), (0.25).hex(), (0.125).hex(), 3]]}


def test_an_in_process_row_times_only_what_agrees(bench_pairs):
    runs = [("parent", {"parent": fig5_record(0.30), "change": fig5_record(0.25)}),
            ("change", {"change": fig5_record(0.26), "parent": fig5_record(0.32)})]
    row = bench_pairs.run_rows("fig5_sweep", runs)["fig5_sweep"]
    assert row["pairs"] == 2 and row["first"] == ["parent", "change"]
    assert row["rows"] == fig5_record(0.0)["rows"]
    assert row["sweep_s"]["change_better_pairs"] == 2
    assert row["sweep_s"]["ratio_of_medians"] == pytest.approx(0.255 / 0.31)
    # one bit of one peak in one process stops the comparison
    runs[1][1]["change"] = fig5_record(0.26, peak=0.5 + 2.0**-53)
    with pytest.raises(SystemExit, match="fig5_sweep: the change's outputs in pair 2"):
        bench_pairs.run_rows("fig5_sweep", runs)
