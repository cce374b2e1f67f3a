"""Unit tests for the runner's --replicate mode."""

from repro.experiments.runner import main


def test_replicate_prints_ci(capsys):
    assert main(["traffic_bound", "--replicate", "2"]) == 0
    out = capsys.readouterr().out
    assert "replication of" in out
    assert "x2" in out


def test_replicate_ignores_table1(capsys):
    assert main(["table1", "--replicate", "3"]) == 0
    out = capsys.readouterr().out
    assert "Network size" in out  # normal table path taken


def test_replicate_respects_seed_base(capsys):
    assert main(["traffic_bound", "--replicate", "2", "--seed", "50"]) == 0
    out = capsys.readouterr().out
    assert "[50, 51]" in out


def test_replicate_through_jobs_pool(capsys):
    """--replicate seeds fan out across the scheduler's workers."""
    assert main(
        ["traffic_bound", "--replicate", "2", "--seed", "50",
         "--jobs", "2", "--no-cache"]
    ) == 0
    out = capsys.readouterr().out
    assert "[50, 51]" in out
    assert "2 total | 2 run" in out
