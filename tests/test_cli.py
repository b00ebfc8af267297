"""Unified command-line interface."""

import pytest

from repro.cli import build_parser, main

FAST = ["--chips", "10", "--kde-samples", "1500"]


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_table1_command(capsys):
    assert main(["table1", *FAST]) == 0
    out = capsys.readouterr().out
    assert "matches paper shape" in out
    assert "S5" in out


def test_figure4_command(capsys):
    assert main(["figure4", *FAST]) == 0
    out = capsys.readouterr().out
    assert "cover" in out


def test_audit_command(capsys):
    assert main(["audit", *FAST, "--boundary", "B5"]) == 0
    out = capsys.readouterr().out
    assert "flagged" in out


def test_audit_rejects_unknown_boundary():
    with pytest.raises(SystemExit):
        main(["audit", "--boundary", "B9"])


def test_generate_then_reuse(tmp_path, capsys):
    archive = tmp_path / "run.npz"
    assert main(["generate", str(archive), "--chips", "10"]) == 0
    assert archive.exists()

    assert main(["table1", "--data", str(archive), "--kde-samples", "1500"]) == 0
    out = capsys.readouterr().out
    assert "/20" in out  # 2 * 10 infested devices


def test_ablation_command(capsys):
    assert main(["ablation", "regression", *FAST]) == 0
    out = capsys.readouterr().out
    assert "regression" in out


def test_ablation_rejects_unknown_study():
    with pytest.raises(SystemExit):
        main(["ablation", "warp-drive"])


@pytest.mark.parametrize("flags", [["--jobs", "2"], ["--engine", "loop"]])
def test_unpinned_execution_flags_rejected(flags):
    with pytest.raises(SystemExit) as excinfo:
        main(["table1", *FAST, *flags])
    assert excinfo.value.code == 2


def test_pinned_execution_flags_parse():
    args = build_parser().parse_args(["table1", "--jobs", "1", "--engine", "batched"])
    assert (args.jobs, args.engine) == (1, "batched")
