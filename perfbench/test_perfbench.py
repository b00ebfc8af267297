"""Self-test of the benchmark at tiny sizes (small fixture, 2-seed panel,
about one second of HTTP load per phase)::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import cli_cold
import run
import seed_panel
import serve_http
from harness import ROOT

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
INTERACTIONS = json.loads((ROOT / "perfbench" / "interactions.json").read_text())


def bench(capsys, workload, trace=0):
    status = run.main(["--workload", workload, "--seed", "3", "--seconds", "2",
                       "--trace", str(trace), "--small"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert status == 0
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_printed_with_its_unit(capsys, workload):
    text, result = bench(capsys, workload)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())

    printed = {line.split()[0]: line.split()[-1] for line in text if line.startswith("  ")}
    assert printed["ops"] == printed["ops_failed"] == "count"
    units = {"s", "ms", "seeds", "devices", "devices/s", "percentile"}
    for name in INTERACTIONS["workloads"][workload]["named"]:
        assert printed[name] in units, (name, printed[name])
    assert printed["setup_s"] == "s"

    _, traced = bench(capsys, workload, trace=1)
    assert traced["correct"]
    assert {name: m["unit"] for name, m in traced["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_forced_table1_mismatch_is_counted(capsys, monkeypatch):
    monkeypatch.setattr(cli_cold, "expected_table1", lambda seed, extra: "not this")
    _, result = bench(capsys, "cli_cold")
    assert result["failed"] == 1 and not result["correct"]


def test_forced_score_mismatch_is_counted(capsys, monkeypatch):
    real = serve_http.make_bodies

    def skewed(*args):
        bodies = real(*args)
        body, expected = bodies[0]
        bodies[0] = (body, {name: scores + 1.0 for name, scores in expected.items()})
        return bodies

    monkeypatch.setattr(serve_http, "make_bodies", skewed)
    _, result = bench(capsys, "serve_http")
    assert result["failed"] >= 2 and not result["correct"]


def test_seed_exception_is_counted(capsys, monkeypatch):
    real = seed_panel.run_seed

    def flaky(platform_config, detector_config):
        if platform_config.seed == 4:
            raise RuntimeError("forced")
        return real(platform_config, detector_config)

    monkeypatch.setattr(seed_panel, "run_seed", flaky)
    _, result = bench(capsys, "seed_panel")
    assert result["attempted"] == 2 and result["failed"] == 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "cli_cold",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_interaction_map_covers_the_spec():
    mapped = [name for layer in INTERACTIONS["layers"].values() for name in layer["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in SPEC["per_layer"])
    assert set(INTERACTIONS["workloads"]) == {w["name"] for w in SPEC["workloads"]}
