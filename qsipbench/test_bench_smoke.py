"""Smoke tests for the benchmark itself, at sizes near 10 (a few seconds)."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH))

import run  # noqa: E402


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "qsipbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_run_reports_every_metric(trace, kind):
    proc = _run("--workload", "all", "--seed", "5", "--seconds", "1", "--trace", trace,
                "--smoke")
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] > 0
    for workload in (w["name"] for w in SPEC["workloads"]):
        for metric in SPEC[kind]:
            got = line["metrics"][f"{workload}.{metric['name']}"]
            assert got["unit"] == metric["unit"]
            if kind == "end_to_end":
                assert got["value"] > 0


def test_failed_and_raising_checks_are_counted():
    plan = {"checks": [["verify", "no-such-identity", 8], ["class_gf", "no-such-spec", 8],
                       ["verify", "euler-any", 8]], "trace": False}
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py")], input=json.dumps(plan),
                          cwd=ROOT, env=run.worker_env(), capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    checks = json.loads(proc.stdout.strip().splitlines()[-1])["checks"]
    assert [c["ok"] for c in checks] == [False, False, True]
    assert "KeyError" in checks[1]["error"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "qsipbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "oracle-enum", "--seed", "1", "--seconds", "1", "--trace",
                "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_product_counts_match_the_catalog():
    from qsip import catalog
    for identity in run.IDENTITIES:
        rhs = catalog.get(identity).rhs(20)
        ones = {m: 1 for m in rhs.markers}
        assert run.product_count(identity, 20) == sum(c.specialize(ones) for c in rhs.coeffs)


def test_plan_gives_each_unit_every_size_once():
    for name, wl in run.WORKLOADS.items():
        plan = run.make_plan(name, 7, smoke=False)
        assert plan == run.make_plan(name, 7, smoke=False)
        assert len(plan) == len(wl.sizes)
        for kind, arg in wl.units:
            sizes = sorted(c[2] for batch in plan for c in batch if c[:2] == [kind, arg])
            assert sizes == sorted(wl.sizes)
