#!/usr/bin/env python3
"""qsip benchmark: exact-verification workloads run as a closed loop.

Run from the repository root:

    python3 qsipbench/run.py --workload catalog-verify --seed 1 --seconds 20 --trace 0
    python3 qsipbench/run.py --workload all --seed 1 --seconds 20 --trace 0
    python3 qsipbench/run.py --workload all --seed 1 --seconds 1 --trace 1 --smoke

One client runs one check at a time.  A pass runs every check of the
workload once, spread over a few fresh worker interpreters, because a CLI
user pays the import and a cold ``gaussian_binomial`` cache on every
invocation.  Each workload's sizes form a fixed grid over its range, and
each worker gets every unit once at a grid size: every run covers the whole
range and does the same work, so runs with different seeds are comparable.
The seed draws which worker runs each unit at which size, and the order of
the checks.  Passes repeat until ``--seconds`` have elapsed; metrics are
medians over passes.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs each pass
once untraced and once traced (spans from ``spans.py``) and prints the
per-layer metrics.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Full results, with
an environment stamp, go to ``.bench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
DEADLINE_S = 170.0  # every run must end within 180 s
SETUP_PROBES = 9

IDENTITIES = ("euler-any", "euler-distinct", "rogers-ramanujan", "gollnitz-gordon-1",
              "schur-refined", "glasgow-mod8", "slater-46", "slater-61", "slater-81",
              "slater-6-corrected", "slater-86", "mod7-sum")
ORACLE_IDENTITIES = tuple(i for i in IDENTITIES if i != "mod7-sum")
UNMARKED_SPECS = ("natural", "distinct", "rogers-ramanujan", "gollnitz", "schur", "glasgow")
ALL_SPECS = UNMARKED_SPECS + ("schur-refined",)

# Acceptance criteria 4 and 5 at their own sizes, and a smoke-sized copy.
CLOSED_FORMS = ({"rows": 8, "gollnitz": [60, 23], "schur": [80, 12], "glasgow": 60,
                 "chain_m": 16},
                {"rows": 3, "gollnitz": [16, 6], "schur": [20, 4], "glasgow": 16,
                 "chain_m": 8})
LEMMAS = ({"binomial": 7, "series": 6, "trunc": 40, "telescope_n": 8, "telescope_t": 30},
          {"binomial": 3, "series": 3, "trunc": 10, "telescope_n": 3, "telescope_t": 10})

# Product side of each identity as (modulus, residues, distinct parts), used
# to count the partitions a catalog check certifies (objects_per_s).
PRODUCT_SIDES = {
    "euler-any": [(1, {0}, False)],
    "euler-distinct": [(1, {0}, True)],
    "rogers-ramanujan": [(5, {1, 4}, False)],
    "gollnitz-gordon-1": [(8, {1, 4, 7}, False)],
    "schur-refined": [(3, {1, 2}, True)],
    "glasgow-mod8": [(8, {0, 2, 3, 4, 7}, False)],
    "slater-46": [(10, {1, 2, 3, 5, 7, 8, 9}, False)],
    "slater-61": [(14, set(range(14)) - {0, 6, 8}, False)],
    "slater-81": [(14, set(range(14)) - {0, 6, 8}, False), (14, {3, 11}, False)],
    "slater-6-corrected": [(3, {1, 2}, True), (3, {1, 2}, False)],
    "slater-86": [(16, {2, 3, 4, 5, 11, 12, 13, 14}, False)],
    "mod7-sum": [(7, {1, 2, 5, 6}, False)],
}


def product_count(identity: str, trunc: int) -> int:
    """Partitions of 0..trunc counted by the identity's product side."""
    coeffs = [1] + [0] * trunc
    for modulus, residues, distinct in PRODUCT_SIDES[identity]:
        for part in range(1, trunc + 1):
            if part % modulus not in residues:
                continue
            if distinct:
                for n in range(trunc, part - 1, -1):
                    coeffs[n] += coeffs[n - part]
            else:
                for n in range(part, trunc + 1):
                    coeffs[n] += coeffs[n - part]
    return sum(coeffs)


@dataclass(frozen=True)
class Workload:
    units: tuple[tuple[str, str], ...]  # (check kind, identity or spec name)
    sizes: tuple[int, ...]  # truncation or total grid; one worker per size
    smoke_sizes: tuple[int, ...]
    acceptance: bool = False  # every worker also runs the criteria 4-5 checks


WORKLOADS = {
    "catalog-verify": Workload(tuple(("verify", i) for i in IDENTITIES),
                               (64, 80, 96), (8, 10, 12)),
    "oracle-enum": Workload(tuple(("oracle", i) for i in ORACLE_IDENTITIES)
                            + tuple(("sip", s) for s in UNMARKED_SPECS),
                            (26, 27, 28, 29, 30), (8, 10)),
    "sip-tables": Workload(tuple(("class_gf", s) for s in ALL_SPECS),
                           (40, 48, 56), (8, 10, 12), acceptance=True),
}


def make_plan(name: str, seed: int, smoke: bool) -> list[list[list]]:
    """The checks of one pass, as one list per worker."""
    wl = WORKLOADS[name]
    sizes = wl.smoke_sizes if smoke else wl.sizes
    rng = random.Random(f"{name}/{seed}")
    phase = [rng.randrange(len(sizes)) for _ in wl.units]
    batches = []
    for b in range(len(sizes)):
        checks = [[kind, arg, sizes[(ph + b) % len(sizes)]]
                  for (kind, arg), ph in zip(wl.units, phase)]
        if wl.acceptance:
            cf, lem = CLOSED_FORMS[smoke], LEMMAS[smoke]
            checks += [["closed_forms", cf, cf["rows"]], ["lemmas", lem, lem["trunc"]]]
        rng.shuffle(checks)
        batches.append(checks)
    return batches


# -- environment --------------------------------------------------------------

def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def git_sha() -> str:
    """HEAD of the repository, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def loadavg() -> list[float]:
    return list(os.getloadavg())


# -- running workers ----------------------------------------------------------

def worker_env() -> dict:
    """Environment for workers: qsip from src, bytecode cached as for an installed CLI."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def probe_setup(count: int, deadline: float) -> list[dict]:
    """Import time of qsip.cli in fresh interpreters; the first is untimed."""
    samples = []
    for i in range(count + 1):
        out = subprocess.run([sys.executable, str(BENCH_DIR / "speed.py")], cwd=ROOT,
                             env=worker_env(), capture_output=True, text=True,
                             timeout=max(1.0, deadline - time.monotonic()), check=True)
        if i:
            samples.append(json.loads(out.stdout.strip().splitlines()[-1]))
    return samples


def run_worker(request: dict, deadline: float) -> dict:
    """One fresh interpreter; returns its result or an ``error`` entry."""
    try:
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "worker.py")],
                              input=json.dumps(request), cwd=ROOT, env=worker_env(),
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return {"error": "worker passed the run deadline and was stopped"}
    if proc.returncode != 0:
        return {"error": f"worker exited {proc.returncode}: {proc.stderr[-2000:]}"}
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return {"error": f"unreadable worker output: {proc.stdout[-500:]!r}"}


def run_pass(name: str, plan: list[list[list]], trace: bool, seed: int,
             deadline: float) -> dict:
    """Run every batch of the plan, each in a fresh worker, one at a time."""
    p = {"wall_s": 0.0, "raw_wall_s": 0.0, "coeffs": 0, "objects": 0, "peak_rss_mib": 0.0,
         "attempted": 0, "failed": 0, "broken": False, "checks": [], "traces": [],
         "load_before": loadavg()}
    for b, checks in enumerate(plan):
        request = {"checks": checks, "trace": trace,
                   "spans_path": str(OUT_DIR / f"spans-{name}-seed{seed}-w{b}.json.gz")
                   if trace else None}
        res = run_worker(request, deadline)
        p["attempted"] += len(checks)
        if "error" in res:
            p["failed"] += len(checks)
            p["broken"] = True
            p["checks"].append({"batch": b, "error": res["error"]})
            break
        p["wall_s"] += res["wall_s"]
        p["raw_wall_s"] += res["raw_wall_s"]
        p["peak_rss_mib"] = max(p["peak_rss_mib"], res["peak_rss_kib"] / 1024)
        for c in res["checks"]:
            if not c["ok"]:
                p["failed"] += 1
            elif c["check"][0] == "verify":
                c["objects"] = product_count(c["check"][1], c["eff"])
            p["coeffs"] += c["coeffs"]
            p["objects"] += c.get("objects", 0)
            p["checks"].append(c)
        if trace:
            p["traces"].append(res["trace"])
    p["load_after"] = loadavg()
    return p


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
                 spec: dict) -> dict:
    """One benchmark run of one workload; returns the result line's fields."""
    start = time.monotonic()
    deadline = start + DEADLINE_S
    env = {"python": platform.python_version(), "nproc": nproc(), "git_sha": git_sha(),
           "seed": seed, "workload": name, "trace": int(trace), "smoke": smoke,
           "load_before": loadavg()}
    env["loaded_at_start"] = env["load_before"][0] > env["nproc"]
    plan = make_plan(name, seed, smoke)
    setup = [] if trace else probe_setup(2 if smoke else SETUP_PROBES, deadline)
    measure_start = time.monotonic()
    passes, traced = [], []
    while True:
        passes.append(run_pass(name, plan, False, seed, deadline))
        if trace and not passes[-1]["broken"]:
            traced.append(run_pass(name, plan, True, seed, deadline))
        last = traced[-1] if trace and traced else passes[-1]
        now = time.monotonic()
        if (last["broken"] or smoke or now - measure_start >= seconds
                or now + (now - measure_start) / len(passes) > deadline):
            break
    env["load_after"] = loadavg()

    everything = passes + traced
    attempted = sum(p["attempted"] for p in everything)
    failed = sum(p["failed"] for p in everything)
    correct = failed == 0 and not any(p["broken"] for p in everything)
    good = [p for p in passes if not p["broken"]]
    values: dict[str, float] = {}
    if trace and traced and not traced[-1]["broken"]:
        per_pass = []
        for plain, tr in zip(passes, traced):
            ratio = tr["wall_s"] / plain["wall_s"] if plain["wall_s"] else 0.0
            per_pass.append(spans.layer_metrics(spans.merge(tr["traces"]), IDENTITIES,
                                                ratio))
        values = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    elif not trace and good:
        values = {
            "setup_s": statistics.median(s["scaled_s"] for s in setup),
            "wall_s": statistics.median(p["wall_s"] for p in good),
            "coeffs_per_s": statistics.median(p["coeffs"] / p["wall_s"] for p in good),
            "objects_per_s": statistics.median(p["objects"] / p["wall_s"] for p in good),
            "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in good),
        }
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted} if values else {}
    for p in everything:
        p.pop("traces")
    record = {"env": env, "correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics, "setup_samples_s": setup, "passes": passes,
              "traced_passes": traced}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1))
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes (near 10), one pass: for the benchmark's tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qsip" / "__init__.py").is_file():
        print(f"error: no qsip sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]

    results = {}
    for name in names:
        rec = run_workload(name, args.seed, args.seconds, bool(args.trace), args.smoke,
                           spec)
        results[name] = rec
        if rec["env"]["loaded_at_start"]:
            print(f"{name}: warning: load average {rec['env']['load_before'][0]:.2f} "
                  f"exceeded nproc {rec['env']['nproc']} at start")
        for metric, v in rec["metrics"].items():
            print(f"{name:15s} {metric:40s} {v['value']:>16.6g} {v['unit']}")
        print(f"{name:15s} {'checks_failed':40s} {rec['failed']:>16d} "
              f"of checks_run = {rec['attempted']}")
        print(json.dumps({"env": rec["env"]}))

    if len(names) == 1:
        rec = results[names[0]]
        line = {k: rec[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        line = {"correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{n}.{k}": v for n, r in results.items()
                            for k, v in r["metrics"].items()}}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
