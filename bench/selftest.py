"""Self-test of the benchmark: no check is vacuous.

Every workload runs one round, its smallest size, and every output must
pass its checks; then each kind of output is perturbed in ways its check
must reject (an orbit shifted by 1e-6, an integral scaled by 1.01, ...).

    python3 -m pytest bench/selftest.py -q
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "CONTACTKIT_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import pytest

import run
import worker
import workloads


def shift_orbit(out):
    return {**out, "points": out["points"] + 1e-6}


def shift_return(out):
    t_ret, d_ret = out["return"]
    return {**out, "return": (t_ret, d_ret + 1e-6)}


def late_return(out):
    t_ret, d_ret = out["return"]
    return {**out, "return": (t_ret + 1e-3, d_ret)}


def edit_report(key, change):
    def perturb(out):
        report = json.loads(out["json"])
        report[key] = change(report[key])
        return {**out, "json": json.dumps(report).encode()}
    return perturb


def nudge_report_digit(out):
    """Change the last digit of the Birkhoff average, in place in the bytes."""
    lines = out["json"].split(b"\n")
    i = next(i for i, line in enumerate(lines) if b'"birkhoff_average"' in line)
    digit = lines[i].rstrip(b",")[-1:]
    lines[i] = lines[i].replace(digit + b",", (b"1" if digit != b"1" else b"2") + b",")
    return {**out, "json": b"\n".join(lines)}


def shift_csv_end(out):
    rows = out["csv"].decode().splitlines()
    last = [float(v) for v in rows[-1].split(",")]
    last[1] += 1e-6
    rows[-1] = ",".join(repr(v) for v in last)
    return {**out, "csv": ("\n".join(rows) + "\n").encode()}


def scale_value(out):
    return dataclasses.replace(out, value=out.value * 1.01)


def shift_transport(out):
    return out[0] + 1e-6, out[1]


def shift_vector(out):
    return out[0], out[1] + 1e-6


PERTURBATIONS = {
    "orbit": [("shift 1e-6", shift_orbit)],
    "return": [("orbit shift 1e-6", shift_orbit), ("distance +1e-6", shift_return),
               ("time +1e-3", late_return)],
    "flow": [("Birkhoff x1.01", edit_report("birkhoff_average", lambda v: v * 1.01)),
             ("coverage 0", edit_report("coverage", lambda v: 0.0)),
             ("pass false", edit_report("pass", lambda v: False)),
             ("CSV end shift 1e-6", shift_csv_end)],
    "rerun": [("CSV end shift 1e-6", shift_csv_end),
              ("report last digit", nudge_report_digit)],
    "integral": [("value x1.01", scale_value)],
    "transport": [("point shift 1e-6", shift_transport),
                  ("vector shift 1e-6", shift_vector)],
    "strictness": [("defect 1e-6", lambda out: out + 1e-6)],
    "jacobi": [("residual 1e-5", lambda out: out + 1e-5)],
}


def output_family(kind: str) -> str:
    if kind in ("golden", "s5", "cotangent"):
        return "orbit"
    if kind.endswith(("_volume", "_polynomial")):
        return "integral"
    if kind.endswith(("_reeb", "_moment")):
        return "transport"
    for suffix in ("_strictness", "_jacobi"):
        if kind.endswith(suffix):
            return suffix[1:]
    return kind


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_round_passes_and_perturbations_fail(tmp_path, name):
    wl = workloads.WORKLOADS[name](str(tmp_path))
    try:
        tasks = wl.make_round(worker.round_rng(0, 1))
        outputs = []
        for task in tasks:
            out = task.run()
            assert task.check(out) == [], task.kind
            outputs.append((task, out))
        missed = []
        for task, out in outputs:
            for label, perturb in PERTURBATIONS[output_family(task.kind)]:
                if not task.check(perturb(out)):
                    missed.append(f"{task.kind}: {label}")
        assert missed == []
    finally:
        wl.close()


def test_task_time_is_scaled_by_the_yardstick_around_it(monkeypatch):
    ticks = iter([2e-3, 2e-3, 4e-3, 4e-3])
    monkeypatch.setattr(worker, "yardstick", lambda: next(ticks))
    run = worker.Run()
    run.task(workloads.Task("sleep", 1.0, lambda: time.sleep(0.01), lambda out: []))
    assert run.yardstick == [3e-3]
    assert run.times[0] == pytest.approx(run.raw_times[0] * worker.YARDSTICK_S / 3e-3)


def test_tail_percentile_leaves_ten_tasks_beyond():
    for min_tasks in (40, 45, 49, 80):
        pct = run.tail_percentile(min_tasks)
        assert min_tasks * (1 - pct / 100) >= 10
        assert min_tasks * (1 - (pct + 1) / 100) < 10


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "reeb_orbit",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == b""
