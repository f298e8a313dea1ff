"""Self-tests of the benchmark. Run from the repository root:

    python -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def _declared(section: str) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def _canonical(ops) -> list:
    return [
        (op.kind, op.label, op.argv, op.known_defect,
         {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in op.params.items()})
        for op in ops
    ]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_prints_every_declared_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert lines[0].startswith("# env: ")
    if not trace:
        assert any("failed_frac" in line for line in lines[:-1])
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_mix(workload):
    first = _canonical(workloads.make_pass(workload, 11, 0))
    assert first == _canonical(workloads.make_pass(workload, 11, 0))
    assert first != _canonical(workloads.make_pass(workload, 12, 0))
    assert first != _canonical(workloads.make_pass(workload, 11, 1))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tracing_leaves_outputs_byte_identical(workload):
    runner = workloads.Runner(os.path.join(ROOT, ".perfbench_out"), digests=True)
    ops = workloads.make_pass(workload, 5, 0, tiny=True)
    plain = [runner.run(op) for op in ops]
    tracer = Tracer()
    tracer.install()
    runner.tracer = tracer
    try:
        traced = [runner.run(op, i) for i, op in enumerate(ops)]
    finally:
        runner.tracer = None
        tracer.uninstall()
    assert all(o.ok for o in plain + traced), [o.failure for o in plain + traced]
    assert [o.digest for o in plain] == [o.digest for o in traced]
    assert tracer.spans and all(span is not None for span in tracer.spans)


def test_uninstall_restores_every_function():
    import rotorcode.noise_correction as nc
    import rotorcode.rotor_state as rs

    before = (rs.evaluate_psi, nc.logical_encode, nc.angle_deviation_sampler)
    tracer = Tracer()
    tracer.install()
    assert rs.evaluate_psi is not before[0]
    tracer.uninstall()
    assert (rs.evaluate_psi, nc.logical_encode, nc.angle_deviation_sampler) == before


def test_generator_keeps_sampler_tables_in_budget_and_known_defects_in_mix():
    sampled = []
    defects = []
    for workload in workloads.WORKLOADS:
        for op in workloads.make_pass(workload, 2, 0):
            if op.known_defect:
                defects.append((workload, op.label))
            if "gauss-env" in op.argv and (
                "roundtrip" in op.argv or "monte-carlo" in op.argv
            ):
                sigma = float(op.argv[op.argv.index("--sigma") + 1])
                sampled.append((int(op.argv[op.argv.index("--N") + 1]), sigma))
    assert sampled and all(
        workloads.sampler_table_bytes(s) <= workloads.SAMPLER_TABLE_BUDGET for _, s in sampled
    )
    assert not [n for n, _ in sampled if n == 10]
    assert {w for w, _ in defects} == {"cli_roundtrip", "codec_angle"}


def test_refuses_to_run_without_the_package():
    proc = subprocess.run(
        [sys.executable, "run.py", "--workload", "cli_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=HERE, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
