"""Spans around the package's public functions, installed for traced runs only.

A wrapper goes on every module attribute through which a caller reaches a
traced function (``rotor_state.evaluate_psi`` as well as
``_kernels.evaluate_psi``, ``cli.run_round_trip`` as well as
``noise_correction.run_round_trip``, and the package namespace), so calls
made inside the package are seen too. Each call records a span (name,
start, end, parent span, op id) in memory; ``uninstall`` restores the
original functions. A span's self time is its duration minus the time its
child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict

# span name -> (module under rotorcode, attribute) of the functions it covers
TARGETS = {
    "cli.main": [("cli", "main")],
    "code_space.logical_encode": [("code_space", "logical_encode")],
    "code_space.envelope_coefficients": [("code_space", "envelope_coefficients")],
    "rotor_state.angle_distribution": [("rotor_state", "angle_distribution")],
    "rotor_state.sample_angle": [("rotor_state", "sample_angle")],
    "rotor_state.theta_wavefunction": [("rotor_state", "theta_wavefunction")],
    "kernels.evaluate_psi": [("_kernels", "evaluate_psi")],
    "weyl_algebra.apply": [("weyl_algebra", "apply")],
    "weyl_algebra.compose": [("weyl_algebra", "compose")],
    "noise_correction.apply_error": [("noise_correction", "apply_error")],
    "noise_correction.measure_syndrome": [
        ("noise_correction", "measure_syndrome_expected"),
        ("noise_correction", "measure_syndrome_sampled"),
    ],
    "noise_correction.correct": [("noise_correction", "correct")],
    "noise_correction.run_round_trip": [("noise_correction", "run_round_trip")],
    "analysis.pe_quadrature": [("analysis", "pe_quadrature")],
    "analysis.compute_pe": [("analysis", "compute_pe")],
    "analysis.angle_deviation_sampler": [("analysis", "angle_deviation_sampler")],
}


def _output_bytes(args, kwargs, result) -> dict[str, int]:
    argv = list(args[0]) if args else list(kwargs.get("argv") or [])
    if "--output" not in argv:
        return {}
    path = argv[argv.index("--output") + 1]
    return {"cli.bytes_out": os.path.getsize(path) if os.path.exists(path) else 0}


def _momenta(args, kwargs, result) -> dict[str, int]:
    return {"code_space.momenta": int(result.amplitudes.shape[0])}


def _psi_terms(args, kwargs, result) -> dict[str, int]:
    return {"kernels.psi_terms": len(args[0]) * len(args[2])}


def _apply_terms(args, kwargs, result) -> dict[str, int]:
    op = args[0] if args else kwargs["op"]
    return {"weyl_algebra.apply.terms": len(op.terms)}


def _trials(args, kwargs, result) -> dict[str, int]:
    return {"noise_correction.trials": int(args[3] if len(args) > 3 else kwargs["trials"])}


# counts taken from a successful call's arguments and result
COUNTER_UNITS = {
    "cli.bytes_out": "bytes",
    "code_space.momenta": "count",
    "kernels.psi_terms": "count",
    "weyl_algebra.apply.terms": "count",
    "noise_correction.trials": "count",
}
COUNTERS = {
    "cli.main": _output_bytes,
    "code_space.logical_encode": _momenta,
    "kernels.evaluate_psi": _psi_terms,
    "weyl_algebra.apply": _apply_terms,
    "noise_correction.run_round_trip": _trials,
}

# span names whose raised errors are counted, as ``<layer>.failed``; an
# analysis error is counted once, at the outermost analysis span
FAILURE_LAYERS = {"code_space.logical_encode": "code_space", "analysis": "analysis"}


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced pass reports, with its unit."""
    units: dict[str, str] = {}
    for span in TARGETS:
        units[f"{span}.calls"] = "count"
        units[f"{span}.self_s"] = "s"
    units.update(COUNTER_UNITS)
    units.update({f"{layer}.failed": "count" for layer in FAILURE_LAYERS.values()})
    return units


class Tracer:
    """In-memory spans and per-function totals for one traced pass or more."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [span index, name, child seconds]
        self._op_id: int | None = None
        self._patched: list[tuple] = []

    # -- installation

    def install(self) -> None:
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if name == "rotorcode" or name.startswith("rotorcode.")
        ]
        for span, targets in TARGETS.items():
            for mod_name, attr in targets:
                original = getattr(sys.modules[f"rotorcode.{mod_name}"], attr)
                wrapper = self._wrap(span, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            self._patched.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Attribute the spans opened inside the block to op ``op_id``."""
        self._op_id = op_id
        try:
            yield
        finally:
            self._op_id = None

    # -- recording

    def _wrap(self, span: str, fn):
        count = COUNTERS.get(span)
        layer = span.split(".", 1)[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op_id is None:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            frame = [len(self.spans), span, 0.0]
            self.spans.append(None)
            self._stack.append(frame)
            raised = True
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent[2] += t1 - t0
                self.spans[frame[0]] = (
                    span, t0, t1, parent[0] if parent else None, self._op_id
                )
                self.calls[span] += 1
                self.self_s[span] += (t1 - t0) - frame[2]
                if raised:
                    self._count_failure(span, layer, parent)
            if count is not None:
                self.counts.update(count(args, kwargs, result))
            return result

        return wrapper

    def _count_failure(self, span: str, layer: str, parent) -> None:
        if span in FAILURE_LAYERS:
            self.counts[f"{FAILURE_LAYERS[span]}.failed"] += 1
        elif layer in FAILURE_LAYERS and (parent is None or not parent[1].startswith(layer)):
            self.counts[f"{FAILURE_LAYERS[layer]}.failed"] += 1

    # -- results

    def snapshot(self) -> dict[str, float]:
        """Totals so far: ``<span>.calls``, ``<span>.self_s`` and the counters."""
        out: dict[str, float] = {}
        for span in TARGETS:
            out[f"{span}.calls"] = self.calls[span]
            out[f"{span}.self_s"] = self.self_s[span]
        out.update(self.counts)
        return out

    def reset_totals(self) -> None:
        self.calls.clear()
        self.self_s.clear()
        self.counts.clear()

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, t0, t1, parent, op_id in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "op": op_id}) + "\n")
