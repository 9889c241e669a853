"""Spans around the package's public functions, recorded from outside.

Each traced layer is a public function of ``vortexcascade``. The wrapper is
installed on every module binding that a caller looks the function up
through (``from .beams import far_field`` copies the function into
``vortexcascade.cascade``, so that is the binding the cascade uses). Nothing
under ``src/`` changes; ``uninstall`` puts the original functions back.

A span is ``(item, span_id, parent_id, layer, start_s, end_s, self_s, attrs)``.
Self time is the span's duration minus the time covered by its child spans.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import os
import time

PKG = "vortexcascade"


def _gram_bins(gram, angles):
    """Carrier angles (angle_x, angle_y) as spectral bins of the frame."""
    spec = gram.spec
    return (
        angles[0] / gram.wavelength * spec.nx * spec.dx,
        angles[1] / gram.wavelength * spec.ny * spec.dy,
    )


def _extract_attrs(args, kwargs, result):
    label = getattr(args[0], "label", None)
    return {"ell": result.ell, "label": None if label is None else str(label)}


def _detect_attrs(args, kwargs, result):
    if result is None:
        return {"found": False}
    bx, by = _gram_bins(args[0], result)
    return {"found": True, "bins": [bx, by]}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


# layer name -> (defining module, function, [binding modules], attribute hook)
LAYERS = {
    "config.load_config": ("config", "load_config", ["cli"], None),
    "cli.cmd_figure3": ("cli", "cmd_figure3", ["cli"], None),
    "cli.cmd_analyze": ("cli", "cmd_analyze", ["cli"], None),
    "cli.cmd_pulse": ("cli", "cmd_pulse", ["cli"], None),
    "cli.cmd_comb": ("cli", "cmd_comb", ["cli"], None),
    "interferometry.analyze_order_panel": (
        "interferometry", "analyze_order_panel", ["cli"], None),
    "beams.lg_mode_field": ("beams", "lg_mode_field", ["interferometry"], None),
    "cascade.observed_sideband": (
        "cascade", "observed_sideband", ["interferometry"], None),
    "cascade.spatial_sideband": ("cascade", "spatial_sideband", ["cascade"], None),
    "beams.far_field": ("beams", "far_field", ["cascade"], None),
    "interferometry.synthesize_interferogram": (
        "interferometry", "synthesize_interferogram", ["interferometry"], None),
    "interferometry.add_intensity_noise": (
        "interferometry", "add_intensity_noise", ["interferometry"], None),
    "interferometry.extract_charge": (
        "interferometry", "extract_charge", ["interferometry", "cli"], _extract_attrs),
    "interferometry.detect_carrier": (
        "interferometry", "detect_carrier", ["interferometry"], _detect_attrs),
    "pgmio.write_pgm16": ("pgmio", "write_pgm16", ["cli"], _file_bytes),
    "pgmio.read_pgm16": ("pgmio", "read_pgm16", ["cli"], _file_bytes),
    "pulses.chirped_pair_field": ("pulses", "chirped_pair_field", ["cli"], None),
    "pulses.synthesize_waveform": ("pulses", "synthesize_waveform", ["cli"], None),
    "pulses.train_period": ("pulses", "train_period", ["cli"], None),
    "cascade.build_comb": ("cascade", "build_comb", ["cli"], None),
}


class Tracer:
    """Records nested spans; ``item`` tags every span with the current item."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.item: int | None = None
        self._stack: list[list] = []  # [span_id, child_seconds]
        self._next_id = 0
        self._saved: list[tuple] = []

    def wrap(self, layer, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            frame = [span_id, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            returned = False
            try:
                result = fn(*args, **kwargs)
                returned = True
            finally:
                end = time.perf_counter()
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += end - start
                if not returned:
                    extra = {"raised": True}
                else:
                    extra = attrs(args, kwargs, result) if attrs is not None else None
                self.spans.append(
                    (self.item, span_id, parent, layer, start, end, end - start - frame[1], extra)
                )
            return result

        return traced

    def install(self):
        for layer, (home, name, bindings, attrs) in LAYERS.items():
            original = getattr(importlib.import_module(f"{PKG}.{home}"), name)
            traced = self.wrap(layer, original, attrs)
            for binding in bindings:
                module = importlib.import_module(f"{PKG}.{binding}")
                self._saved.append((module, name, getattr(module, name)))
                setattr(module, name, traced)

    def uninstall(self):
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()
