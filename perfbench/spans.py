"""Span recording around scimetrics' public functions, installed from outside
the package.

A span is ``[name, start, end, parent, attrs]``: ``parent`` is the index of
the enclosing span (``None`` at the top) and ``attrs`` holds counts taken at
the boundary.  Spans stay in memory; the caller writes them out when the run
ends.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import sys
import time

# module -> public functions wrapped in a span named "<module>.<function>".
# CLI handlers are named by their subcommand: cmd_corr_matrix -> cli.corr-matrix.
TRACED = {
    "ingest": ("load_corpus", "save_corpus"),
    "synth": ("generate",),
    "corpus": ("snapshot_at",),
    "indices": ("compute_measure", "compute_all"),
    "rankcorr": ("pair_counts", "roc_curve"),
    "evaluation": (
        "award_scores", "apply_filter", "series", "measure_correlation_matrix",
    ),
    "cli": (
        "main", "cmd_validate", "cmd_indices", "cmd_evaluate", "cmd_roc",
        "cmd_corr_matrix", "cmd_synth",
    ),
}


def _bytes_read(args, kwargs, result):
    paths = [p for p in (*args, *kwargs.values()) if isinstance(p, (str, os.PathLike))]
    return {"bytes_read": sum(os.path.getsize(p) for p in paths if os.path.isfile(p))}


def _pair_bytes(args, kwargs, result):
    # Computed, not measured: pair_counts builds the n x n float64 difference
    # matrix of each sequence and its sign matrix, four n^2 arrays of 8 bytes.
    n = len(args[0])
    return {"max_n": n, "bytes_computed": 32 * n * n}


def _series_cells(args, kwargs, result):
    if result is None:
        return None
    return {
        "cells_attempted": len(result.values),
        "cells_defined": sum(v is not None for v in result.values),
    }


def _matrix_cells(args, kwargs, result):
    if result is None:
        return None
    k = len(result)
    upper = [result[i][j] for i in range(k) for j in range(i, k)]
    return {
        "cells_attempted": len(upper),
        "cells_defined": sum(not math.isnan(v) for v in upper),
    }


ANNOTATE = {
    "ingest.load_corpus": _bytes_read,
    "rankcorr.pair_counts": _pair_bytes,
    "evaluation.series": _series_cells,
    "evaluation.measure_correlation_matrix": _matrix_cells,
}


class Recorder:
    """Collects spans of one process; single-threaded, parents via a stack."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        annotate = ANNOTATE.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            result = None
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                if annotate is not None:
                    span[4] = annotate(args, kwargs, result)

        return wrapper

    def install(self, package: str) -> list[tuple]:
        """Replace each traced function in every imported module of `package`
        that bound it, so calls through `from .x import f` names are seen too.
        Returns (module, attribute, original) for each replacement."""
        modules = [
            m for name, m in list(sys.modules.items())
            if name == package or name.startswith(package + ".")
        ]
        replaced = []
        for module_name, func_names in TRACED.items():
            module = sys.modules.get(f"{package}.{module_name}")
            if module is None:
                continue
            for func_name in func_names:
                original = getattr(module, func_name)
                if func_name.startswith("cmd_"):
                    span_name = "cli." + func_name[4:].replace("_", "-")
                else:
                    span_name = f"{module_name}.{func_name}"
                wrapper = self.wrap(span_name, original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            replaced.append((m, attr, original))
        return replaced

    @contextlib.contextmanager
    def installed(self, package: str):
        """Trace `package` inside the block, then restore its functions."""
        replaced = self.install(package)
        try:
            yield self
        finally:
            for module, attr, original in replaced:
                setattr(module, attr, original)


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds, self seconds (duration minus
    the time direct children cover) and summed attributes (``max_*`` ones
    take the maximum)."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    stats: dict[str, dict] = {}
    for i, (name, start, end, _, attrs) in enumerate(spans):
        merge(stats, {name: {
            "calls": 1, "s": end - start, "self_s": end - start - covered[i],
            **(attrs or {}),
        }})
    return stats


def merge(into: dict[str, dict], stats: dict[str, dict]) -> dict[str, dict]:
    """Add `stats` to `into`: sum each figure, or take the larger for
    ``max_*`` ones."""
    for name, entry in stats.items():
        target = into.setdefault(name, {})
        for key, value in entry.items():
            if key.startswith("max_"):
                target[key] = max(target.get(key, 0), value)
            else:
                target[key] = target.get(key, 0) + value
    return into
