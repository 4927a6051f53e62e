"""Per-layer spans recorded from outside the package.

A span wraps one call into a layer's public function.  Callers bind these
names at import (``from .lasso import fit_lasso_path`` in ``core``,
``studies`` and ``baselines``), so a wrapper is installed in every loaded
``cssel`` module whose attribute is the original function, the defining
module included (``cross_validate_lambda`` calls the path solver through
``cssel.lasso``'s own global).  The workloads run with ``threads=1``, so one
stack of open spans is enough.

A span's self time is its duration minus the durations of the spans nested
directly inside it; summed over all spans this equals the time covered by
the outermost spans, so self times plus the operation's untraced time add up
to the operation's wall time.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (defining module, function) -> layer
LAYER_OF = {
    ("cssel.lasso", "fit_lasso_path"): "lasso.path",
    ("cssel.lasso", "cross_validate_lambda"): "lasso.cv",
    ("cssel.lasso", "fit_lasso_at"): "lasso.cd",
    ("cssel.subsampling", "draw_complementary_pairs"): "subsampling.plan",
    ("cssel.subsampling", "restrict"): "subsampling.restrict",
    ("cssel.core", "run_base_selections"): "core.base",
    ("cssel.core", "feature_proportions"): "core.aggregate",
    ("cssel.core", "cluster_proportions"): "core.aggregate",
    ("cssel.core", "simultaneous_cluster_proportions"): "core.aggregate",
    ("cssel.core", "summarize_records"): "core.aggregate",
    ("cssel.clustering", "correlation_distance_matrix"): "clustering",
    ("cssel.clustering", "single_linkage_clusters"): "clustering",
    ("cssel.dataio", "load_dataset"): "dataio.read",
    ("cssel.dataio", "write_css_result"): "dataio.write",
    ("cssel.simgen", "gen_sparse_instance"): "simgen",
    ("cssel.simgen", "gen_two_proxy_instance"): "simgen",
    ("cssel.baselines", "protolasso"): "baselines",
    ("cssel.baselines", "cluster_rep_lasso"): "baselines",
    ("cssel.evaluation", "refit_and_mse"): "evaluation.refit",
    ("cssel.evaluation", "nogueira_stability_ci"): "evaluation.stability",
    ("cssel.evaluation", "selection_matrix"): "evaluation.stability",
}

# layer -> (counter name, count taken from the returned value)
COUNTERS = {
    "lasso.path": ("knots", lambda path: len(path.knots)),
    "core.base": ("halves", len),
    "simgen": ("rows", lambda inst: inst.data.n),
}


class Tracer:
    """Accumulates calls, self time and counters per layer across operations."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._open: list[float] = []  # child time accumulated per open span
        self.covered_s = 0.0  # time inside outermost spans
        self._installed: list[tuple[object, str, object]] = []

    def _wrap(self, fn, layer):
        counter = COUNTERS.get(layer)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            self._open.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                children = self._open.pop()
                self.calls[layer] += 1
                self.self_s[layer] += duration - children
                if self._open:
                    self._open[-1] += duration
                else:
                    self.covered_s += duration
            if counter is not None:
                self.counts[counter[0]] += counter[1](result)
            return result

        traced.__wrapped__ = fn
        return traced

    def add(self, other: "Tracer") -> None:
        """Fold another tracer's totals into this one."""
        for mine, theirs in (
            (self.calls, other.calls),
            (self.self_s, other.self_s),
            (self.counts, other.counts),
        ):
            for key, value in theirs.items():
                mine[key] += value
        self.covered_s += other.covered_s

    def install(self) -> None:
        """Wrap every binding of a layer function in the loaded cssel modules."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for (mod_name, fn_name), layer in LAYER_OF.items():
            original = getattr(sys.modules[mod_name], fn_name)
            wrappers[id(original)] = (original, self._wrap(original, layer))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "cssel" and not mod_name.startswith("cssel."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._installed.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in self._installed:
            setattr(module, attr, original)
        self._installed.clear()
