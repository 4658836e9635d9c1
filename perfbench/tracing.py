"""Outside-in per-layer trace of one benchmark repetition.

Each layer's public functions are wrapped at the module attribute the
engine looks them up through (for example ``lfgibbs.gibbs.scaled_distance``
or ``SweepOperator.draw_state`` on its class), so the program itself is
not edited.  A wrapper records a span (layer, parent span, start, end) in
memory and bumps the layer's counters.  A layer's self time is the time of
its spans minus the time of their child spans; whatever the root span
covers and no layer span does is reported as ``engine.self_s``.

Wrappers exist only inside ``Tracer.installed()``; the untraced
repetitions that give the end-to-end metrics run the program as shipped.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

LAYERS = ("simulate", "summarize", "localize", "fit", "draw", "post")
ROOT_LAYER = "engine"
# counts the configuration fixes; they must not depend on the seed
GATED_COUNTS = ("fit.calls", "localize.calls", "localize.rows_scanned", "draw.calls",
                "summarize.obs_fits")


def _calls(counter):
    def count(counts, args, result):
        counts[counter] += 1
    return count


def _table_rows(counts, args, result):
    counts["simulate.rows"] += len(result)


def _scanned(counts, args, result):
    counts["localize.calls"] += 1
    counts["localize.rows_scanned"] += int(np.shape(args[0])[0]) if np.ndim(args[0]) == 2 else 1


def _kept(counts, args, result):
    counts["localize.weighed"] += np.size(result)
    counts["localize.kept"] += int(np.count_nonzero(np.asarray(result) > 0))


def _fit_rows(counts, args, result):
    counts["fit.calls"] += 1
    counts["fit.rows"] += int(np.shape(args[0])[0])


def _nfev(counts, args, result):
    counts["summarize.minimize_calls"] += 1
    counts["summarize.nfev"] += int(result.nfev)


# (layer or None for a counter without a span, module, attribute, counter)
TARGETS = (
    ("simulate", "lfgibbs.abc", "simulate_reference_table", _table_rows),
    ("simulate", "lfgibbs.statespace.training", "gk_sample", _calls("simulate.rows")),
    ("summarize", "lfgibbs.statespace.training", "estimate_gk", _calls("summarize.fits")),
    ("summarize", "lfgibbs.statespace.sampler", "estimate_gk", _calls("summarize.obs_fits")),
    (None, "lfgibbs.gk", "minimize", _nfev),
    ("localize", "lfgibbs.gibbs", "scaled_distance", _scanned),
    ("localize", "lfgibbs.gibbs", "knn_bandwidth", None),
    ("localize", "lfgibbs.gibbs", "kernel_weight", _kept),
    ("localize", "lfgibbs.statespace.training", "scaled_distance", _scanned),
    ("localize", "lfgibbs.statespace.training", "knn_bandwidth", None),
    ("localize", "lfgibbs.statespace.training", "kernel_weight", _kept),
    ("fit", "lfgibbs.gibbs", "fit_weighted_linear", _fit_rows),
    ("fit", "lfgibbs.gibbs", "fit_weighted_logistic", _fit_rows),
    ("fit", "lfgibbs.gibbs", "fit_flexible_heteroscedastic", _fit_rows),
    ("draw", "lfgibbs.gibbs", "sample_linear_parametric", _calls("draw.calls")),
    ("draw", "lfgibbs.gibbs", "sample_linear_residual", _calls("draw.calls")),
    ("draw", "lfgibbs.gibbs", "sample_flexible", _calls("draw.calls")),
    ("draw", "lfgibbs.regression", "LogisticFit.predict_prob", _calls("draw.calls")),
    ("draw", "lfgibbs.statespace.sampler", "sample_lambda_conditional", _calls("draw.calls")),
    ("draw", "lfgibbs.statespace.conditionals", "SweepOperator.draw_initial", _calls("draw.calls")),
    ("draw", "lfgibbs.statespace.conditionals", "SweepOperator.draw_state", _calls("draw.calls")),
    ("draw", "lfgibbs.statespace.conditionals", "SweepOperator.draw_terminal", _calls("draw.calls")),
    ("post", "lfgibbs.gibbs", "effective_sample_size", None),
    ("post", "lfgibbs.gibbs", "save_chain", None),
)


def _owner(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Spans and counters of one traced repetition, held in memory."""

    def __init__(self):
        self.spans = []  # [layer, parent index or -1, start, end]
        self.counts = Counter()
        self._stack = []

    def _wrap(self, layer, fn, count):
        def traced(*args, **kwargs):
            if layer is None:
                result = fn(*args, **kwargs)
            else:
                with self.span(layer):
                    result = fn(*args, **kwargs)
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        saved = []
        try:
            for layer, module, attr, count in TARGETS:
                owner, name = _owner(module, attr)
                original = vars(owner)[name]
                saved.append((owner, name, original))
                setattr(owner, name, self._wrap(layer, original, count))
            with self.span(ROOT_LAYER):
                yield self
        finally:
            for owner, name, original in reversed(saved):
                setattr(owner, name, original)

    @contextmanager
    def span(self, layer: str):
        """Record the block as one span of the layer."""
        span = [layer, self._stack[-1] if self._stack else -1, time.perf_counter(), 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[3] = time.perf_counter()
            self._stack.pop()

    def self_seconds(self) -> dict:
        """Self time per layer, the root included."""
        child = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = dict.fromkeys(LAYERS + (ROOT_LAYER,), 0.0)
        for i, (layer, _, start, end) in enumerate(self.spans):
            out[layer] += (end - start) - child[i]
        return out

    def metrics(self, rep) -> dict:
        """Per-layer figures of the traced repetition ``rep``.

        ``trace.overhead_frac`` needs the untraced repetitions as well, so
        the caller adds it.
        """
        c = self.counts
        self_s = self.self_seconds()
        out = {f"{layer}.s": self_s[layer] for layer in LAYERS}
        redraws = rep.output.diagnostics.get("training_redraws", 0)
        ess = rep.output.ess[np.isfinite(rep.output.ess)]
        out.update({
            "simulate.rows": c["simulate.rows"],
            "summarize.fits": c["summarize.fits"] + c["summarize.obs_fits"],
            "summarize.obs_fits": c["summarize.obs_fits"],
            "summarize.nfev_per_fit": c["summarize.nfev"] / max(c["summarize.minimize_calls"], 1),
            "summarize.redraw_frac": redraws / max(c["summarize.fits"], 1),
            "localize.calls": c["localize.calls"],
            "localize.rows_scanned": c["localize.rows_scanned"],
            "localize.kept_frac": c["localize.kept"] / max(c["localize.weighed"], 1),
            "fit.calls": c["fit.calls"],
            "fit.rows_per_fit": c["fit.rows"] / max(c["fit.calls"], 1),
            "draw.calls": c["draw.calls"],
            "post.ess_min": float(ess.min()) if ess.size else 0.0,
            "engine.self_s": self_s[ROOT_LAYER],
            "trace.total_s": rep.total_s,
            "trace.setup_s": rep.setup_s,
            "trace.sample_s": rep.sample_s,
        })
        return out

    def write(self, path: Path) -> None:
        """Dump the spans, times relative to the first span's start."""
        t0 = self.spans[0][2] if self.spans else 0.0
        payload = {"fields": ["layer", "parent", "start_s", "end_s"],
                   "spans": [[layer, parent, start - t0, end - t0]
                             for layer, parent, start, end in self.spans],
                   "counts": dict(self.counts)}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload))
