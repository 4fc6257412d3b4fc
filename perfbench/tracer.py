"""Layer tracing installed from outside the program.

`install()` wraps the public entry points of each segrecalc layer with
spans (inclusive and self time, call counts) and a few hot-loop entry
points with bare counters.  Every module that bound a wrapped function
by `from ... import` gets the wrapper too, so no call path escapes.
Spans are aggregated in memory by name; nothing inside `src/` changes.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict


class Tracer:
    """Aggregated spans: calls, inclusive and self seconds per name.

    Inclusive time counts only the outermost active span of a name, so
    recursion is not counted twice.  Self time is a span's duration
    minus the durations of its direct child spans.  `edges` counts calls
    of a span name made directly under another span name.
    """

    def __init__(self):
        self.calls = Counter()
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.edges = Counter()
        self.counts = Counter()
        self._stack = []  # per open span: [name, child seconds]
        self._depth = Counter()

    def span(self, name: str, fn):
        clock = time.perf_counter
        stack, depth = self._stack, self._depth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            depth[name] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                depth[name] -= 1
                if stack:
                    stack[-1][1] += elapsed
                self.calls[name] += 1
                self.edges[(parent, name)] += 1
                self.self_time[name] += elapsed - frame[1]
                if not depth[name]:
                    self.inclusive[name] += elapsed

        return wrapper

    def counter(self, name: str, fn, true_name: str | None = None):
        """Count calls of fn, and with `true_name` its truthy results."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            out = fn(*args, **kwargs)
            if true_name and out:
                counts[true_name] += 1
            return out

        return wrapper


def _rebind(orig, new):
    """Point every segrecalc module-level name bound to orig at new."""
    hits = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "segrecalc" or mod_name.startswith("segrecalc.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, new)
                hits += 1
    if not hits:
        raise LookupError(f"{orig.__qualname__} is bound in no segrecalc module")


def install(tracer: Tracer) -> None:
    """Wrap the layer entry points of an imported segrecalc."""
    from segrecalc import cli, hilbert, kronecker, linalg, numsgp, quivers  # noqa: F401
    from segrecalc.gradedlin import complexes, modules, resolution

    functions = [
        (linalg.rank_of, "linalg.rank_of"),
        (linalg.kernel_of, "linalg.kernel_of"),
        (resolution.free_resolution, "resolution.free_resolution"),
        (resolution.minimal_generators, "resolution.minimal_generators"),
        (resolution.ext_dims, "resolution.ext_dims"),
        (resolution.hom_space, "resolution.hom_space"),
        (resolution.compose_hom, "resolution.compose_hom"),
        (resolution.through_free_vectors, "resolution.through_free_vectors"),
        (complexes.diagonal, "complexes.diagonal"),
        (quivers.p_segre_quiver, "quivers.p_segre_quiver"),
        (hilbert.segre_report, "hilbert.segre_report"),
        (numsgp.report, "numsgp.report"),
        (kronecker.rigid_pairs, "kronecker"),
        (kronecker.classification_report, "kronecker"),
        (kronecker.degree_one_dims, "kronecker"),
    ]
    for fn, name in functions:
        _rebind(fn, tracer.span(name, fn))

    methods = [
        (linalg.CoordSolver, "solve", "linalg.coord_solve"),
        (modules.DiagonalModule, "act", "modules.act"),
        (modules.FreeModule, "act", "modules.act"),
        (modules.SyzygyModule, "act", "modules.act"),
        (resolution.HomCalculator, "hom_basis", "resolution.hom_basis"),
        (resolution.HomCalculator, "element_matrix", "resolution.element_matrix"),
        (complexes.DegreewiseComplex, "homology", "complexes.homology"),
        (quivers.EndoQuiver, "__init__", "quivers.endo_quiver"),
        (quivers.EndoQuiver, "_arrows", "quivers.arrows"),
        (quivers.EndoQuiver, "_rad_square", "quivers.rad_square"),
        (quivers.EndoQuiver, "stable_reduce", "quivers.stable_reduce"),
    ]
    for cls, attr, name in methods:
        setattr(cls, attr, tracer.span(name, getattr(cls, attr)))

    # hot loops: counted, never timed
    linalg.Echelon.add = tracer.counter(
        "linalg.echelon.inserts", linalg.Echelon.add, "linalg.echelon.accepted"
    )
    complexes.DegreewiseComplex.rank_at = tracer.counter(
        "complexes.rank_at.calls", complexes.DegreewiseComplex.rank_at
    )


def cache_counters() -> dict:
    """Hits, misses and entries of the module-level memos."""
    from segrecalc import cli, hilbert
    from segrecalc.gradedlin import modules, resolution

    out = {}
    for name, fn in (
        ("modules.act_cache", resolution._act_matrix_frozen),
        ("modules.r_basis_cache", modules.r_basis),
        ("modules.diag_basis_cache", modules._diag_basis),
        ("hilbert.dim_at_cache", hilbert.dim_at),
    ):
        info = fn.cache_info()
        out[f"{name}.hits"] = info.hits
        out[f"{name}.misses"] = info.misses
        out[f"{name}.entries"] = info.currsize
    out["cli.ext_table_memo.entries"] = len(cli._ext_table.__dict__.get("memo", {}))
    return out


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer numbers of one traced run, by metric name."""
    calls, incl, own = tracer.calls, tracer.inclusive, tracer.self_time
    counts = tracer.counts
    inserts = counts["linalg.echelon.inserts"]
    out = {
        "linalg.rank_of.calls": calls["linalg.rank_of"],
        "linalg.rank_of_s": incl["linalg.rank_of"],
        "linalg.kernel_of.calls": calls["linalg.kernel_of"],
        "linalg.kernel_of_s": incl["linalg.kernel_of"],
        "linalg.echelon.inserts": inserts,
        "linalg.echelon.pivot_yield": counts["linalg.echelon.accepted"] / inserts if inserts else 0.0,
        "linalg.coord_solve.calls": calls["linalg.coord_solve"],
        "linalg.coord_solve_s": incl["linalg.coord_solve"],
        "modules.act.calls": calls["modules.act"],
        "modules.act_s": incl["modules.act"],
        "resolution.free_resolution.calls": calls["resolution.free_resolution"],
        "resolution.free_resolution_s": incl["resolution.free_resolution"],
        "resolution.minimal_generators_self_s": own["resolution.minimal_generators"],
        "resolution.ext_dims_s": incl["resolution.ext_dims"],
        "resolution.hom_basis.calls": calls["resolution.hom_basis"],
        "resolution.hom_basis.misses": tracer.edges[("resolution.hom_basis", "resolution.hom_space")],
        "resolution.element_matrix.calls": calls["resolution.element_matrix"],
        "resolution.compose_hom.calls": calls["resolution.compose_hom"],
        "resolution.compose_hom_s": incl["resolution.compose_hom"],
        "resolution.through_free_vectors_s": incl["resolution.through_free_vectors"],
        "complexes.diagonal_s": incl["complexes.diagonal"],
        "complexes.homology_s": incl["complexes.homology"],
        "complexes.rank_at.calls": counts["complexes.rank_at.calls"],
        "quivers.endo_quiver.calls": calls["quivers.endo_quiver"],
        "quivers.endo_quiver_s": incl["quivers.endo_quiver"],
        "quivers.arrows_s": incl["quivers.arrows"],
        "quivers.rad_square_s": incl["quivers.rad_square"],
        "quivers.stable_reduce_s": incl["quivers.stable_reduce"],
        "quivers.p_segre_quiver_s": incl["quivers.p_segre_quiver"],
        "hilbert.segre_report_s": incl["hilbert.segre_report"],
        "numsgp.report_s": incl["numsgp.report"],
        "kronecker_s": incl["kronecker"],
    }
    out.update(cache_counters())
    return out
