"""Per-layer spans and counters for the traced run.

isoprod has no tracing of its own, so the traced run replaces functions at
the names their call sites look them up by (for example `oracle.coset_table`,
which `oracle.relation_matrix` calls) with timing wrappers, and puts the
originals back afterwards.  Nothing under src/ is changed.

Times are inclusive: `presentation.validate_ms` contains the
`abelian.subgroup_generated_ms` spent inside validation.  The unit-pivot
pass and the dense Smith step are visible only through private functions of
intlattice; if a later change renames one of them, or any other target, the
span is reported as missing and its metrics read 0.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from functools import wraps
from time import perf_counter

# name -> unit; the order is the order of BENCHMARK.json.
METRICS = {
    "cli.case_load_ms": "ms",
    "presentation.validate_calls": "count",
    "presentation.validate_ms": "ms",
    "presentation.freeness_ms": "ms",
    "abelian.subgroup_generated_calls": "count",
    "abelian.subgroup_generated_ms": "ms",
    "oracle.coset_table_ms": "ms",
    "oracle.schreier_ms": "ms",
    "oracle.rewrite_ms": "ms",
    "oracle.matrix_rows": "count",
    "oracle.matrix_cols": "count",
    "oracle.matrix_nnz": "count",
    "intlattice.invariants_calls": "count",
    "intlattice.invariants_ms": "ms",
    "intlattice.unit_pivot_ms": "ms",
    "intlattice.unit_pivots": "count",
    "intlattice.dense_smith_ms": "ms",
    "intlattice.dense_rows": "count",
    "intlattice.dense_cols": "count",
    "cocycle.quotient_ms": "ms",
    "cocycle.kernel_basis_ms": "ms",
    "cocycle.evaluations": "count",
    "cocycle.h1_ms": "ms",
}


class Tracer:
    """Totals of one traced pass.  `ms` metrics accumulate seconds of `clock`."""

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.totals = dict.fromkeys(METRICS, 0)
        self.missing: list[str] = []

    def metrics(self) -> dict[str, float]:
        return {name: value * 1e3 if METRICS[name] == "ms" else value
                for name, value in self.totals.items()}

    def _timed(self, ms_key, calls_key=None, before=None, after=None):
        totals, clock = self.totals, self.clock

        def wrap(fn):
            @wraps(fn)
            def wrapper(*args, **kwargs):
                if before is not None:
                    before(args)
                start = clock()
                result = fn(*args, **kwargs)
                totals[ms_key] += clock() - start
                if calls_key is not None:
                    totals[calls_key] += 1
                if after is not None:
                    after(result)
                return result
            return wrapper
        return wrap

    def _counted(self, key):
        totals = self.totals

        def wrap(fn):
            @wraps(fn)
            def wrapper(*args, **kwargs):
                totals[key] += 1
                return fn(*args, **kwargs)
            return wrapper
        return wrap

    def _matrix(self, args):
        matrix = args[0]
        self.totals["oracle.matrix_rows"] += matrix.rows
        self.totals["oracle.matrix_cols"] += matrix.cols
        self.totals["oracle.matrix_nnz"] += sum(len(row) - row.count(0) for row in matrix.data)

    def _unit_pivots(self, removed):
        self.totals["intlattice.unit_pivots"] += removed

    def _dense(self, args):
        # _smith(d, m, n, u, v): report the largest dense residual of the pass.
        rows, cols = args[1], args[2]
        self.totals["intlattice.dense_rows"] = max(self.totals["intlattice.dense_rows"], rows)
        self.totals["intlattice.dense_cols"] = max(self.totals["intlattice.dense_cols"], cols)

    def _targets(self):
        """(module, attribute path, wrapper factory) for every span."""
        case_load = self._timed("cli.case_load_ms")
        invariants = "intlattice.invariants_ms", "intlattice.invariants_calls"
        return (
            ("isoprod.cli", "builtin_case", case_load),
            ("isoprod.cli", "parse_case_file", case_load),
            ("isoprod.cli", "case_from_file", case_load),
            ("isoprod.presentation", "validate_generating_system",
             self._timed("presentation.validate_ms", "presentation.validate_calls")),
            ("isoprod.cli", "freeness_check", self._timed("presentation.freeness_ms")),
            ("isoprod.presentation", "subgroup_generated",
             self._timed("abelian.subgroup_generated_ms", "abelian.subgroup_generated_calls")),
            ("isoprod.oracle", "coset_table", self._timed("oracle.coset_table_ms")),
            ("isoprod.oracle", "schreier_transversal", self._timed("oracle.schreier_ms")),
            ("isoprod.oracle", "rewrite_relator", self._timed("oracle.rewrite_ms")),
            ("isoprod.oracle", "abelian_invariants", self._timed(*invariants, before=self._matrix)),
            ("isoprod.cocycle", "abelian_invariants", self._timed(*invariants)),
            ("isoprod.intlattice", "_presparse_reduce",
             self._timed("intlattice.unit_pivot_ms", after=self._unit_pivots)),
            ("isoprod.intlattice", "_smith",
             self._timed("intlattice.dense_smith_ms", before=self._dense)),
            ("isoprod.cocycle", "commutator_quotient", self._timed("cocycle.quotient_ms")),
            ("isoprod.cocycle", "kernel_basis", self._timed("cocycle.kernel_basis_ms")),
            ("isoprod.cocycle", "ExtensionCocycle.__call__", self._counted("cocycle.evaluations")),
            ("isoprod.cli", "h1_cocycle", self._timed("cocycle.h1_ms")),
        )

    @contextmanager
    def installed(self):
        """Wrap every target that exists; restore the originals on exit."""
        patched = []
        for module, path, wrap in self._targets():
            try:
                owner = importlib.import_module(module)
            except ModuleNotFoundError:
                owner = None
            *parents, name = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent, None)
            if owner is None or not callable(getattr(owner, name, None)):
                self.missing.append(f"{module}.{path}")
                continue
            original = getattr(owner, name)
            patched.append((owner, name, original))
            setattr(owner, name, wrap(original))
        try:
            yield self
        finally:
            for owner, name, original in reversed(patched):
                setattr(owner, name, original)
