"""Outside-in layer tracing: spans around darkpair's public functions.

``Tracer.install`` replaces each traced function by a wrapper in every
loaded ``darkpair`` module that refers to it, so calls made through
``from .x import f`` names are caught too; ``uninstall`` puts the
originals back.  Spans stay in memory; ``layer_metrics`` turns the spans
and counters of one pass into per-layer metrics.  Per-bit primitives
such as ``apply_create`` are not wrapped: there are millions of calls.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

CHECK_IDS = (
    "anticommutation", "pair_commutator", "gamma_commutator", "gamma_negation",
    "core_commutators", "dark_state", "h0_eigenstate", "number_eigenvalue",
    "momentum_eigenvalue", "coupling_independence",
)

# (module, attribute, span name); a span name of None counts calls only.
TARGETS = (
    ("darkpair.cli", "load_config", "cli.load_config"),
    ("darkpair.lattice", "build_mode_table", "lattice.build"),
    ("darkpair.fock", "sector_basis", "fock.sector_basis"),
    ("darkpair.operators", "matrix_in_sector", "operators.assemble"),
    ("darkpair.operators", "apply_operator", "operators.apply"),
    ("darkpair.operators", "build_h0", "operators.build"),
    ("darkpair.operators", "build_w", "operators.build"),
    ("darkpair.operators", "build_pair", "operators.build"),
    ("darkpair.operators", "build_gamma", "operators.build"),
    ("darkpair.operators", "build_number_op", "operators.build"),
    ("darkpair.operators", "build_momentum_op", "operators.build"),
    ("darkpair.operators", "pair_commutator_rhs", "operators.build"),
    ("darkpair.spectra", "diagonalize_sector", "spectra.eig"),
    ("darkpair.spectra", "bcs_variational_energy", "spectra.variational"),
    ("darkpair.spectra", "rayleigh_quotient", None),
    ("darkpair.spectra", "scan_g", "spectra.glue"),
    ("darkpair.spectra", "nc_in_spectrum", "spectra.glue"),
    ("darkpair.spectra", "spectrum_rows", "spectra.glue"),
    ("darkpair.spectra", "build_hamiltonian", "spectra.glue"),
    ("darkpair.states", "bcs_state", "states.bcs_state"),
    ("darkpair.states", "nc_state", "states.nc_state"),
    ("darkpair.verify", "run_battery", "verify.battery"),
    ("darkpair.verify", "continuum_energy_check", "verify.continuum"),
)

OP_SPAN = "cli.main"


def _count(c: Counter, attr: str, args, result) -> None:
    """Work counters recorded at the layer boundary."""
    if attr == "apply_operator":
        expr, vec = args[0], args[1]
        c["apply_calls"] += 1
        c["apply_term_visits"] += len(vec.amp) * len(expr.terms)
        c["apply_out"] += len(result.amp)
    elif attr == "compose":
        c["compose_calls"] += 1
        c["compose_terms_out"] += len(result.terms)
    elif attr == "build_w":
        c["w_terms"] += len(result.terms)
    elif attr == "build_mode_table":
        c["modes_max"] = max(c["modes_max"], result.n_modes)
    elif attr == "sector_basis":
        c["basis_states"] += len(result)
    elif attr == "matrix_in_sector":
        c["assemble_cols"] += len(args[1])
        c["assemble_nnz"] += (
            result.nnz if hasattr(result, "nnz") else int(np.count_nonzero(result))
        )
    elif attr == "diagonalize_sector":
        c["eig_dim_max"] = max(c["eig_dim_max"], result.dim)
        c[f"{result.method}_calls"] += 1
    elif attr == "rayleigh_quotient":
        c["variational_evals"] += 1
    elif attr == "run_battery":
        for check in result.checks:
            c[f"check.{check.check_id}_s"] += check.seconds


class Tracer:
    """Spans ``(name, start, end, parent, op_id, error)`` and counters."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op_id = -1
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, attr: str, name: str | None, fn):
        spans, stack = self.spans, self.stack
        perf = time.perf_counter

        if name is None:
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                _count(self.counts, attr, args, result)
                return result
            return counted

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            error = None
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                t1 = perf()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.op_id, error)
            _count(self.counts, attr, args, result)
            return result

        return traced

    def span(self, name: str, fn, *args):
        """Run ``fn(*args)`` as a root span of a new op."""
        self.op_id += 1
        return self.wrap(name, name, fn)(*args)

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n.startswith("darkpair")]
        for mod_name, attr, name in TARGETS:
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self.wrap(attr, name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, value))
                        setattr(mod, key, wrapper)
        from darkpair.operators import OperatorExpr

        self._saved.append((OperatorExpr, "compose", OperatorExpr.compose))
        OperatorExpr.compose = self.wrap("compose", "operators.compose",
                                         OperatorExpr.compose)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._saved):
            setattr(owner, key, value)
        self._saved.clear()

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the part direct children cover."""
        child = defaultdict(float)
        for span in self.spans:
            if span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        out: dict[str, float] = defaultdict(float)
        for idx, (name, t0, t1, _, _, _) in enumerate(self.spans):
            out[name] += (t1 - t0) - child[idx]
        return out

    def capped_ops(self) -> int:
        return len({s[4] for s in self.spans
                    if s[0] == "spectra.eig" and s[5] == "BasisSizeError"})

    def inclusive(self, name: str) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)

    def dump(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            for idx, (name, t0, t1, parent, op_id, error) in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "op": op_id,
                                     "error": error}) + "\n")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass (its spans and counters)."""
    st = tracer.self_times()
    c = tracer.counts
    cols, visits, evals = c["assemble_cols"], c["apply_term_visits"], c["variational_evals"]
    m = {
        "lattice.build_s": st["lattice.build"],
        "lattice.modes_max": c["modes_max"],
        "cli.load_config_s": st["cli.load_config"],
        "cli.self_s": st[OP_SPAN],
        "fock.sector_basis_s": st["fock.sector_basis"],
        "fock.basis_states": c["basis_states"],
        "operators.assemble_s": st["operators.assemble"],
        "operators.assemble_cols": cols,
        "operators.assemble_nnz": c["assemble_nnz"],
        "operators.assemble_us_per_col":
            1e6 * st["operators.assemble"] / cols if cols else 0.0,
        "operators.apply_s": st["operators.apply"],
        "operators.apply_calls": c["apply_calls"],
        "operators.apply_term_visits": visits,
        "operators.apply_yield": c["apply_out"] / visits if visits else 0.0,
        "operators.compose_s": st["operators.compose"],
        "operators.compose_calls": c["compose_calls"],
        "operators.compose_terms_out": c["compose_terms_out"],
        "operators.build_s": st["operators.build"],
        "operators.w_terms": c["w_terms"],
        "spectra.eig_s": st["spectra.eig"],
        "spectra.eig_dim_max": c["eig_dim_max"],
        "spectra.dense_calls": c["dense_calls"],
        "spectra.krylov_calls": c["krylov_calls"],
        "spectra.capped_ops": tracer.capped_ops(),
        "spectra.glue_s": st["spectra.glue"],
        "spectra.variational_s": st["spectra.variational"],
        "spectra.variational_evals": evals,
        "spectra.variational_ms_per_eval":
            1e3 * tracer.inclusive("spectra.variational") / evals if evals else 0.0,
        "states.bcs_state_s": st["states.bcs_state"],
        "states.nc_state_s": st["states.nc_state"],
        "verify.self_s": st["verify.battery"],
        "verify.continuum_s": tracer.inclusive("verify.continuum"),
    }
    for check_id in CHECK_IDS:
        m[f"verify.check.{check_id}_s"] = c[f"check.{check_id}_s"]
    return m
