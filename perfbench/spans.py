"""In-memory spans around ncparab's public entry points, for traced runs.

Each entry point is wrapped under every name it is bound to in any loaded
``ncparab`` module, so a traced run executes the same ``cli.main`` path as an
untraced one and still sees calls made through a module's own globals (for
example ``AssembledForms.load`` calling ``assembly.assemble_load``). Spans
hold (name, start, end, parent) and stay in memory; self times and exact call
counts are computed from them after the command returns. Nothing under
``src/`` is modified.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

# Module -> public functions whose calls are recorded as spans.
TARGETS = {
    "problem": ("validate_coefficients", "factorize_principal"),
    "meshing": ("build_mesh",),
    "assembly": ("assemble_forms", "assemble_load", "dual_norm"),
    "spectral": ("generalized_eigenbasis",),
    "integrator": (
        "build_galerkin_system",
        "solve_evolution",
        "energy_identity_residuals",
    ),
    "estimates": (
        "compute_constants",
        "apriori_bounds",
        "check_uniqueness_condition",
        "check_continuity",
        "check_cauchy_bound",
    ),
}

# Spans whose arguments and results are kept for the size and residual
# metrics; other results are dropped so a traced run holds no extra arrays.
KEEP = {
    "meshing.build_mesh",
    "assembly.assemble_forms",
    "spectral.generalized_eigenbasis",
    "integrator.solve_evolution",
}

ROOT = "cli.main"


class Tracer:
    """Records nested spans once ``install`` has wrapped the targets.

    Wrapping is not undone: it is meant for a child process that runs one
    command and exits.
    """

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.results: list[tuple] = []  # (span name, positional args, return value)
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        keep = name in KEEP

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if keep:
                # References only: sizes and residuals are read after the
                # command returns, outside every timed span.
                self.results.append((name, args, result))
            return result

        return traced

    def install(self) -> None:
        import ncparab  # noqa: F401  (loads every submodule)

        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "ncparab"]
        for home, names in TARGETS.items():
            home_mod = sys.modules[f"ncparab.{home}"]
            for fname in names:
                original = getattr(home_mod, fname)
                wrapper = self._wrap(f"{home}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    def summary(self) -> dict:
        """Per-layer metrics of the recorded run (one root span expected)."""
        total: dict[str, float] = {}
        self_time: dict[str, float] = {}
        calls: dict[str, int] = {}
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _) in enumerate(self.spans):
            total[name] = total.get(name, 0.0) + (end - start)
            self_time[name] = self_time.get(name, 0.0) + (end - start - child[i])
            calls[name] = calls.get(name, 0) + 1

        def t(name):
            return total.get(name, 0.0)

        def of(name):
            return [(args, res) for n, args, res in self.results if n == name]

        nodes = [res.num_nodes for _, res in of("meshing.build_mesh")]
        forms = [res for _, res in of("assembly.assemble_forms")]
        eig = of("spectral.generalized_eigenbasis")
        steps = [len(res.times) - 1 for _, res in of("integrator.solve_evolution")]
        eig_res, ortho_res = eigen_residuals(eig)
        estimates = sum(t(f"estimates.{n}") for n in TARGETS["estimates"])
        return {
            "metrics": {
                "problem.validate_s": t("problem.validate_coefficients"),
                "problem.factorize_s": t("problem.factorize_principal"),
                "meshing.build_mesh_s": t("meshing.build_mesh"),
                "meshing.nodes": max(nodes, default=0),
                "assembly.assemble_forms_s": t("assembly.assemble_forms"),
                "assembly.N": max((f.N for f in forms), default=0),
                "assembly.nnz_k_plus": max((f.k_plus.nnz for f in forms), default=0),
                "assembly.load_calls": calls.get("assembly.assemble_load", 0),
                "assembly.load_s": t("assembly.assemble_load"),
                "assembly.dual_norm_calls": calls.get("assembly.dual_norm", 0),
                "assembly.dual_norm_s": t("assembly.dual_norm"),
                "assembly.total_s": sum(t(f"assembly.{n}") for n in TARGETS["assembly"]),
                "spectral.eigenbasis_s": t("spectral.generalized_eigenbasis"),
                "spectral.eigenbasis_calls": len(eig),
                "spectral.k": max((b.size for _, b in eig), default=0),
                "spectral.eig_residual_max": eig_res,
                "spectral.ortho_residual_max": ortho_res,
                "integrator.build_system_s": t("integrator.build_galerkin_system"),
                "integrator.evolve_s": t("integrator.solve_evolution"),
                "integrator.evolve_self_s": self_time.get("integrator.solve_evolution", 0.0),
                "integrator.steps": sum(steps),
                "integrator.energy_identity_s": t("integrator.energy_identity_residuals"),
                "estimates.checks_s": estimates,
                "estimates.cauchy_s": t("estimates.check_cauchy_bound"),
                "cli.self_s": self_time.get(ROOT, 0.0),
                "trace.wall_s": t(ROOT),
            },
            # Per-call sizes, so level-by-level claims can be checked.
            "per_call": {
                "assembly.N": [f.N for f in forms],
                "spectral.k": [b.size for _, b in eig],
                "integrator.steps": steps,
            },
        }


def eigen_residuals(calls) -> tuple[float, float]:
    """Largest relative eigenpair residual ``|K h - l M h| / (l |M h|)`` and
    largest orthogonality residual over all recorded eigenbasis calls."""
    from ncparab.spectral import verify_orthogonality

    eig_res = ortho_res = 0.0
    for args, basis in calls:
        k_plus, mass = args[0], args[1]
        H = basis.vectors
        KH = k_plus @ H
        MH = mass @ H
        lam = basis.eigenvalues
        num = np.linalg.norm(KH - MH * lam[None, :], axis=0)
        den = lam * np.linalg.norm(MH, axis=0)
        eig_res = max(eig_res, float(np.max(num / den)))
        report = verify_orthogonality(basis, k_plus, mass)
        ortho_res = max(ortho_res, report.max_plus_residual, report.max_mass_offdiag)
    return eig_res, ortho_res
