"""The benchmark's workloads: one cold ``ncparab`` command each.

Each workload is a subcommand plus a flat config. The ``tiny`` overrides
shrink it for the smoke test; they keep the same code path. The workload
seed reaches the program only as ``--seed``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

SIZES = ("full", "tiny")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # ncparab subcommand
    config: dict
    tiny: dict
    outputs: tuple  # result CSVs the command writes
    extra_args: tuple = field(default=())

    def config_text(self, size: str) -> str:
        values = dict(self.config)
        if size == "tiny":
            values.update(self.tiny)
        return "".join(f"{key} = {value}\n" for key, value in values.items())


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's non-coercive case (K+ only semidefinite). A dense
        # eigensolve with k << N takes almost all the time; no source, so the
        # load path is bypassed.
        Workload(
            name="disk-degenerate",
            command="solve",
            config={
                "problem.preset": "disk",
                "mesh.resolution": 24,  # N = 1153, nnz(K+) = 7965
                "basis.k": 30,
                "time.steps": 100,
                "time.theta": 0.5,
            },
            tiny={"mesh.resolution": 6, "basis.k": 10, "time.steps": 10},
            outputs=("trajectory.csv", "solution_final.csv", "report.csv"),
        ),
        # The only time-dependent source and non-zero lower-order form: load
        # assembly, dual norms, the energy identity and the Cauchy check all
        # run, while the eigensolve stays under a tenth of the time.
        Workload(
            name="forced-drift-1d",
            command="solve",
            config={
                "problem.preset": "inline",
                "problem.domain": "interval(0,1)",
                "problem.first_order": "0.5",
                "problem.a0": "-0.2j",
                "problem.s": "all",
                "problem.u0": "sine",
                "problem.f": "sine_cos",
                "problem.T": 0.5,
                "mesh.resolution": 400,
                "basis.k": 25,
                "time.steps": 2000,
                "time.theta": 1,
                "checks.energy": "true",
                "checks.cauchy": "true",
            },
            tiny={"mesh.resolution": 40, "basis.k": 8, "time.steps": 50},
            outputs=("trajectory.csv", "solution_final.csv", "report.csv"),
        ),
        # Full spectrum (k = N) and dense modal stepping with no loads; the
        # only workload with an exact solution.
        Workload(
            name="heat-convergence",
            command="convergence",
            config={
                "problem.preset": "heat1d",
                "mesh.resolution": 100,
                "convergence.levels": 4,
                "convergence.mode": "space_time",
            },
            tiny={"mesh.resolution": 10, "convergence.levels": 2},
            outputs=("convergence.csv",),
            extra_args=("--jobs", "1"),
        ),
    )
}
