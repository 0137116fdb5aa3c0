"""The benchmark's workloads: bandlab configs and the commands run on each.

A workload is a sequence of steps; a step is one INI config and the CLI
commands run on it, in order. The master seed and the output directory are
not part of the config: the harness passes them to ``bandlab`` as
``--seed`` and ``--out``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

# Commands that draw Monte Carlo replicas (the rest are deterministic).
MC_COMMANDS = frozenset({"locallaw", "diffusion", "deloc", "que"})

# Worker threads for every Monte Carlo command: the core count of the
# two-core reference machine, fixed so that the workload is the same on
# every machine. BLAS thread variables are left alone on purpose, so the
# replica/BLAS thread contention users get is part of the measurement.
PARALLELISM = 2


@dataclass(frozen=True)
class Step:
    """One config and the commands run on it."""

    name: str
    sections: tuple          # ((section, ((key, value), ...)), ...)
    commands: tuple

    def ini(self, parallelism: int) -> str:
        lines = []
        for section, items in self.sections:
            lines.append(f"[{section}]")
            lines += [f"{k} = {v}" for k, v in items]
            if section == "mc":
                lines.append(f"parallelism = {parallelism}")
        return "\n".join(lines) + "\n"

    @property
    def monte_carlo(self) -> bool:
        return bool(MC_COMMANDS.intersection(self.commands))

    @property
    def replicas(self) -> int:
        return int(dict(dict(self.sections).get("mc", ()))["replicas"])

    def with_model(self, **model) -> "Step":
        """The same step on another lattice (and replica count)."""
        replicas = model.pop("replicas", None)
        sections = []
        for section, items in self.sections:
            items = dict(items)
            if section == "model":
                items.update(model)
            if section == "mc" and replicas is not None:
                items["replicas"] = replicas
            sections.append((section, tuple(items.items())))
        return replace(self, sections=tuple(sections))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    steps: tuple

    @property
    def commands(self) -> tuple:
        return tuple(c for s in self.steps for c in s.commands)

    @property
    def monte_carlo(self) -> bool:
        return any(s.monte_carlo for s in self.steps)

    def tiny(self) -> "Workload":
        """The same commands on lattices small enough for a smoke run."""
        steps = []
        for s in self.steps:
            d = int(dict(dict(s.sections)["model"]).get("d", 1))
            model = {"W": 3, "n": 5} if d == 2 else {"W": 3, "n": 4}
            if s.monte_carlo:
                model["replicas"] = 3
            steps.append(s.with_model(**model))
        return replace(self, steps=tuple(steps))


# The README config: d=1, W=33, n=15 (N=495), eta=0.2.
def _readme(replicas: int, commands: tuple) -> Step:
    return Step(
        name="d1",
        sections=(
            ("model", (("type", "translation_invariant"), ("d", 1),
                       ("W", 33), ("n", 15))),
            ("spectral", (("eta", 0.2),)),
            ("mc", (("replicas", replicas),)),
        ),
        commands=commands,
    )


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="d1-resolvent",
            why="README config through locallaw and diffusion: sampling, "
                "resolvent solves with residual and Ward checks, block "
                "projections and the ensemble merge",
            steps=(_readme(16, ("locallaw", "diffusion")),),
        ),
        Workload(
            name="d1-eigen",
            why="README config through deloc and que: the same sampling and "
                "ensemble layers, but eigh instead of resolvent solves; the "
                "control for solve-path changes",
            steps=(_readme(6, ("deloc", "que")),),
        ),
        Workload(
            name="d2-theory",
            why="d=2 reference config (N=2025) through validate, flow and "
                "theta, plus kloop at d=1 L=56: dense propagator LU, no "
                "Monte Carlo",
            steps=(
                Step(
                    name="d2",
                    sections=(
                        ("model", (("type", "translation_invariant"),
                                   ("d", 2), ("W", 5), ("n", 9),
                                   ("cutoff", 2))),
                        # one flow time: six N=2025 LU solves per iteration
                        ("spectral", (("t_values", 0.9),)),
                    ),
                    commands=("validate", "flow", "theta"),
                ),
                # the largest d=1 lattice loop_size_guard admits (L=56)
                Step(
                    name="kloop",
                    sections=(
                        ("model", (("type", "translation_invariant"),
                                   ("d", 1), ("W", 7), ("n", 8))),
                    ),
                    commands=("kloop",),
                ),
            ),
        ),
    )
}
