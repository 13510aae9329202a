"""Workload specifications.  Standard library only: the set-up probe imports
this module before it starts timing the numpy/scipy/brinkhdg imports."""

from __future__ import annotations

from dataclasses import dataclass

# The perturbed workload's reference errors were recorded at this seed;
# other seeds are checked structurally and against the oracle only.
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    """One study: a mesh ladder (or one perturbed mesh) for some test cases.

    ``perturb`` moves each interior vertex by up to that share of h in
    each direction, drawn from the workload seed; it is 0 for the
    structured ladders, which ignore the seed.  ``oracle`` adds the
    monolithic solve and the field comparison to the timed study.
    """

    name: str
    kind: str
    k: int
    tests: tuple
    base_n: int
    levels: int = 1
    perturb: float = 0.0
    oracle: bool = False

    @property
    def seeded(self):
        return self.perturb > 0.0

    @property
    def solves(self):
        """Operations per study: one per solve_hybrid / solve_direct call."""
        return len(self.tests) * self.levels * (2 if self.oracle else 1)


WORKLOADS = {w.name: w for w in (
    # 1,024 quads, 8,960 global unknowns: SuperLU factorization is most of
    # the solve, so sparse ordering and fill (the dense mean multiplier)
    # show here, and per-cell Python loops barely do.  n=32 rather than a
    # larger mesh so that a run holds several studies to take a median of
    Workload("solve-quad-k1", "quad", 1, (1,), base_n=32),
    # the paper's convergence study: small meshes at high degree, where the
    # per-cell loops in hybrid, forms and error evaluation dominate and
    # factorization is about a fifth of the time
    Workload("ladder-tri-k3", "triangle", 3, (1, 2, 3), base_n=4, levels=3),
    # every cell is its own geometry class, so tabulation and the dense
    # local factorizations run per cell; the uncondensed oracle solve uses
    # linalg on a different system
    Workload("oracle-perturbed-tri-k2", "triangle", 2, (1,), base_n=12,
             perturb=0.2, oracle=True),
)}
