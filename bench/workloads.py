"""The benchmark's workloads: fixed `specvar` CLI invocations run in order.

Every operation is one subcommand as a user types it.  The harness adds
``--out`` (and ``--spectrum-file`` / ``--seed`` where the operation needs
them), so the argument lists here hold only what defines the work.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

# The default master seed of every seeded subcommand; the reference
# outputs were recorded with it, so only runs at this seed check the
# seed-dependent outputs too.
REFERENCE_SEED = 0

# The octagon spectrum the spectrum-build workload writes and the analysis
# workload reads.
INPUT_SPECTRUM = ("spectrum", "--preset", "octagon_genus2", "--Lmax", "9.5")


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple[str, ...]
    artifact: str  # "spectrum" (spectrum CSV), "json" or "table" (CSV report)
    seeded: bool = False
    reads_spectrum: bool = False

    @property
    def out_name(self) -> str:
        return f"{self.name}.json" if self.artifact == "json" else f"{self.name}.csv"

    def command(self, out_dir: str, seed: int, spectrum_file: str | None = None) -> list[str]:
        argv = list(self.argv)
        if self.reads_spectrum:
            argv += ["--spectrum-file", spectrum_file]
        if self.seeded:
            argv += ["--seed", str(seed)]
        return argv + ["--out", os.path.join(out_dir, self.out_name)]


def _analysis(name: str, *argv: str, seeded: bool = False, artifact: str = "json") -> Op:
    return Op(name, argv, artifact, seeded=seeded, reads_spectrum=True)


WORKLOADS: dict[str, tuple[Op, ...]] = {
    "spectrum-build": (Op("spectrum", INPUT_SPECTRUM, "spectrum"),),
    "analysis": (
        _analysis("average", "average", "--L", "9.5", "--window", "bump", "--lambda", "1e4", "--delta", "2"),
        _analysis(
            "average-flux", "average", "--L", "9.5", "--window", "bump", "--lambda", "1e4",
            "--delta", "2", "--flux", "1.5707963267948966,0,0,0",
        ),
        _analysis("poisson", "poisson", "--L", "9", "--lambda", "1e4", "--draws", "100000", seeded=True),
        _analysis(
            "ergodicity", "ergodicity", "--L", "9", "--lambda", "1e4", "--Lambda", "100",
            "--draws", "1000", seeded=True,
        ),
        _analysis("sumrule", "sumrule", "--L", "8,9,9.5", "--window", "bump", artifact="table"),
        _analysis(
            "transition", "transition", "--L", "9", "--lambda", "1e4", "--flux", "1,0,0,0",
            artifact="table",
        ),
        _analysis(
            "orbit-clt", "orbit-clt", "--T", "8.5", "--draws", "100000", "--flux", "1,0,0,0",
            seeded=True, artifact="table",
        ),
    ),
    "montecarlo": (
        Op("covers", ("covers", "--n", "300", "--samples", "5000", "--L", "8", "--lambda", "1e4"), "json", seeded=True),
        Op("haar", ("haar", "--group", "un", "--dim", "5", "--samples", "250000"), "json", seeded=True),
    ),
}
