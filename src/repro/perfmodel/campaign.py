"""Production-campaign accounting (Sec. 6).

The paper's science run: 16,661 atoms (43,708 electrons) for 21,140 QMD
steps — 129,208 SCF iterations at a 0.242 fs time step, executed in ~12-hour
sessions on the full machine with collective I/O between sessions.  This
module reproduces that bookkeeping and provides a planner that predicts the
wall-clock of a campaign from the scaling models.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.constants import PAPER_TIMESTEP_FS
from repro.parallel.machine import BLUE_GENE_Q, MachineSpec
from repro.perfmodel.scaling import StrongScalingModel


@dataclass(frozen=True)
class CampaignSpec:
    """A production QMD campaign."""

    natoms: int
    nsteps: int
    scf_iterations: int
    timestep_fs: float = PAPER_TIMESTEP_FS

    @property
    def scf_per_step(self) -> float:
        return self.scf_iterations / self.nsteps

    @property
    def simulated_ps(self) -> float:
        return self.nsteps * self.timestep_fs / 1000.0


#: The paper's hydrogen-on-demand production run (Sec. 6).
PAPER_PRODUCTION = CampaignSpec(
    natoms=16_661, nsteps=21_140, scf_iterations=129_208
)

#: The paper's verification run (Sec. 5.5): Li30Al30 + 182 H2O.
PAPER_VERIFICATION = CampaignSpec(
    natoms=606, nsteps=10_000, scf_iterations=60_000
)


@dataclass
class CampaignPlan:
    """Predicted execution profile of a campaign."""

    spec: CampaignSpec
    cores: int
    seconds_per_scf: float
    total_hours: float
    sessions_12h: float
    io_seconds_per_session: float


def plan_campaign(
    spec: CampaignSpec,
    cores: int = 786_432,
    machine: MachineSpec = BLUE_GENE_Q,
    atoms_per_domain: int = 100,
    io_model=None,
) -> CampaignPlan:
    """Predict the wall-clock profile of a production campaign.

    Uses the strong-scaling composition with the campaign's own domain
    count (the paper runs ~100 atoms per domain) and the collective-I/O
    model for the per-session checkpoint cost.
    """
    if spec.natoms < atoms_per_domain:
        ndomains = 1
    else:
        ndomains = max(1, spec.natoms // atoms_per_domain)
    model = StrongScalingModel(
        machine=machine,
        natoms=spec.natoms,
        ndomains=ndomains,
        base_cores=cores,
    )
    t_step = model.point(cores, base_cores=cores).wall_clock
    t_scf = t_step / model.scf_per_step
    total_seconds = spec.scf_iterations * t_scf
    total_hours = total_seconds / 3600.0
    sessions = total_hours / 12.0

    if io_model is None:
        from repro.parallel.collective_io import CollectiveIOModel

        io_model = CollectiveIOModel()
    snapshot_bytes = spec.natoms * 200.0  # coordinates+velocities+density meta
    io_seconds = io_model.io_time(
        max(snapshot_bytes, 1e6), cores, 192, write=True
    )
    return CampaignPlan(
        spec=spec,
        cores=cores,
        seconds_per_scf=t_scf,
        total_hours=total_hours,
        sessions_12h=sessions,
        io_seconds_per_session=io_seconds,
    )
