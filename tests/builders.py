"""Fixture builders the tests share: random gases, simple-cubic crystals,
water boxes, a nanoparticle's radius, minimum-image pair distances,
species counts, concatenations and rigid translations of a
:class:`~repro.systems.Configuration`, the partition-of-unity residual of
a set of domain supports, span counts of a tracer, the Ewald energy alone,
nonlocal operators over given projector arrays, a fixed starting density
for the SCF loop, and a toy force engine for the MD driver."""

from __future__ import annotations

import numpy as np

from repro.core.domains import DomainDecomposition
from repro.dft.ewald import ewald
from repro.dft.pseudopotential import NonlocalProjectors
from repro.systems.configuration import Configuration
from repro.systems.water import HOH_ANGLE, OH_BOND


def simple_cubic_crystal(
    symbol: str, repeats: tuple[int, int, int], lattice_constant: float
) -> Configuration:
    """Single-species simple-cubic crystal."""
    nx, ny, nz = repeats
    pts = np.array(
        [(i, j, k) for i in range(nx) for j in range(ny) for k in range(nz)],
        dtype=float,
    ) * lattice_constant
    cell = np.array([nx, ny, nz], dtype=float) * lattice_constant
    return Configuration([symbol] * len(pts), pts, cell)


def random_gas(
    symbols: list[str],
    cell_edge: float,
    min_separation: float = 2.5,
    seed: int = 0,
) -> Configuration:
    """Random non-overlapping placement of the given atoms in a cubic box."""
    rng = np.random.default_rng(seed)
    cell = np.array([cell_edge] * 3)
    positions: list[np.ndarray] = []
    for _symbol in symbols:
        for _attempt in range(2000):
            trial = rng.uniform(0.0, cell_edge, size=3)
            ok = True
            for p in positions:
                d = trial - p
                d -= cell * np.round(d / cell)
                if np.linalg.norm(d) < min_separation:
                    ok = False
                    break
            if ok:
                positions.append(trial)
                break
        else:
            raise ValueError("could not place atoms without overlap")
    return Configuration(list(symbols), np.array(positions), cell)


def _random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform random rotation matrix (QR of a Gaussian matrix, sign-fixed)."""
    m = rng.normal(size=(3, 3))
    q, r = np.linalg.qr(m)
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def water_box(
    n_molecules: int,
    density_factor: float = 1.0,
    seed: int = 0,
    exclusion_centers: np.ndarray | None = None,
    exclusion_radius: float = 0.0,
    cell: np.ndarray | None = None,
) -> Configuration:
    """Fill a periodic box with randomly oriented water molecules on a jittered
    lattice.

    Parameters
    ----------
    n_molecules:
        Number of H₂O molecules.
    density_factor:
        1.0 gives roughly liquid-water number density
        (0.0334 molecules/Å³ ≈ 4.95e-3 molecules/Bohr³).
    seed:
        RNG seed.
    exclusion_centers, exclusion_radius:
        Optional spherical exclusion zones (e.g. around a nanoparticle):
        lattice sites within ``exclusion_radius`` of any center are skipped.
    cell:
        Explicit box; if omitted, a cube sized from the density is used.
    """
    if n_molecules < 1:
        raise ValueError("n_molecules must be >= 1")
    rng = np.random.default_rng(seed)
    number_density = 4.95e-3 * density_factor  # molecules per Bohr^3
    if cell is None:
        volume = n_molecules / number_density
        edge = volume ** (1.0 / 3.0)
        cell = np.array([edge, edge, edge])
    else:
        cell = np.asarray(cell, dtype=float)

    # Jittered-lattice placement: enough sites for n_molecules + exclusions.
    grid = 1
    while True:
        sites = _lattice_sites(grid, cell)
        if exclusion_centers is not None and exclusion_radius > 0:
            keep = np.ones(len(sites), dtype=bool)
            for c in np.atleast_2d(exclusion_centers):
                diff = sites - c
                diff -= cell * np.round(diff / cell)
                keep &= np.linalg.norm(diff, axis=1) > exclusion_radius
            sites = sites[keep]
        if len(sites) >= n_molecules:
            break
        grid += 1
        if grid > 64:
            raise ValueError("cannot place requested molecules in the box")

    chosen = sites[rng.choice(len(sites), size=n_molecules, replace=False)]
    spacing = np.min(cell) / grid
    jitter = 0.1 * spacing

    symbols: list[str] = []
    positions: list[np.ndarray] = []
    template = np.array(
        [
            [0.0, 0.0, 0.0],
            OH_BOND * np.array([np.sin(HOH_ANGLE / 2), np.cos(HOH_ANGLE / 2), 0.0]),
            OH_BOND * np.array([-np.sin(HOH_ANGLE / 2), np.cos(HOH_ANGLE / 2), 0.0]),
        ]
    )
    for site in chosen:
        rot = _random_rotation(rng)
        mol = template @ rot.T + site + rng.uniform(-jitter, jitter, size=3)
        symbols.extend(["O", "H", "H"])
        positions.append(mol)
    config = Configuration(symbols, np.vstack(positions), cell)
    config.wrap()
    return config


def _lattice_sites(grid: int, cell: np.ndarray) -> np.ndarray:
    """Simple-cubic lattice of ``grid**3`` sites centered in their voxels."""
    fracs = (np.arange(grid) + 0.5) / grid
    pts = np.array(
        [(x, y, z) for x in fracs for y in fracs for z in fracs], dtype=float
    )
    return pts * cell


def particle_radius(particle: Configuration) -> float:
    """Radius of the particle: max distance of an atom from the centroid."""
    centroid = particle.positions.mean(axis=0)
    return float(np.max(np.linalg.norm(particle.positions - centroid, axis=1)))


def minimum_image(config: Configuration, dr: np.ndarray) -> np.ndarray:
    """Displacement vectors folded by the minimum-image convention."""
    dr = np.asarray(dr, dtype=float)
    return dr - config.cell * np.round(dr / config.cell)


def distance(config: Configuration, i: int, j: int) -> float:
    """Minimum-image distance between atoms ``i`` and ``j``."""
    dr = minimum_image(config, config.positions[j] - config.positions[i])
    return float(np.linalg.norm(dr))


def species_counts(config: Configuration) -> dict[str, int]:
    """Per-species atom counts."""
    out: dict[str, int] = {}
    for s in config.symbols:
        out[s] = out.get(s, 0) + 1
    return out


def combined(a: Configuration, b: Configuration) -> Configuration:
    """The atoms of two configurations sharing one cell, ``a``'s first."""
    if not np.allclose(a.cell, b.cell):
        raise ValueError("cannot combine configurations with different cells")
    vel = None
    if a.velocities is not None or b.velocities is not None:
        vel = np.vstack([
            c.velocities if c.velocities is not None
            else np.zeros_like(c.positions)
            for c in (a, b)
        ])
    return Configuration(
        a.symbols + b.symbols, np.vstack([a.positions, b.positions]),
        a.cell.copy(), vel,
    )


def ewald_energy(positions, charges, cell, **kwargs) -> float:
    """The Ewald energy without its forces."""
    return ewald(positions, charges, cell, compute_forces=False, **kwargs)[0]


def span_count(tracer, name: str) -> int:
    """Finished spans whose name or ``/``-joined path is ``name``."""
    return sum(1 for s in tracer.spans() if name in (s.name, s.path))


def span_names(tracer) -> list[str]:
    """The distinct names of the finished spans, sorted."""
    return sorted({s.name for s in tracer.spans()})


def distance_matrix(config: Configuration) -> np.ndarray:
    """All-pairs minimum-image distances; O(N²), for small systems only."""
    diff = config.positions[None, :, :] - config.positions[:, None, :]
    diff = diff - config.cell * np.round(diff / config.cell)
    return np.linalg.norm(diff, axis=-1)


def translated(config: Configuration, shift) -> Configuration:
    """A copy rigidly translated by ``shift`` (periodically wrapped)."""
    out = config.copy()
    out.positions = np.mod(out.positions + np.asarray(shift, float), out.cell)
    return out


def select(config: Configuration, indices) -> Configuration:
    """Sub-configuration with the given atom indices (velocities kept)."""
    indices = np.asarray(indices, dtype=int)
    return Configuration(
        [config.symbols[i] for i in indices],
        config.positions[indices],
        config.cell.copy(),
        None if config.velocities is None else config.velocities[indices],
    )


def partition_residual(
    decomp: DomainDecomposition, weights: list[np.ndarray]
) -> float:
    """max_r |Σ_α p_α(r) − 1| on the global grid — the identity the
    density assembly ρ = Σ_α p_α ρ_α relies on."""
    total = np.zeros(decomp.grid.shape)
    for dom, w in zip(decomp.domains, weights):
        ix, iy, iz = dom.grid_indices
        # Direct fancy-index += is valid (and much faster than the
        # unbuffered np.add.at): each per-axis wrapped index array is
        # duplicate-free because a domain's extent never exceeds the grid —
        # DomainDecomposition clamps buffer_points to (shape - core) // 2.
        total[np.ix_(ix, iy, iz)] += w
    return float(np.abs(total - 1.0).max())


class ArrayProjectors(NonlocalProjectors):
    """A :class:`NonlocalProjectors` over given B̃ columns ``b``
    ``(npw, nproj)`` and D couplings ``d`` ``(nproj,)`` instead of a
    configuration's atoms."""

    def __init__(self, b: np.ndarray, d: np.ndarray) -> None:
        self.b, self.d, self.b_conj = b, d, np.conj(b)
        self.atom_indices = list(range(d.size))


def projector_stack(b: np.ndarray, d: np.ndarray) -> list[NonlocalProjectors]:
    """One :class:`ArrayProjectors` per stack slot of ``(nd, npw, nproj)``
    projectors ``b`` and ``(nd, nproj)`` couplings ``d``: what a
    :class:`~repro.dft.hamiltonian.BatchedHamiltonian` takes."""
    return [ArrayProjectors(bj, dj) for bj, dj in zip(b, d)]


def start_density(monkeypatch, rho0) -> None:
    """Make every ``run_ldc`` (and so ``run_scf``) loop start from ``rho0``
    in place of its workspace's prediction: the loop's admission sees it
    as it would a carried density."""
    import repro.core.ldc as ldc_module
    import repro.dft.scf as scf_module

    def seeded(density_map, config, grid, _, *args, **kwargs):
        return scf_module.scf_fixed_point(
            density_map, config, grid, rho0, *args, **kwargs
        )

    monkeypatch.setattr(ldc_module, "scf_fixed_point", seeded)


class PairSpringEngine:
    """Toy force engine with the QMD engine interface: a harmonic spring
    between every pair of atoms, at rest at the distances of the first
    configuration it sees; one 'SCF iteration' per call.  Translation and
    rotation invariant, so NVE conserves energy and momentum.
    ``fail_at=n`` makes the n-th call raise."""

    STIFFNESS = 0.5  # Hartree / Bohr², an O–H stretch's order

    def __init__(self, fail_at: int | None = None) -> None:
        self.rest: np.ndarray | None = None
        self.calls = 0
        self.fail_at = fail_at

    def forces(self, config: Configuration) -> tuple[np.ndarray, float, int]:
        self.calls += 1
        if self.fail_at is not None and self.calls >= self.fail_at:
            raise RuntimeError("engine blew up")
        d = config.positions[:, None, :] - config.positions[None, :, :]
        r = np.linalg.norm(d, axis=-1)
        if self.rest is None:
            self.rest = r.copy()
        stretch = r - self.rest
        energy = 0.25 * self.STIFFNESS * float(np.sum(stretch**2))
        with np.errstate(invalid="ignore", divide="ignore"):
            pull = np.where(r > 0.0, self.STIFFNESS * stretch / r, 0.0)
        forces = -np.sum(pull[:, :, None] * d, axis=1)
        return forces, energy, 1
