"""Molecular-dynamics integrators driving a MACE potential.

The paper's motivation (§1) is atomistic simulation: MLIPs exist to run
molecular dynamics orders of magnitude faster than DFT.  This module
closes that loop for the reproduction — a velocity-Verlet integrator (NVE)
with an optional Langevin thermostat (NVT) that consumes any calculator
exposing ``energy_and_forces(graph)``.

Units: positions in Angstrom, energies in eV, masses in atomic mass units,
time in femtoseconds.  The conversion constant folds eV/(amu*A) into
A/fs^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..graphs.molecular_graph import MolecularGraph
from ..graphs.neighborlist import DEFAULT_CUTOFF, build_neighbor_list
from ..graphs.pipeline import NeighborListCache

__all__ = ["ATOMIC_MASSES", "MDState", "Trajectory", "VelocityVerlet", "temperature"]

# eV / (amu * Angstrom) expressed in Angstrom / fs^2.
_ACC_UNIT = 9.648533212e-3
# Boltzmann constant in eV / K.
_KB = 8.617333262e-5

ATOMIC_MASSES = {
    1: 1.008, 8: 15.999, 13: 26.982, 14: 28.085, 16: 32.06, 17: 35.45,
    22: 47.867, 23: 50.942, 24: 51.996, 25: 54.938, 26: 55.845, 27: 58.933,
    28: 58.693, 29: 63.546, 30: 65.38, 34: 78.971, 42: 95.95, 52: 127.60,
    74: 183.84,
}


def _masses(species: np.ndarray) -> np.ndarray:
    try:
        return np.array([ATOMIC_MASSES[int(z)] for z in species])
    except KeyError as exc:
        raise KeyError(f"no mass tabulated for species {exc}") from exc


def temperature(velocities: np.ndarray, masses: np.ndarray) -> float:
    """Instantaneous kinetic temperature (K) from velocities in A/fs."""
    # Kinetic energy in eV: 1/2 m v^2 / _ACC_UNIT (amu*(A/fs)^2 -> eV).
    ke = 0.5 * float(np.sum(masses[:, None] * velocities**2)) / _ACC_UNIT
    dof = max(3 * velocities.shape[0] - 3, 1)
    return 2.0 * ke / (dof * _KB)


@dataclass
class MDState:
    """Dynamical state of a system during MD."""

    positions: np.ndarray
    velocities: np.ndarray
    forces: np.ndarray
    potential_energy: float
    step: int = 0

    def kinetic_energy(self, masses: np.ndarray) -> float:
        """Kinetic energy in eV."""
        return 0.5 * float(np.sum(masses[:, None] * self.velocities**2)) / _ACC_UNIT


@dataclass
class Trajectory:
    """Recorded observables of an MD run."""

    times_fs: List[float] = field(default_factory=list)
    potential: List[float] = field(default_factory=list)
    kinetic: List[float] = field(default_factory=list)
    temperatures: List[float] = field(default_factory=list)

    @property
    def total_energy(self) -> np.ndarray:
        """Total energy series (the NVE conservation check)."""
        return np.asarray(self.potential) + np.asarray(self.kinetic)

    def energy_drift(self) -> float:
        """Max |E(t) - E(0)| over the run (eV)."""
        e = self.total_energy
        return float(np.abs(e - e[0]).max()) if e.size else 0.0


class VelocityVerlet:
    """Velocity-Verlet MD with optional Langevin thermostat.

    Parameters
    ----------
    calculator:
        Object with ``energy_and_forces(graph) -> (float, (n,3) array)``;
        :class:`repro.md.calculator.MACECalculator` wraps a MACE model.
    graph:
        Initial configuration (neighbor list rebuilt internally).
    timestep_fs:
        Integration step in femtoseconds.
    friction:
        Langevin friction (1/fs).  0 disables the thermostat (NVE).
    target_temperature:
        Thermostat set-point in Kelvin (requires ``friction > 0``).
    cutoff:
        Neighbor-list cutoff; the list is rebuilt every ``rebuild_every``
        steps (graph edges are dynamic, Table 1).
    skin:
        Verlet-skin radius.  When positive, the neighbor list is kept
        through a :class:`repro.graphs.NeighborListCache` *every* step —
        exact edges always, full grid rebuilds only when an atom has
        drifted more than ``skin / 2`` — and ``rebuild_every`` is
        ignored.  ``"auto"`` additionally lets the cache tune the skin
        from the observed per-step displacement (hot trajectories get a
        larger skin).  0 (default) keeps the legacy fixed-interval
        rebuild.  A calculator that keeps its own ``neighbor_cache``
        refilters the graph's edges on every call, so then the
        integrator leaves them alone.
    seed:
        RNG seed for initial velocities and the thermostat noise.
    """

    def __init__(
        self,
        calculator,
        graph: MolecularGraph,
        timestep_fs: float = 0.5,
        friction: float = 0.0,
        target_temperature: float = 300.0,
        cutoff: float = DEFAULT_CUTOFF,
        rebuild_every: int = 5,
        skin=0.0,
        seed: int = 0,
    ) -> None:
        if timestep_fs <= 0:
            raise ValueError("timestep must be positive")
        if friction < 0:
            raise ValueError("friction must be non-negative")
        self.calculator = calculator
        self.graph = graph
        self.dt = timestep_fs
        self.friction = friction
        self.target_temperature = target_temperature
        self.cutoff = cutoff
        self.rebuild_every = max(int(rebuild_every), 1)
        if skin != "auto":
            if not isinstance(skin, (int, float)):
                raise ValueError("skin must be a number or 'auto'")
            if skin < 0:
                raise ValueError("skin must be non-negative")
        self.neighbor_cache = (
            NeighborListCache(cutoff, skin)
            if skin == "auto" or skin > 0
            else None
        )
        self.rng = np.random.default_rng(seed)
        self.masses = _masses(graph.species)
        self._refresh_edges()
        e, f = calculator.energy_and_forces(self.graph)
        self.state = MDState(
            positions=graph.positions.copy(),
            velocities=np.zeros_like(graph.positions),
            forces=f,
            potential_energy=e,
        )

    # -- setup ---------------------------------------------------------------------

    def initialize_velocities(self, temperature_K: float) -> None:
        """Maxwell-Boltzmann velocities at the given temperature, with the
        center-of-mass motion removed."""
        n = self.masses.size
        sigma = np.sqrt(_KB * temperature_K * _ACC_UNIT / self.masses)
        v = self.rng.standard_normal((n, 3)) * sigma[:, None]
        v -= (self.masses[:, None] * v).sum(axis=0) / self.masses.sum()
        self.state.velocities = v

    def _refresh_edges(self) -> None:
        if getattr(self.calculator, "neighbor_cache", None) is not None:
            return  # the calculator refilters the graph's edges on every call
        if self.neighbor_cache is not None:
            self.neighbor_cache.update(self.graph)
        else:
            build_neighbor_list(self.graph, cutoff=self.cutoff)

    @property
    def neighbor_rebuilds(self) -> int:
        """Full neighbor-list rebuilds so far (skin mode only; 0 otherwise)."""
        return 0 if self.neighbor_cache is None else self.neighbor_cache.rebuilds

    # -- stepping -------------------------------------------------------------------

    def step(self) -> MDState:
        """Advance one velocity-Verlet step (with Langevin forces if set)."""
        s = self.state
        m = self.masses[:, None]
        acc = s.forces / m * _ACC_UNIT
        # Half kick + drift.
        v_half = s.velocities + 0.5 * self.dt * acc
        s.positions += self.dt * v_half
        self.graph.positions[...] = s.positions
        if self.neighbor_cache is not None:
            # Exact edges every step; the cache decides when to rebuild.
            self._refresh_edges()
        elif (s.step + 1) % self.rebuild_every == 0:
            self._refresh_edges()
        e, f = self.calculator.energy_and_forces(self.graph)
        acc_new = f / m * _ACC_UNIT
        v_new = v_half + 0.5 * self.dt * acc_new
        if self.friction > 0.0:
            # Langevin (BAOAB-ish dissipation applied after the kick).
            gamma = self.friction
            c1 = math.exp(-gamma * self.dt)
            sigma = np.sqrt(
                (1.0 - c1 * c1) * _KB * self.target_temperature * _ACC_UNIT
                / self.masses
            )
            v_new = c1 * v_new + sigma[:, None] * self.rng.standard_normal(
                v_new.shape
            )
        s.velocities = v_new
        s.forces = f
        s.potential_energy = e
        s.step += 1
        return s

    def run(self, n_steps: int, record_every: int = 1) -> Trajectory:
        """Integrate ``n_steps`` and record a :class:`Trajectory`."""
        traj = Trajectory()
        for i in range(n_steps):
            self.step()
            if i % record_every == 0:
                traj.times_fs.append(self.state.step * self.dt)
                traj.potential.append(self.state.potential_energy)
                traj.kinetic.append(self.state.kinetic_energy(self.masses))
                traj.temperatures.append(
                    temperature(self.state.velocities, self.masses)
                )
        return traj
