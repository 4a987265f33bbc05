"""Time-to-solution metrics and the prior-art comparison of Sec. 2.

The paper's figure of merit is ``atoms × SCF-iterations / second``:

* Hasegawa et al. (2011 Gordon Bell, K computer, O(N³) real-space DFT):
  107,292 Si atoms, 5,456 s/iteration → **19.7** atom·it/s.
* Osei-Kuffuor & Fattebert (2014, O(N) on 23,328 BG/Q cores): 101,952-atom
  polymer, ~275 s/MD-step at ~5 SCF/step → **1,850** atom·it/s.
* This paper: 50,331,648-atom SiC, 441 s/iteration on 786,432 cores →
  **114,000** atom·it/s (5,800× and 62× improvements).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PriorArt:
    """One state-of-the-art reference point."""

    label: str
    natoms: int
    seconds_per_iteration: float

    @property
    def atom_iterations_per_second(self) -> float:
        return self.natoms / self.seconds_per_iteration


PRIOR_ART: dict[str, PriorArt] = {
    "hasegawa2011": PriorArt("Hasegawa et al. SC11 (K computer, O(N³))", 107_292, 5_456.0),
    "oseikuffuor2014": PriorArt(
        "Osei-Kuffuor & Fattebert PRL 2014 (O(N), 23,328 BG/Q cores)",
        101_952,
        275.0 / 5.0,
    ),
    "this_paper": PriorArt("LDC-DFT (786,432 BG/Q cores)", 50_331_648, 441.0),
}


def atom_iterations_per_second(natoms: int, iterations: float, seconds: float) -> float:
    """The paper's time-to-solution metric."""
    if seconds <= 0 or iterations <= 0:
        raise ValueError("seconds and iterations must be positive")
    return natoms * iterations / seconds


def speedup_over(metric: float, reference: PriorArt) -> float:
    """How many times faster than a prior-art reference."""
    return metric / reference.atom_iterations_per_second
