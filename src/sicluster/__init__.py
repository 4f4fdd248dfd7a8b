"""Simulator for a silicon-donor cluster-state quantum computing architecture.

The package covers the full pipeline: an in-place graph-state stabilizer
engine for lattice-scale protocols, an Aaronson-Gottesman tableau oracle,
graph-state algebra with local-complementation measurement rules, the
donor-lattice global-operation protocol, a dense two-spin pulse-level
validation of the entangling gate, measurement-based computation on the
resulting cluster, and defect/timing resource models.
"""

from sicluster.tableau import Basis, PauliString, StabilizerTableau, new_plus_state
from sicluster.graphstate import GraphState
from sicluster.lattice import (
    DonorLattice,
    PauliFrame,
    run_protocol,
    standard_protocol,
    square_lattice_protocol,
    predicted_edge_set,
)

__version__ = "0.1.0"

__all__ = [
    "Basis",
    "PauliString",
    "StabilizerTableau",
    "new_plus_state",
    "GraphState",
    "DonorLattice",
    "PauliFrame",
    "run_protocol",
    "standard_protocol",
    "square_lattice_protocol",
    "predicted_edge_set",
    "__version__",
]
