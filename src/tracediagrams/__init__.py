"""Exact evaluation of matrix-labeled, ciliated graph diagrams.

Diagrams are authored in layered form, evaluated to exact rational tensors by
two independent paths (slice folding and Levi-Civita contraction of the graph
form), and checked against brute-force linear algebra by a seeded identity
suite.  See the README for the CLI and the file format.
"""

from .diagrams import (COVECTOR, SINK, SOURCE, VECTOR, Cap, Cross, Cup,
                       Diagram, Id, LayeredDiagram, Mat, NVertex, Perm,
                       canonical_ciliation, compose_vertical,
                       juxtapose_horizontal, to_graph, validate_graph,
                       validate_layered)
from .evaluate import (Bindings, CrossCheckMismatch, EvalResult,
                       eval_checked, eval_contraction, eval_layered)
from .linalg import (Matrix, Permutation, Rat, adjugate_oracle,
                     charpoly_oracle, det_oracle, format_rat, levi_civita,
                     rat, reversal_sign, solve_oracle)
from .tensor import Tensor

__version__ = "0.1.0"

# One kernel implementation; kept as a name because benchmark records carry it.
KERNEL_BACKEND = "pure"

__all__ = [
    "Bindings", "COVECTOR", "Cap", "Cross", "CrossCheckMismatch", "Cup",
    "Diagram", "EvalResult", "Id", "KERNEL_BACKEND", "LayeredDiagram", "Mat",
    "Matrix", "NVertex", "Perm", "Permutation", "Rat", "SINK", "SOURCE",
    "Tensor", "VECTOR",
    "adjugate_oracle", "canonical_ciliation", "charpoly_oracle",
    "compose_vertical", "det_oracle", "eval_checked", "eval_contraction",
    "eval_layered", "format_rat", "juxtapose_horizontal", "levi_civita",
    "rat", "reversal_sign", "solve_oracle", "to_graph", "validate_graph",
    "validate_layered",
]
