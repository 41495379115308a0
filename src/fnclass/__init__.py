"""Complexity analysis and classification of finite k-valued functions.

Truth-table functions f: Z_k^n -> Z_k with:

- essential-variable analysis, subfunctions, separable and distributive
  sets, s-systems (`kfun`, `separability`);
- ordered decomposition trees, reduced ordered decision diagrams,
  implementations and implementation counts, depth search (`diagrams`);
- sum-of-products expression parsing and printing (`spform`);
- transformation groups on the function space, orbit enumeration and
  canonical forms (`groups`);
- whole-space classification under the implementation / subfunction /
  separability equivalences, including the full 2^32-function binary
  5-variable space (`classify`, `scan5`), with reference tables and
  cell-by-cell reproduction (`tables`);
- an executable suite of the structural results (`verify`) and a CLI
  (`fnclass`).
"""

from .diagrams import (Implementation, OrderedDiagram, build_odt, depth,
                       diagram_labels, find_full_depth_ordering,
                       find_shallow_ordering, imp_count, imp_count_recursive,
                       implementations, implementations_of, path_count, reduce,
                       to_dot)
from .classify import (ClassificationReport, class_counts, classify_space,
                       compute_profile, imp_signature, refinement_check,
                       scan_space)
from .groups import (GroupDescriptor, Transformation, canonical_form,
                     count_orbits, group_elements, group_generators,
                     orbit_transversal, output_image)
from .kfun import KFunction, from_values
from .separability import (ComplexityProfile, distributive_sets, is_separable,
                           minimal_transversals, s_systems, sep_vector,
                           separable_sets, sub_vector, subfunction_chain,
                           subfunctions)
from .spform import SPSyntaxError, parse, to_sp
from .tables import reproduce_table
from .verify import run_checks

__version__ = "0.1.0"

__all__ = [
    "KFunction", "from_values", "parse", "to_sp", "SPSyntaxError",
    "subfunctions", "sub_vector", "separable_sets", "sep_vector",
    "is_separable", "distributive_sets", "s_systems", "minimal_transversals",
    "subfunction_chain", "ComplexityProfile",
    "OrderedDiagram", "Implementation", "build_odt", "reduce", "depth",
    "diagram_labels", "path_count", "implementations", "implementations_of",
    "imp_count", "imp_count_recursive", "find_full_depth_ordering",
    "find_shallow_ordering", "to_dot",
    "Transformation", "GroupDescriptor", "group_elements", "group_generators",
    "canonical_form", "count_orbits", "orbit_transversal", "output_image",
    "ClassificationReport", "classify_space", "scan_space", "class_counts",
    "refinement_check", "imp_signature", "compute_profile",
    "reproduce_table", "run_checks",
]
