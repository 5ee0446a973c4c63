"""Extended genus fields of Kummer extensions of F_q(T), exactly.

The pipeline: build a field (`build_field`), describe an extension by
its radicand components (`KummerDescriptor`), normalize it to exponent
vectors over the primes of its radicands (`normalize`), then construct
and compare the two genus fields (`clement_genus_field`,
`rarzvi_genus_field`, `compare`).  `parse_input` and `run` drive the
same pipeline from job text, as does the ``genusfields`` CLI.
"""

from .errors import InternalCheckError, InvalidDescriptorError, ParseError
from .ffield import DEFAULT_MAX_Q, FqElem, FqField, build_field, element_sort_key
from .genus import (ComparisonReport, GenusField, as_descriptor,
                    clement_genus_field, compare, rarzvi_genus_field,
                    signed_closed_form_agrees, verify_degree_formula)
from .groups import RadicandGroup, enumerate_subgroup, smith_normal_form
from .kummer import (KummerComponent, KummerDescriptor, NormalizedExtension,
                     embed_group, infinite_ramification, normalize,
                     ramification_indices, ramification_lcm_oracle)
from .polyring import (MonicIrreducible, Poly, factor, gcd, is_irreducible,
                       poly_sort_key, pow_mod, squarefree_decomposition,
                       valuation, variable)
from .report import (JobConfig, Report, parse_input, render_const, render_poly,
                     render_job, run)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_MAX_Q", "ComparisonReport", "FqElem", "FqField", "GenusField",
    "InternalCheckError", "InvalidDescriptorError", "JobConfig",
    "KummerComponent", "KummerDescriptor", "MonicIrreducible",
    "NormalizedExtension", "ParseError", "Poly", "RadicandGroup", "Report",
    "as_descriptor", "build_field", "clement_genus_field", "compare",
    "element_sort_key", "embed_group", "enumerate_subgroup", "factor", "gcd",
    "infinite_ramification", "is_irreducible", "normalize", "parse_input",
    "poly_sort_key", "pow_mod", "ramification_indices",
    "ramification_lcm_oracle", "render_const", "render_job", "render_poly",
    "rarzvi_genus_field", "run", "signed_closed_form_agrees",
    "smith_normal_form", "squarefree_decomposition", "valuation", "variable",
    "verify_degree_formula",
]
