"""qsip: exact q-series arithmetic and separable-partition identity checks.

The package builds every object with arbitrary-precision integer
arithmetic: truncated power series with marker-refined coefficients, the
standard q-products, sums and Gaussian binomials, partition enumerators
and counting walks, the separable-class decomposition machinery, and a
catalog of series = product identities verified coefficientwise.
"""

from .series import NonUnitConstantTerm, QSeries, TruncationExceeded
from .qfactory import (CongruenceProductSpec, DivergentProduct, PochSpec,
                       congruence_product, eta_theta_product, gaussian_binomial,
                       poch_finite, poch_infinite, poch_product, series_sum)
from .partitions import (SipClassSpec, counting_series, enumerate_partitions,
                         in_sip_class)
from .sip import (GLASGOW, GOLLNITZ_GORDON, DISTINCT, NATURAL,
                  ROGERS_RAMANUJAN, SCHUR, SCHUR_REFINED, SPEC_REGISTRY,
                  BasisTable, InsufficientTableDepth, NotInClass,
                  SipDecomposition, assemble_gf, basis_table, class_gf,
                  decompose, enumerate_basis, enumerate_class, is_basis_element,
                  min_basis_total, recompose, verify_sip)
from .ncopies import (ConstraintViolation, CopyPart, OverCopyPartition,
                      base_decompose, base_gf, base_recompose, copy_total,
                      enumerate_base, enumerate_even_subscript,
                      enumerate_ncopies, enumerate_ncopies_over,
                      exact_diff_closed, exact_diff_table, is_diagonal,
                      ncopies_gf, weighted_difference)

__version__ = "0.1.0"
