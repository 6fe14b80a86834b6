"""Finite-field arithmetic over GF(2^8).

This subpackage is the mathematical substrate for every erasure code in the
library.  It provides:

- :mod:`repro.gf.tables` -- construction of log/antilog tables for GF(2^8);
- :mod:`repro.gf.field` -- vectorised scalar and array field operations
  (:class:`~repro.gf.field.GF256`);
- :mod:`repro.gf.linalg` -- linear algebra over the field (matrix product,
  inversion, rank, linear solve);
- :mod:`repro.gf.matrices` -- structured matrices used by code
  constructions (Vandermonde, Cauchy, systematic generator matrices);
- :mod:`repro.gf.polynomial` -- univariate polynomials over GF(2^8);
- :mod:`repro.gf.backends` -- pluggable kernel backends (compiled C via
  cffi, numpy oracle) behind the bulk field operations;
- :mod:`repro.gf.xor_schedule` -- CSE'd XOR schedules compiled from the
  binary matrices of :mod:`repro.gf.bitmatrix`.

All heavy operations are vectorised with numpy: a "symbol" is one byte and
bulk payloads are ``uint8`` arrays, matching how production Reed-Solomon
codecs (e.g. the HDFS-RAID codec studied in the paper) treat data.
"""

from repro.gf.field import GF256, DEFAULT_FIELD
from repro.gf.linalg import (
    gf_inv_matrix,
    gf_matmul,
    gf_matmul_reference,
    gf_rank,
    gf_solve,
)
from repro.gf.matrices import (
    cauchy_matrix,
    systematic_generator_from_cauchy,
    systematic_generator_from_vandermonde,
    vandermonde_matrix,
)
from repro.gf.polynomial import GFPolynomial

__all__ = [
    "GF256",
    "DEFAULT_FIELD",
    "gf_matmul",
    "gf_matmul_reference",
    "gf_inv_matrix",
    "gf_rank",
    "gf_solve",
    "vandermonde_matrix",
    "cauchy_matrix",
    "systematic_generator_from_vandermonde",
    "systematic_generator_from_cauchy",
    "GFPolynomial",
]
