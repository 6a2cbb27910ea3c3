"""Signature-based Groebner basis engine with oracle, certificates, and
criterion diagnostics."""

from .polyring import (
    Cmp,
    DomainError,
    Field,
    MonomialOrder,
    ParseError,
    PolyRing,
    Polynomial,
    QQ,
    StructureError,
    compare,
    lcm_term,
    reduce_full,
    reduced_basis,
    spol,
    top_reduce,
)
from .signature import (
    LabeledPoly,
    Signature,
    sig_compare,
    sig_mul,
)
from .syzygy import (
    Certificate,
    CertificateError,
    ModuleVector,
    certify_rejection,
    evaluate,
    mht,
    principal_syzygy,
)
from .f5engine import (
    BasisState,
    CriticalPair,
    EngineError,
    EngineOptions,
    RewriteRule,
    certify_all,
    incremental_basis,
    interreduce,
    is_normalized,
    is_rewritable,
    top_reduction_signed,
)
from .baseline import buchberger_basis, ideal_equal
from .falsifier import completely_normalized, scan_run

__all__ = [name for name in dir() if not name.startswith("_")]
