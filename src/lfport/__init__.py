"""lfport: canonical-LF checking, subordination analysis, context-schema
subsumption, and a checkable theorem-transportation rule."""

from .lf import (
    Arity,
    Arrow,
    Atom,
    AtomicType,
    Kind,
    Lam,
    LFContext,
    LFError,
    Nominal,
    O,
    PiKind,
    PiType,
    Signature,
    Term,
    TermDecl,
    TYPE,
    TypeDecl,
    TypeExpr,
    apply_subst,
    arity_check_term,
    arity_check_type,
    check_context,
    check_signature,
    check_term,
    check_type,
    erase,
)
from .subord import SubordRel, compute_subordination, head_constant, minimize, type_leq
from .schema import (
    BlockSchema,
    ContextSchema,
    CtxExpr,
    block_instance,
    check_schema,
    enumerate_instances,
    schema_instance,
    term_pool,
)
from .formula import (
    Bot,
    Conj,
    Disj,
    ExistsTm,
    ForallCtx,
    ForallTm,
    Formula,
    Holds,
    Imp,
    Top,
    WfEnv,
    check_formula,
    subst_ctx,
)
from .subsume import (
    TransportCertificate,
    TransportFailure,
    ce_subsumes,
    make_variant,
    prune_ok,
    schema_subsumes,
    tf_subord,
    transport_check,
    transport_witness,
)
from .oracle import (
    Bounds,
    Verdict3,
    bounded_validity,
    verify_minimization,
    verify_transport,
)
from .parse import (
    ParseError,
    parse_context,
    parse_formula,
    parse_schemas,
    parse_signature,
    parse_term_text,
    parse_type_text,
)

__all__ = [name for name in dir() if not name.startswith("_")]
