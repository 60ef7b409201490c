"""Schema subsumption and the theorem-transportation check.

The pipeline: a type is subordinate to a formula when it can influence some
typing judgement in it; context expressions subsume one another when the
extra bindings are not subordinate to the formula; block declarations prune
relative to a schema when dropped entries cannot feed any type the schema
can still generate.  Both relations are one embedding search, `_embeds`,
that differs only in which bindings it may drop.  Schema subsumption
searches block variants that align a target block with a source block under
both relations, and the transport check combines that search with the
structural validity analysis for ill-formed context substitutions.  Every
search result is recorded in a replayable certificate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping, Optional, Union

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
    _subformulas,
    check_formula,
)
from .lf import (
    Arity,
    Atom,
    AtomicType,
    Lam,
    LFError,
    O,
    PiType,
    Signature,
    TypeExpr,
    apply_subst,
    erase,
)
from .schema import (
    BlockSchema,
    ContextSchema,
    CtxExpr,
    check_schema,
    segment_instance,
)
from .subord import SubordRel, head_constant, type_leq


class SearchCapExceeded(LFError):
    pass


class SegmentationMismatch(LFError):
    pass


class IllFormedInput(LFError):
    pass


# ---------------------------------------------------------------------------
# Subordination of a type by a formula.


def tf_subord(rel: SubordRel, ty: TypeExpr, f: Formula, gamma: str) -> bool:
    """Whether the type can influence some judgement of `f` whose context is
    headed by `gamma`.  Atoms headed by a different context variable (or by
    none) contribute nothing; an atom with explicit bindings after `gamma`
    counts unconditionally."""
    return any(
        g.ctx.bindings or type_leq(rel, ty, g.ty) for g in _gamma_atoms(f, gamma)
    )


def _gamma_atoms(f: Formula, gamma: str):
    """The atoms of `f` headed by the free context variable `gamma`, left
    to right."""
    return (g for g in _subformulas(f) if isinstance(g, Holds) and g.ctx.head == gamma)


# ---------------------------------------------------------------------------
# Context-expression subsumption and pruning.

Binding = tuple  # (str | Nominal, TypeExpr)


def _embeds(small, big, droppable) -> bool:
    """Whether the binding list `small` embeds into `big`: working right to
    left, each binding of `big` is either matched exactly by the next
    binding of `small` or dropped, which `droppable(type)` must allow.  Both
    options are explored, matching first."""
    small = tuple(small)
    big = tuple(big)

    def go(i: int, j: int) -> bool:
        if j == 0:
            return i == 0
        name, ty = big[j - 1]
        if (
            i > 0
            and small[i - 1] == (name, ty)
            and go(i - 1, j - 1)
        ):
            return True
        return droppable(ty) and go(i, j - 1)

    return go(len(small), len(big))


def ce_subsumes(rel: SubordRel, gamma: str, small, big, f: Formula) -> bool:
    """The binding list `small` retains everything in `big` that matters for
    `f`: each dropped binding's type is not subordinate to `f`."""
    return _embeds(small, big, lambda ty: not tf_subord(rel, ty, f, gamma))


def prune_ok(rel: SubordRel, schema: ContextSchema, small, big) -> bool:
    """Pruning relative to a schema: a dropped entry's type must not be
    subordinate to any type assigned in any block declaration of the
    schema (so later schema-generated bindings cannot depend on it)."""
    schema_types = [ty for block in schema.blocks for _, ty in block.decl]
    return _embeds(
        small, big, lambda ty: not any(type_leq(rel, ty, t) for t in schema_types)
    )


# ---------------------------------------------------------------------------
# Block-schema variants.


def perm_subst(perm: Mapping[str, str], arities: Mapping[str, Arity]) -> dict:
    """The substitution a variable permutation induces under an arity
    context: each moved variable is replaced at its assigned arity (base
    arity when unassigned)."""
    return {
        x: (Atom(z), arities.get(x, O))
        for x, z in perm.items()
        if x != z
    }


def blkctx(sig: Signature, block: BlockSchema) -> dict[str, Arity]:
    """Arity assignment a block schema induces: the erased signature plus
    the block's parameters and the erasures of its declaration types."""
    out = dict(sig.arity_context().terms)
    out.update(dict(block.params))
    for y, ty in block.decl:
        out[y] = erase(ty)
    return out


def make_variant(sig: Signature, perm: Mapping[str, str], block: BlockSchema) -> BlockSchema:
    """Rename a block schema through a variable permutation: parameters and
    declaration variables move, declaration types are rewritten through the
    induced permutation substitution."""
    ps = perm_subst(perm, blkctx(sig, block))
    params = tuple((perm.get(x, x), ar) for x, ar in block.params)
    decl = tuple((perm.get(y, y), apply_subst(ty, ps)) for y, ty in block.decl)
    return BlockSchema(params, decl)


# ---------------------------------------------------------------------------
# Schema subsumption search.


@dataclass(frozen=True)
class DropRecord:
    position: int
    var: str
    ty: TypeExpr
    formula_facts: tuple[tuple[str, str], ...]
    schema_facts: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class BlockMatch:
    target_index: int
    source_index: int
    permutation: tuple[tuple[str, str], ...]
    variant: BlockSchema
    keep_positions: tuple[int, ...]
    drops: tuple[DropRecord, ...]


@dataclass(frozen=True)
class SubsumptionFailure:
    target_index: int
    block: BlockSchema
    undroppable: Optional[tuple[str, TypeExpr]]
    message: str


def _gamma_atom_types(f: Formula, gamma: str) -> list[TypeExpr]:
    """Types of the `gamma`-headed atoms with no explicit bindings."""
    return [g.ty for g in _gamma_atoms(f, gamma) if not g.ctx.bindings]


def _derive_renaming(src, tgt, tgt_vars: set, src_vars: set, mapping: dict) -> bool:
    """Structurally match a source declaration type against a target one,
    accumulating a renaming of target schema variables to source names."""
    match src, tgt:
        case (PiType(_, d1, b1), PiType(_, d2, b2)):
            return _derive_renaming(d1, d2, tgt_vars, src_vars, mapping) and \
                _derive_renaming(b1, b2, tgt_vars, src_vars, mapping)
        case (AtomicType(h1, a1), AtomicType(h2, a2)):
            if h1 != h2 or len(a1) != len(a2):
                return False
            return all(
                _derive_renaming_term(p, t, tgt_vars, src_vars, mapping)
                for p, t in zip(a1, a2)
            )
    return False


def _derive_renaming_term(src, tgt, tgt_vars, src_vars, mapping) -> bool:
    # Both sides are walked in step, so equal indices name corresponding
    # binders.
    match src, tgt:
        case (Atom(h1, a1), Atom(h2, a2)):
            if len(a1) != len(a2):
                return False
            if h2 in tgt_vars:
                if h1 not in src_vars or mapping.setdefault(h2, h1) != h1:
                    return False
            elif h1 != h2 or h1 in src_vars:
                return False
            return all(
                _derive_renaming_term(p, t, tgt_vars, src_vars, mapping)
                for p, t in zip(a1, a2)
            )
        case (Lam(_, b1), Lam(_, b2)):
            return _derive_renaming_term(b1, b2, tgt_vars, src_vars, mapping)
    return False


def _entry_renaming(src_entry, tgt_entry, tgt_vars, src_vars) -> Optional[dict[str, str]]:
    """The renaming that matching one source declaration entry alone
    against one target entry derives, target variable included, or None
    when they do not match."""
    sy, sty = src_entry
    ty_name, tty = tgt_entry
    mapping: dict[str, str] = {}
    if not _derive_renaming(sty, tty, tgt_vars, src_vars, mapping):
        return None
    if mapping.setdefault(ty_name, sy) != sy:
        return None
    return mapping


def _close_permutation(mapping: Mapping[str, str]) -> dict[str, str]:
    """Extend an injective renaming to a bijection on its support."""
    keys = set(mapping)
    values = set(mapping.values())
    perm = dict(mapping)
    for v, k in zip(sorted(values - keys), sorted(keys - values)):
        perm[v] = k
    return perm


def block_subsumes(
    rel: SubordRel,
    sig: Signature,
    target: BlockSchema,
    f: Formula,
    gamma: str,
    source: ContextSchema,
    search_cap: int = 10000,
    target_index: int = 0,
) -> Optional[BlockMatch]:
    """Find a source block and a variant of the target block whose
    declaration both prunes (relative to the whole source schema) and
    ce-subsumes into the source declaration.

    Candidate alignments embed the source declaration as a subsequence of
    the target's; the renaming is derived by structural matching and closed
    into a permutation.  First hit wins.

    An alignment's renaming is the union of the renamings its entry pairs
    derive alone, and fails where two of them disagree: a renaming only
    grows by `setdefault`s that must agree.  So each (source entry, target
    entry) pair is matched once per source block, on first use, into a
    table, and every alignment containing the pair merges the entry.  The
    alignments tried, their order, the `search_cap` count and the result
    are those of matching every pair afresh per alignment.
    """
    atom_types = _gamma_atom_types(f, gamma)
    schema_types = [ty for block in source.blocks for _, ty in block.decl]
    tdecl = target.decl
    tgt_vars = {v for v, _ in target.params} | {y for y, _ in tdecl}
    attempts = 0
    for si, src in enumerate(source.blocks):
        sdecl = src.decl
        src_vars = {v for v, _ in src.params} | {y for y, _ in sdecl}
        if len(sdecl) > len(tdecl):
            continue
        table: dict[tuple[int, int], Optional[dict[str, str]]] = {}
        for keep in itertools.combinations(range(len(tdecl)), len(sdecl)):
            attempts += 1
            if attempts > search_cap:
                raise SearchCapExceeded(
                    f"variant search exceeded {search_cap} alignment attempts"
                )
            mapping: dict[str, str] = {}
            ok = True
            for k, ti in enumerate(keep):
                if (k, ti) not in table:
                    table[k, ti] = _entry_renaming(
                        sdecl[k], tdecl[ti], tgt_vars, src_vars
                    )
                entry = table[k, ti]
                if entry is None or any(
                    mapping.setdefault(x, y) != y for x, y in entry.items()
                ):
                    ok = False
                    break
            if not ok:
                continue
            if len(set(mapping.values())) != len(mapping):
                continue
            perm = _close_permutation(mapping)
            variant = make_variant(sig, perm, target)
            vdecl = variant.decl
            if sdecl != tuple(vdecl[i] for i in keep):
                continue
            if not prune_ok(rel, source, sdecl, vdecl):
                continue
            if not ce_subsumes(rel, gamma, sdecl, vdecl, f):
                continue
            drops = []
            for pos, (dv, dty) in enumerate(vdecl):
                if pos in keep:
                    continue
                h = head_constant(dty)
                formula_facts = tuple(
                    sorted({(h, head_constant(a)) for a in atom_types})
                )
                schema_facts = tuple(
                    sorted({(h, head_constant(a)) for a in schema_types})
                )
                drops.append(DropRecord(pos, dv, dty, formula_facts, schema_facts))
            return BlockMatch(
                target_index,
                si,
                tuple(sorted(perm.items())),
                variant,
                keep,
                tuple(drops),
            )
    return None


def _diagnose_block(rel, target: BlockSchema, f, gamma, source: ContextSchema):
    """Name a binding that blocks the match: undroppable (by the formula or
    the schema) and without a counterpart in any source declaration."""
    schema_types = [ty for block in source.blocks for _, ty in block.decl]
    for var, ty in target.decl:
        by_formula = tf_subord(rel, ty, f, gamma)
        by_schema = any(type_leq(rel, ty, other) for other in schema_types)
        if not (by_formula or by_schema):
            continue
        present = False
        for block in source.blocks:
            src_vars = {v for v, _ in block.params} | {y for y, _ in block.decl}
            for _, sty in block.decl:
                m: dict[str, str] = {}
                if _derive_renaming(
                    sty,
                    ty,
                    {v for v, _ in target.params} | {y for y, _ in target.decl},
                    src_vars,
                    m,
                ):
                    present = True
                    break
            if present:
                break
        if not present:
            return (var, ty)
    return None


def schema_subsumes(
    rel: SubordRel,
    sig: Signature,
    source: ContextSchema,
    f: Formula,
    gamma: str,
    target: ContextSchema,
    search_cap: int = 10000,
) -> Union[tuple[BlockMatch, ...], SubsumptionFailure]:
    """Every target block must have a variant that block-subsumes into the
    source schema; an empty target succeeds unconditionally."""
    matches = []
    for ti, block in enumerate(target.blocks):
        m = block_subsumes(
            rel, sig, block, f, gamma, source, search_cap, target_index=ti
        )
        if m is None:
            binding = _diagnose_block(rel, block, f, gamma, source)
            if binding is not None:
                msg = f"binding {binding[0]} cannot be dropped or matched"
            else:
                msg = "no source block declaration embeds into this block"
            return SubsumptionFailure(ti, block, binding, msg)
        matches.append(m)
    return tuple(matches)


# ---------------------------------------------------------------------------
# Structural validity analysis for ill-formed context substitutions.


# How a binary connective's derivation at a polarity (True: valid, False:
# invalid) is built: a tag with the polarities its two sides need, when both
# must derive; or a pair of tags, when the left side, else the right, must.
_VAL_BINARY = {
    (Conj, True): ("and", True, True),
    (Disj, True): (("or-left", "or-right"), True, True),
    (Imp, True): (("imp-antecedent", "imp-consequent"), False, True),
    (Conj, False): (("and-left", "and-right"), False, False),
    (Disj, False): ("or", False, False),
    (Imp, False): ("imp", True, False),
}
_VAL_QUANTIFIER = {ForallTm: "all", ExistsTm: "ex", ForallCtx: "ctx"}
_VAL_CONSTANT = {(Top, True): ("top",), (Bot, False): ("bot",)}


def _val_deriv(gamma: str, f: Formula, positive: bool):
    """The derivation that `f` is structurally valid (`positive`) or invalid
    under any ill-formed substitution for `gamma`, or None."""
    rule = _VAL_BINARY.get((type(f), positive))
    if rule is not None:
        tag, left, right = rule
        if isinstance(tag, str):
            dl = _val_deriv(gamma, f.left, left)
            dr = _val_deriv(gamma, f.right, right)
            return (tag, dl, dr) if dl is not None and dr is not None else None
        for t, side, pol in zip(tag, (f.left, f.right), (left, right)):
            d = _val_deriv(gamma, side, pol)
            if d is not None:
                return (t, d)
        return None
    tag = _VAL_QUANTIFIER.get(type(f))
    if tag is not None:
        d = _val_deriv(gamma, f.body, positive)
        return (tag, d) if d is not None else None
    if isinstance(f, Holds):
        return ("atom",) if not positive and f.ctx.head == gamma else None
    if isinstance(f, (Top, Bot)):
        return _VAL_CONSTANT.get((type(f), positive))
    raise TypeError(f"not a formula: {f!r}")


def val_pos(gamma: str, f: Formula) -> bool:
    """Whether `f` is structurally valid under any ill-formed substitution
    for `gamma`."""
    return _val_deriv(gamma, f, True) is not None


def val_neg(gamma: str, f: Formula) -> bool:
    """Whether `f` is structurally invalid under any ill-formed substitution
    for `gamma`."""
    return _val_deriv(gamma, f, False) is not None


# ---------------------------------------------------------------------------
# The transport rule check and its certificate.


@dataclass(frozen=True)
class TransportCertificate:
    gamma: str
    source: ContextSchema
    target: ContextSchema
    formula: Formula
    matches: tuple[BlockMatch, ...]
    valtop: tuple
    source_name: Optional[str] = field(default=None, compare=False)
    target_name: Optional[str] = field(default=None, compare=False)

    def facts(self) -> tuple[tuple[str, str], ...]:
        """All non-subordination facts the recorded drops rely on."""
        out = set()
        for m in self.matches:
            for d in m.drops:
                out |= set(d.formula_facts)
                out |= set(d.schema_facts)
        return tuple(sorted(out))

    def verify(self, sig: Signature, rel: SubordRel) -> bool:
        """Replay every recorded derivation under the checkers.  Match `i`
        must be that of target block `i`, which `transport_witness` reads
        it for; an index or position out of range refutes the certificate."""
        if _val_deriv(self.gamma, self.formula, True) != self.valtop:
            return False
        if len(self.matches) != len(self.target.blocks):
            return False
        for i, m in enumerate(self.matches):
            if m.target_index != i or not (0 <= m.source_index < len(self.source.blocks)):
                return False
            block = self.target.blocks[i]
            if make_variant(sig, dict(m.permutation), block) != m.variant:
                return False
            sdecl = self.source.blocks[m.source_index].decl
            vdecl = m.variant.decl
            positions = range(len(vdecl))
            drops = tuple(d.position for d in m.drops)
            if any(p not in positions for p in m.keep_positions + drops):
                return False
            if sdecl != tuple(vdecl[p] for p in m.keep_positions):
                return False
            if not prune_ok(rel, self.source, sdecl, vdecl):
                return False
            if not ce_subsumes(rel, self.gamma, sdecl, vdecl, self.formula):
                return False
            for d in m.drops:
                if vdecl[d.position] != (d.var, d.ty):
                    return False
                if tf_subord(rel, d.ty, self.formula, self.gamma):
                    return False
                for a, b in d.formula_facts + d.schema_facts:
                    if rel.holds(a, b):
                        return False
        return True


@dataclass(frozen=True)
class TransportFailure:
    side: str  # "subsumption" or "validity"
    message: str
    target_index: Optional[int] = None
    binding: Optional[tuple[str, TypeExpr]] = None


def transport_check(
    sig: Signature,
    rel: SubordRel,
    source: ContextSchema,
    target: ContextSchema,
    gamma: str,
    f: Formula,
    search_cap: int = 10000,
    source_name: Optional[str] = None,
    target_name: Optional[str] = None,
) -> Union[TransportCertificate, TransportFailure]:
    """Check the two side conditions of the transportation rule and bundle
    the evidence into a certificate."""
    try:
        check_schema(sig, source)
        check_schema(sig, target)
        check_formula(sig, f, WfEnv(ctx_schemas={gamma: source}))
    except LFError as err:
        raise IllFormedInput(str(err)) from err
    result = schema_subsumes(rel, sig, source, f, gamma, target, search_cap)
    if isinstance(result, SubsumptionFailure):
        return TransportFailure(
            "subsumption",
            f"target block {result.target_index}: {result.message}",
            result.target_index,
            result.undroppable,
        )
    valtop = _val_deriv(gamma, f, True)
    if valtop is None:
        return TransportFailure(
            "validity",
            "the formula has no structural validity derivation for "
            "ill-formed context substitutions",
        )
    return TransportCertificate(
        gamma, source, target, f, result, valtop, source_name, target_name
    )


def transport_witness(
    sig: Signature, cert: TransportCertificate, g_target: CtxExpr
) -> CtxExpr:
    """Prune an instance of the target schema into an instance of the source
    schema by replaying the certificate's per-block pruning.  A target
    schema outside the pattern fragment may raise NonPatternSchema, as
    `segment_instance` does."""
    segmentation = segment_instance(sig, cert.target, g_target)
    if segmentation is None:
        raise SegmentationMismatch(
            "context expression is not an instance of the certificate's target schema"
        )
    kept: list = []
    for block_index, start, end in segmentation:
        m = cert.matches[block_index]
        segment = g_target.bindings[start:end]
        for offset, binding in enumerate(segment):
            if offset in m.keep_positions:
                kept.append(binding)
    return CtxExpr(None, tuple(kept))
