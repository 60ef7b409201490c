"""Schema subsumption and the theorem-transportation check.

The pipeline: a type is subordinate to a formula when it can influence some
typing judgement in it; context expressions subsume one another when the
extra bindings are not subordinate to the formula; block declarations prune
relative to a schema when dropped entries cannot feed any type the schema
can still generate.  Both relations are one embedding search, `_embeds`,
that differs only in which bindings it may drop.  Schema subsumption
searches block variants that align a target block with a source block; an
alignment keeps the source declaration and records each binding it drops
with the non-subordination facts that license the drop, and it is accepted
exactly when none of those facts fails.  The transport check combines that
search with the structural validity analysis for ill-formed context
substitutions, and records every search result in a replayable
certificate.  Inputs are checked by the caller (`check_schema`,
`check_formula`); nothing here checks them again.
"""

from __future__ import annotations

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
    _subformulas,
)
from .lf import (
    Atom,
    LFError,
    Signature,
    TypeExpr,
    _in_step,
    _map_heads,
)
from .schema import BlockSchema, ContextSchema, CtxExpr, block_scope, segment_instance
from .subord import SubordRel, head_constant, type_leq


class SegmentationMismatch(LFError):
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

def _embeds(small, big, droppable) -> bool:
    """Whether the binding list `small` embeds into `big`: working right to
    left, each binding of `big` is either matched exactly by the next
    binding of `small` or dropped, which `droppable(type)` must allow.  Both
    options are explored, matching first: a binding's drop is tried only
    once its match has failed.  Matches whose drop is still to be tried
    wait on a list, not the call stack, so long contexts cannot overflow it."""
    small, big = tuple(small), tuple(big)
    i, j = len(small), len(big)
    pending = []  # (i, j) whose match is being tried; their drop comes next
    while i or j:
        if i and j and small[i - 1] == big[j - 1]:
            pending.append((i, j))
            i, j = i - 1, j - 1
            continue
        while not (j and droppable(big[j - 1][1])):
            if not pending:
                return False
            i, j = pending.pop()
        j -= 1
    return True


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


def make_variant(perm: Mapping[str, str], block: BlockSchema) -> BlockSchema:
    """Rename a block schema through a variable permutation: parameters,
    declaration variables and the atoms they head move.  Bound variables
    are indices, so the renaming cannot capture; only heads change, so it
    contracts no redex.  A permutation that moves no name gives the block."""
    if all(x == y for x, y in perm.items()):
        return block
    params = tuple((perm.get(x, x), ar) for x, ar in block.params)
    decl = tuple(
        (perm.get(y, y), _map_heads(ty, lambda h, _: perm.get(h, h)))
        for y, ty in block.decl
    )
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
class TransportFailure:
    side: str  # "subsumption" or "validity"
    message: str
    target_index: Optional[int] = None
    binding: Optional[tuple[str, TypeExpr]] = None


def _gamma_atom_types(f: Formula, gamma: str) -> list[TypeExpr]:
    """Types of the `gamma`-headed atoms with no explicit bindings."""
    return [g.ty for g in _gamma_atoms(f, gamma) if not g.ctx.bindings]


def _drop_basis(rel: SubordRel, f: Formula, gamma: str, source: ContextSchema):
    """What a dropped binding is judged against: the sorted head constants
    of the formula's `gamma`-atom types and of the source schema's
    declaration types, and the blocked heads, those subordinate to one of
    them, which no dropped binding may have.

    When some `gamma`-atom has explicit bindings, every type influences
    it, so every type constant (`rel.constants`) is blocked.  That is
    exact: `SubordRel` is reflexive on declared type constants, so they
    are the blocked set of a basis holding all of them, and a checked
    schema's declaration types are headed by declared type constants, so
    no binding of it may be dropped."""
    formula_heads = sorted({head_constant(t) for t in _gamma_atom_types(f, gamma)})
    schema_heads = sorted(
        {head_constant(t) for block in source.blocks for _, t in block.decl}
    )
    if any(g.ctx.bindings for g in _gamma_atoms(f, gamma)):
        return formula_heads, schema_heads, rel.constants
    basis_heads = {*formula_heads, *schema_heads}
    blocked = frozenset(h for h, b in rel.pairs if b in basis_heads)
    return formula_heads, schema_heads, blocked


def _undroppable(basis, decl) -> tuple[int, ...]:
    """The positions of the bindings of a declaration that no alignment may
    drop: their head is blocked by `_drop_basis`, so a fact a drop record
    would print fails.  A variant renames no type head, so they are the
    same for every variant of a block."""
    return tuple(p for p, (_, ty) in enumerate(decl) if head_constant(ty) in basis[2])


def _drop_records(vdecl, keep, basis) -> tuple[DropRecord, ...]:
    """The drop records of the alignment that keeps positions `keep` of a
    variant declaration, each with the non-subordination facts that
    license it: its type's head against the heads of `_drop_basis`."""
    facts = {}  # per head: a block often drops many bindings of one head
    drops = []
    for pos, (var, ty) in enumerate(vdecl):
        if pos not in keep:
            h = head_constant(ty)
            if h not in facts:
                facts[h] = [tuple((h, b) for b in hs) for hs in basis[:2]]
            drops.append(DropRecord(pos, var, ty, *facts[h]))
    return tuple(drops)


def _derive_renaming(src, tgt, tgt_vars: set, src_vars: set, mapping: dict) -> bool:
    """Structurally match a source declaration type against a target one,
    accumulating a renaming of target schema variables to source names."""

    def atom(a, u):
        if not isinstance(u, Atom) or len(a.args) != len(u.args):
            return False
        if u.head in tgt_vars:
            ok = a.head in src_vars and mapping.setdefault(u.head, a.head) == a.head
        else:
            ok = a.head == u.head and a.head not in src_vars
        return None if ok else False

    return _in_step(src, tgt, atom)


def _renaming(sdecl, kept, tgt_vars, src_vars) -> Optional[dict[str, str]]:
    """The injective renaming of target names to source names that takes
    the target entries `kept`, one by one, to the source declaration
    `sdecl`, each entry matched once, or None when there is none.  Only
    later entries' types mention an entry's variable, so it is renamed
    after its own type is matched, with nothing to compare."""
    mapping: dict[str, str] = {}
    for (sy, sty), (ty_name, tty) in zip(sdecl, kept):
        if not _derive_renaming(sty, tty, tgt_vars, src_vars, mapping):
            return None
        mapping[ty_name] = sy
    return mapping if len(set(mapping.values())) == len(mapping) else None


def _close_permutation(mapping: Mapping[str, str]) -> dict[str, str]:
    """Extend an injective renaming to a bijection on its support."""
    keys = set(mapping)
    values = set(mapping.values())
    perm = dict(mapping)
    for v, k in zip(sorted(values - keys), sorted(keys - values)):
        perm[v] = k
    return perm


def _search_block(
    target: BlockSchema, source: ContextSchema, basis, target_index: int
) -> Optional[BlockMatch]:
    """The match of the target block at `target_index` that
    `schema_subsumes` searches for: a source block and a variant of the
    target block whose declaration both prunes (relative to the whole
    source schema) and ce-subsumes into the source declaration, or None.
    It computes from the `_drop_basis` `keep`, the positions of the target
    block no alignment may drop (`_undroppable`).

    An alignment embeds a source declaration as a subsequence of the
    target's; the renaming its entry pairs derive by structural matching
    is closed into a permutation, which gives the variant.  Declaration
    variables are distinct, so the alignment is the only embedding of the
    source declaration into the variant's, and both relations hold
    exactly when every binding it drops may go: the alignment is decided
    by its drop records, the facts the certificate prints.  The plain
    search tries, source block by source block, each alignment in the
    lexicographic order of its keep positions; the first accepted wins.

    Only the alignment that keeps exactly `keep` can be accepted.  It
    keeps every position of `keep`, or a drop fails.  It keeps no other:
    a kept target type matches a source declaration type, and matching
    renames no type constant, so both have one head; the source schema
    declares that type, subordination is reflexive on declared type
    constants (`SubordRel`), so the head is blocked.  So a source block
    whose declaration is not as long as `keep` is refused, and otherwise
    its entries and the kept ones, pair by pair, must derive one
    consistent, injective renaming, each pair matched once (`_renaming`).
    Such a renaming takes each kept target entry to its source entry, and
    a name it adds in closing is one no kept entry mentions, so the
    variant keeps the source declaration, and every binding it drops may
    go: the block is accepted.

    So the search is bounded by its structure, not by a budget: it derives
    at most one renaming per source block, in one pass over that block's
    entries, linear in the block, and builds the variant of the block it
    accepts."""
    keep = _undroppable(basis, target.decl)
    kept = [target.decl[p] for p in keep]
    tgt_vars = block_scope(target)
    for si, src in enumerate(source.blocks):
        if len(src.decl) != len(keep):
            continue
        mapping = _renaming(src.decl, kept, tgt_vars, block_scope(src))
        if mapping is not None:
            perm = _close_permutation(mapping)
            variant = make_variant(perm, target)
            drops = _drop_records(variant.decl, keep, basis)
            return BlockMatch(
                target_index, si, tuple(sorted(perm.items())), variant, keep, drops
            )
    return None


def _diagnose_block(target: BlockSchema, source: ContextSchema, basis):
    """Name a binding that blocks the match: undroppable by the
    `_drop_basis`, as the search judged it, and without a counterpart in
    any source declaration."""
    tgt_vars = block_scope(target)
    for p in _undroppable(basis, target.decl):
        var, ty = target.decl[p]
        if not any(
            _derive_renaming(sty, ty, tgt_vars, block_scope(block), {})
            for block in source.blocks
            for _, sty in block.decl
        ):
            return (var, ty)
    return None


def schema_subsumes(
    rel: SubordRel,
    source: ContextSchema,
    f: Formula,
    gamma: str,
    target: ContextSchema,
) -> Union[tuple[BlockMatch, ...], TransportFailure]:
    """Every target block must have a variant that block-subsumes into the
    source schema; an empty target succeeds unconditionally, and the first
    refused block is a failure at the subsumption side.  The schemas
    must have passed `check_schema`, and `f` `check_formula`.  The search
    of each block and the diagnosis of a refused one share one drop
    basis."""
    basis = _drop_basis(rel, f, gamma, source)
    matches = []
    for ti, block in enumerate(target.blocks):
        m = _search_block(block, source, basis, ti)
        if m is None:
            binding = _diagnose_block(block, source, basis)
            if binding is not None:
                msg = f"binding {binding[0]} cannot be dropped or matched"
            else:
                msg = "no source block declaration embeds into this block"
            return TransportFailure("subsumption", f"target block {ti}: {msg}", ti, binding)
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
                out.update(d.formula_facts, d.schema_facts)
        return tuple(sorted(out))

    def verify(self, sig: Signature, rel: SubordRel) -> bool:
        """Replay every recorded derivation.  Match `i` must be that of
        target block `i`, which `transport_witness` reads it for; its
        permutation must be a bijection on names that block or its source
        block binds, as every permutation the search produces is; its keep
        positions must rise through the variant's declaration and pick out
        the source declaration, dropping no undroppable position, and its
        drops must be that alignment's records.  Anything else, an index or
        position out of range included, refutes the certificate."""
        if _val_deriv(self.gamma, self.formula, True) != self.valtop:
            return False
        if len(self.matches) != len(self.target.blocks):
            return False
        basis = _drop_basis(rel, self.formula, self.gamma, self.source)
        for i, m in enumerate(self.matches):
            if m.target_index != i or not (0 <= m.source_index < len(self.source.blocks)):
                return False
            block, src = self.target.blocks[i], self.source.blocks[m.source_index]
            perm = dict(m.permutation)
            if (
                len(perm) != len(m.permutation)
                or set(perm.values()) != set(perm)
                or not set(perm) <= {*block_scope(block), *block_scope(src)}
            ):
                return False
            if make_variant(perm, block) != m.variant:
                return False
            vdecl, keep = m.variant.decl, m.keep_positions
            if tuple(p for p in range(len(vdecl)) if p in keep) != keep:
                return False
            if (
                src.decl != tuple(vdecl[p] for p in keep)
                or not set(_undroppable(basis, vdecl)) <= set(keep)
                or m.drops != _drop_records(vdecl, keep, basis)
            ):
                return False
        return True


def transport_check(
    sig: Signature,
    rel: SubordRel,
    source: ContextSchema,
    target: ContextSchema,
    gamma: str,
    f: Formula,
    source_name: Optional[str] = None,
    target_name: Optional[str] = None,
) -> Union[TransportCertificate, TransportFailure]:
    """Check the two side conditions of the transportation rule and bundle
    the evidence into a certificate.  The schemas must have passed
    `check_schema`, and `f` `check_formula` with `gamma` at `source`."""
    result = schema_subsumes(rel, source, f, gamma, target)
    if isinstance(result, TransportFailure):
        return result
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
