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

import functools
import math
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
    AtomicType,
    LFError,
    Signature,
    TypeExpr,
    _in_step,
    _map_heads,
    _nodes,
)
from .schema import BlockSchema, ContextSchema, CtxExpr, block_scope, segment_instance
from .subord import SubordRel, head_constant, type_leq


class SearchCapExceeded(LFError):
    pass


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
    declaration types, and the heads subordinate to one of them, which no
    dropped binding may have.  When some `gamma`-atom has explicit
    bindings, every type influences it and nothing may be dropped: the
    blocked heads are then None, standing for all of them."""
    formula_heads = sorted({head_constant(t) for t in _gamma_atom_types(f, gamma)})
    schema_heads = sorted(
        {head_constant(t) for block in source.blocks for _, t in block.decl}
    )
    blocked = None
    if not any(g.ctx.bindings for g in _gamma_atoms(f, gamma)):
        basis_heads = {*formula_heads, *schema_heads}
        blocked = frozenset(h for h, b in rel.pairs if b in basis_heads)
    return formula_heads, schema_heads, blocked


def _undroppable(basis, decl) -> tuple[bool, ...]:
    """For each binding of a declaration, whether no alignment may drop
    it: its type's head is blocked by `_drop_basis`, so a fact its drop
    record would print fails.  A variant renames no type head, so the
    marks of a target declaration hold for every variant of it."""
    blocked = basis[2]
    return tuple(blocked is None or head_constant(ty) in blocked for _, ty in decl)


def _alignment_drops(sdecl, vdecl, keep, basis) -> Optional[tuple]:
    """The drop records of the alignment that keeps positions `keep` of a
    variant declaration, each with the non-subordination facts that
    license it (its head against the heads of `_drop_basis`), or None when
    the kept entries are not the source declaration or a dropped binding
    is undroppable (`_undroppable`)."""
    if sdecl != tuple(vdecl[p] for p in keep):
        return None
    facts = {}  # a head's facts against the formula and the schema heads
    drops = []
    for pos, ((var, ty), fixed) in enumerate(zip(vdecl, _undroppable(basis, vdecl))):
        if pos not in keep:
            if fixed:
                return None
            h = head_constant(ty)
            if h not in facts:
                facts[h] = [tuple((h, b) for b in heads) for heads in basis[:2]]
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


def _entry_renaming(src_entry, tgt_entry, tgt_vars, src_vars) -> Optional[dict[str, str]]:
    """The renaming that matching one source declaration entry alone
    against one target entry derives, target variable included, or None
    when they do not match.  A checked entry's type never mentions its own
    variable, so the pair of variables can go in first."""
    sy, sty = src_entry
    ty_name, tty = tgt_entry
    mapping = {ty_name: sy}
    return mapping if _derive_renaming(sty, tty, tgt_vars, src_vars, mapping) else None


def _close_permutation(mapping: Mapping[str, str]) -> dict[str, str]:
    """Extend an injective renaming to a bijection on its support."""
    keys = set(mapping)
    values = set(mapping.values())
    perm = dict(mapping)
    for v, k in zip(sorted(values - keys), sorted(keys - values)):
        perm[v] = k
    return perm


def _shape(block: BlockSchema) -> tuple:
    """The block with each of its names replaced by its position in
    `block_scope`, an integer that no name can equal: its parameters'
    arities, and each declaration type as the pre-order of its nodes
    (`lf._nodes`), an atom or atomic type by its head and spine length and
    any other node by its class.  Two checked blocks have one shape exactly
    when one is the other under a bijective renaming of their names, which
    `check_schema` makes distinct."""
    index = {v: i for i, v in enumerate(block_scope(block))}
    return tuple(ar for _, ar in block.params), tuple(
        tuple(
            (index.get(n.head, n.head), len(n.args)) if isinstance(n, Atom)
            else (n.head, len(n.args)) if isinstance(n, AtomicType)
            else type(n)
            for n in _nodes(ty)
        )
        for _, ty in block.decl
    )


def _shapes(source: ContextSchema):
    """The `_shape` of the source block at an index, computed on first use."""
    return functools.cache(lambda si: _shape(source.blocks[si]))


def block_subsumes(
    rel: SubordRel,
    target: BlockSchema,
    f: Formula,
    gamma: str,
    source: ContextSchema,
    *,
    search_cap: int = 10000,
    target_index: int = 0,
) -> Optional[BlockMatch]:
    """Find a source block and a variant of the target block whose
    declaration both prunes (relative to the whole source schema) and
    ce-subsumes into the source declaration, by `_search_block`.  The
    inputs must be checked (`check_schema`, `check_formula`)."""
    basis = _drop_basis(rel, f, gamma, source)
    return _search_block(target, source, _shapes(source), basis, search_cap, target_index)


def _search_block(
    target: BlockSchema, source: ContextSchema, shape, basis, search_cap: int,
    target_index: int,
) -> Optional[BlockMatch]:
    """`block_subsumes`, given the `_drop_basis` and `shape(si)`, the
    `_shape` of source block `si` (`_shapes`).

    Candidate alignments embed the source declaration as a subsequence of
    the target's; the renaming is derived by structural matching and closed
    into a permutation.  First hit wins.  Declaration variables are
    distinct, so the alignment is the only embedding of the source
    declaration into the variant's, and both relations hold exactly when
    every binding it drops may go: the alignment is decided by its drop
    records (`_alignment_drops`), the facts the certificate prints.

    An alignment's renaming is the union of the renamings its entry pairs
    derive alone, and fails where two of them disagree.  So each (source
    entry, target entry) pair is matched once per source block, on first
    use, into a table, and the keep positions are chosen depth-first, in
    lexicographic order.  Extending a prefix by a position first asks
    whether that skips an undroppable position (`_undroppable`), then
    merges the pair's table entry into the prefix's renaming; when either
    fails, every alignment the extension stands for is refused, and
    `math.comb` counts them.  A complete alignment is refused, without a
    variant, when it leaves an undroppable position after its last kept
    one or its renaming is not injective; otherwise its variant's drop
    records decide it.  The alignments tried, their order, the
    `search_cap` count and the result are those of matching every pair
    afresh per alignment.

    A source block of the shape of one refused before it is skipped, and
    the attempts that refusal made are counted again: a renamed copy of a
    refused block is refused after as many attempts, and no shape is asked
    for before a refusal.  The search reads a source block's own names
    only by asking whether a head is one of them, by comparing two of them
    (merging table entries, testing injectivity), and as the values of a
    renaming; a head that is not one of them is compared with the
    target's as it is.  A bijective renaming of the names keeps the
    answers to the first two and renames the values alike, and the
    undroppable marks are the target's, so every table entry, merge and
    test comes out alike and the same alignments are counted.  A complete
    alignment that passes them is accepted under any names: its renaming
    takes the kept target entries to exactly the source declaration, so
    its drop records exist.  `SearchCapExceeded` is raised where the plain
    search of the copy would raise it, since nothing is accepted in
    between.
    """
    tdecl = target.decl
    n = len(tdecl)
    fixed = _undroppable(basis, tdecl)
    tgt_vars = block_scope(target)
    attempts = 0

    def count(alignments: int) -> None:
        nonlocal attempts
        attempts += alignments
        if attempts > search_cap:
            raise SearchCapExceeded(
                f"variant search exceeded {search_cap} alignment attempts"
            )

    def extend(si, sdecl, src_vars, table, keep, mapping) -> Optional[BlockMatch]:
        k, m = len(keep), len(sdecl)
        start = keep[-1] + 1 if keep else 0
        if k == m:
            count(1)
            if any(fixed[start:]) or len(set(mapping.values())) != len(mapping):
                return None
            perm = _close_permutation(mapping)
            variant = make_variant(perm, target)
            drops = _alignment_drops(sdecl, variant.decl, keep, basis)
            return None if drops is None else BlockMatch(
                target_index, si, tuple(sorted(perm.items())), variant, keep, drops
            )
        for t in range(start, n - m + k + 1):
            if t > start and fixed[t - 1]:
                count(math.comb(n - t, m - k))
                return None
            if (k, t) not in table:
                table[k, t] = _entry_renaming(sdecl[k], tdecl[t], tgt_vars, src_vars)
            entry = table[k, t]
            merged = dict(mapping)
            if entry is None or any(merged.setdefault(x, y) != y for x, y in entry.items()):
                count(math.comb(n - t - 1, m - k - 1))
                continue
            found = extend(si, sdecl, src_vars, table, keep + (t,), merged)
            if found is not None:
                return found
        return None

    refused: dict = {}  # shape -> the attempts its refusal made
    for si, src in enumerate(source.blocks):
        if len(src.decl) > n:
            continue
        if refused and shape(si) in refused:
            count(refused[shape(si)])
            continue
        before = attempts
        found = extend(si, src.decl, block_scope(src), {}, (), {})
        if found is not None:
            return found
        refused[shape(si)] = attempts - before
    return None


def _diagnose_block(target: BlockSchema, source: ContextSchema, shape, basis):
    """Name a binding that blocks the match: undroppable by the drop basis
    the search judged the drops by (`_undroppable`), and without a
    counterpart in any source declaration.  A renaming of a block's own
    names does not change which of its entries are counterparts (as in
    `_search_block`), so one block of each `shape(si)` is asked."""
    tgt_vars = block_scope(target)
    one_per_shape = {shape(si): block for si, block in enumerate(source.blocks)}.values()
    for (var, ty), fixed in zip(target.decl, _undroppable(basis, target.decl)):
        if fixed and not any(
            _derive_renaming(sty, ty, tgt_vars, block_scope(block), {})
            for block in one_per_shape
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
    *,
    search_cap: int = 10000,
) -> Union[tuple[BlockMatch, ...], TransportFailure]:
    """Every target block must have a variant that block-subsumes into the
    source schema; an empty target succeeds unconditionally, and the first
    refused block is a failure at the subsumption side.  The schemas
    must have passed `check_schema`, and `f` `check_formula`.  The search
    of each block and the diagnosis of a refused one share one drop basis
    and the source blocks' shapes (`_shapes`)."""
    shape = _shapes(source)
    basis = _drop_basis(rel, f, gamma, source)
    matches = []
    for ti, block in enumerate(target.blocks):
        m = _search_block(block, source, shape, basis, search_cap, ti)
        if m is None:
            binding = _diagnose_block(block, source, shape, basis)
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
        positions must rise through the variant's declaration, and its
        drops must be those the search accepts the alignment with.
        Anything else, an index or position out of range included, refutes
        the certificate."""
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
            if m.drops != _alignment_drops(src.decl, vdecl, keep, basis):
                return False
        return True


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
    the evidence into a certificate.  The schemas must have passed
    `check_schema`, and `f` `check_formula` with `gamma` at `source`."""
    result = schema_subsumes(rel, source, f, gamma, target, search_cap=search_cap)
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
