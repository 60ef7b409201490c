"""Context schemas: well-formedness, instance checking, bounded enumeration.

A context schema is a list of block schemas; instances are built by
instantiating blocks repeatedly, replacing declaration variables with
nominals and parameters with closed terms of the declared arity types.
One search, `segment_instance`, answers both instance questions: how a
context splits into block instances, and (`schema_instance`) whether it
splits at all.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Union

from .lf import (
    Arity,
    Arrow,
    Atom,
    BVar,
    Head,
    Lam,
    LFContext,
    LFError,
    Nominal,
    O,
    Signature,
    Term,
    TypeExpr,
    _in_step,
    _map_heads,
    _nodes,
    apply_subst,
    arity_args,
    arity_check_term,
    arity_check_type,
    context_nominals,
    erase,
    fresh_nominal,
)


class DuplicateVariable(LFError):
    pass


class ArityKindFailure(LFError):
    pass


class NonPatternSchema(LFError):
    """Parameter occurrences fall outside the pattern fragment; instance
    matching for such schemas is not attempted."""


class PoolEmpty(LFError):
    pass


@dataclass(frozen=True)
class BlockSchema:
    params: tuple[tuple[str, Arity], ...]
    decl: tuple[tuple[str, TypeExpr], ...]


def block_scope(b: BlockSchema) -> tuple[str, ...]:
    """The names a block binds: its parameters and declaration variables."""
    return tuple(v for v, _ in b.params) + tuple(y for y, _ in b.decl)


@dataclass(frozen=True)
class ContextSchema:
    blocks: tuple[BlockSchema, ...] = ()


@dataclass(frozen=True)
class CtxExpr:
    """A context expression: an optional head context variable followed by
    explicit nominal bindings.  Inside a formula the head of a bound
    context variable is the `BVar` index of its quantifier."""

    head: Union[str, BVar, None] = None
    bindings: tuple[tuple[Nominal, TypeExpr], ...] = ()

    def __post_init__(self):
        noms = [n for n, _ in self.bindings]
        if len(set(noms)) != len(noms):
            raise ValueError("context expression binds a nominal twice")


def check_schema(sig: Signature, cs: ContextSchema) -> None:
    """Well-formedness of every block: distinct parameters, fresh
    declaration variables, declaration types that arity-kind, and every
    parameter occurrence a Miller pattern (NonPatternSchema otherwise), so
    that `block_instance` answers on every segment instead of raising."""
    actx = sig.arity_context()
    for block in cs.blocks:
        param_names = [v for v, _ in block.params]
        if len(set(param_names)) != len(param_names):
            raise DuplicateVariable("block schema parameters are not distinct")
        # the block's own names, which shadow the signature's constants
        bound = dict(block.params)
        params = frozenset(param_names)
        earlier: set[str] = set()
        for y, ty in block.decl:
            if y in bound or y in actx.terms:
                raise DuplicateVariable(f"declaration variable {y} already assigned")
            if not arity_check_type(actx, ty, bound):
                raise ArityKindFailure(f"type of {y} does not arity-kind")
            if params:
                _check_patterns(ty, params, earlier)
            bound[y] = erase(ty)
            earlier.add(y)


def _check_patterns(e, params, earlier) -> None:
    """Raise NonPatternSchema unless every parameter occurrence in `e` has
    a pattern spine (`_pattern_spine`); earlier declaration variables of
    the block (`earlier`) count as variables, since matching replaces them
    with nominals."""
    for n in _nodes(e):
        if isinstance(n, Atom) and n.head in params:
            _pattern_spine(n.head, n.args, earlier)


def _pattern_spine(param, spine, earlier=()) -> dict:
    """The position of each argument of `spine`, keyed by its head.  Raise
    NonPatternSchema unless the arguments are distinct bare variables:
    local binders, nominals or names in `earlier`."""
    positions: dict = {}
    for arg in spine:
        if not isinstance(arg, Atom) or arg.args:
            raise NonPatternSchema(
                f"parameter {param} applied to a non-variable argument"
            )
        if not (isinstance(arg.head, (Nominal, BVar)) or arg.head in earlier):
            raise NonPatternSchema(
                f"parameter {param} applied to the free name {arg.head}"
            )
        positions.setdefault(arg.head, len(positions))
    if len(positions) != len(spine):
        raise NonPatternSchema(f"parameter {param} applied to repeated arguments")
    return positions


# ---------------------------------------------------------------------------
# Block instance matching (pattern fragment).


def block_instance(
    sig: Signature,
    block: BlockSchema,
    bindings: tuple[tuple[Nominal, TypeExpr], ...],
) -> Optional[dict[str, Term]]:
    """Match a context-expression segment against a block schema.

    Returns the witnessing parameter instantiation, or None.  Parameters
    must occur as Miller patterns (applied to distinct nominals or locally
    bound variables); anything else raises NonPatternSchema.  A solution
    is one whose `_instantiate_block` is the segment.

    On a block that passed `check_schema` every match is a solution, so
    none is instantiated again to check.  Each declaration type mentions
    only parameters and earlier declaration variables, so its pattern, in
    the block's instance without its parameters, has the nominals in for
    the latter.  Matching walks all of each pattern, so it fixes every
    parameter a type mentions: an occurrence applied to distinct variables
    is solved by abstracting them out of the target, which putting the
    solution back in undoes (its arity is checked), and another occurrence
    must give the same solution.  A parameter that no type mentions changes
    no type.
    """
    decl = block.decl
    if len(bindings) != len(decl):
        return None
    noms = [nom for nom, _ in bindings]
    if any(erase(a) != nom.arity for (_, a), nom in zip(decl, noms)):
        return None
    params = dict(block.params)
    solution: dict[str, Term] = {}
    patterns = _instantiate_block(BlockSchema((), decl), noms, ())
    for (_, pat), (_, target_ty) in zip(patterns, bindings):
        if not _match_type(pat, target_ty, params, solution):
            return None
    actx = sig.arity_context()
    avoid = context_nominals(LFContext(bindings))
    out: dict[str, Term] = {}
    for x, ar in block.params:
        if x in solution:
            if not arity_check_term(actx, solution[x], ar):
                return None
            out[x] = solution[x]
        else:
            # unconstrained parameter: any inhabitant works, pick a nominal
            out[x] = _eta_long(fresh_nominal(ar, avoid), ar)
    return out


def _eta_long(head: Head, arity: Arity) -> Term:
    """The eta-long term of `head` at `arity`: applied under one binder
    per argument arity to those binders, each expanded at its own arity."""
    args = arity_args(arity)
    n = len(args)
    if isinstance(head, BVar):
        head = BVar(head.index + n)
    term: Term = Atom(head, tuple(_eta_long(BVar(n - 1 - i), ar) for i, ar in enumerate(args)))
    for k in range(n, 0, -1):
        term = Lam(f"w{k}", term)
    return term


def _instantiate_block(block: BlockSchema, noms, terms) -> tuple:
    """The segment `block` gives with its declaration variables put as the
    nominals `noms` and its parameters as the closed terms `terms`, each in
    the block's order."""
    subst = {y: (Atom(n), erase(a)) for (y, a), n in zip(block.decl, noms)}
    subst.update({x: (t, ar) for (x, ar), t in zip(block.params, terms)})
    return tuple((n, apply_subst(a, subst)) for (_, a), n in zip(block.decl, noms))


def _match_type(pat, tgt, params, solution) -> bool:
    """Match a declaration type's pattern against a target type, solving
    each parameter occurrence into `solution`."""

    def atom(a, u):
        if a.head in params:
            return _solve_param(a.head, a.args, u, solution)
        same = isinstance(u, Atom) and a.head == u.head and len(a.args) == len(u.args)
        return None if same else False

    return _in_step(pat, tgt, atom)


def _solve_param(param, spine, tgt, solution) -> bool:
    # The solution abstracts the images of the spine's variables in `tgt`,
    # and fails if `tgt` mentions any other variable bound outside it.
    images = _pattern_spine(param, spine)
    n = len(spine)
    captured = False

    def abstract(h, d):
        nonlocal captured
        if isinstance(h, BVar):
            if h.index < d:  # bound inside `tgt`: never a spine argument
                return h
            h = BVar(h.index - d)
            captured = captured or h not in images
        if h in images:
            return BVar(d + n - 1 - images[h])
        return h

    candidate: Term = _map_heads(tgt, abstract)
    if captured:
        return False
    for k in range(n, 0, -1):
        candidate = Lam(f"w{k}", candidate)
    if param in solution:
        return solution[param] == candidate
    solution[param] = candidate
    return True


# ---------------------------------------------------------------------------
# Schema instance checking and bounded enumeration.


def schema_instance(sig: Signature, cs: ContextSchema, ce: CtxExpr) -> bool:
    """Whether the context expression segments into consecutive block
    instances of the schema.  Raises NonPatternSchema where
    `segment_instance` does."""
    return segment_instance(sig, cs, ce) is not None


def segment_instance(
    sig: Signature, cs: ContextSchema, ce: CtxExpr
) -> Optional[list[tuple[int, int, int]]]:
    """A segmentation of `ce` as (block index, start, end) triples, or None.

    A depth-first search from the end of the context: the last segment is
    the first block, in schema order, whose segment matches and whose
    prefix segments.  A prefix found not to segment is remembered in
    `dead`, so each prefix is searched at most once and a context of n
    bindings costs at most n·|blocks| `block_instance` calls.  Each segment
    is matched before `dead` is read for its prefix, so the segments tried
    are those the same search without `dead` tries, in the same order less
    repeats, and a block outside the pattern fragment raises
    NonPatternSchema at the same segment.
    """
    if ce.head is not None:
        raise ValueError("segmentation expects a context expression without a head variable")
    bindings = ce.bindings
    dead: set[int] = set()
    path: list[tuple[int, int, int]] = []
    k, bi = len(bindings), 0
    while k:
        if bi == len(cs.blocks):
            dead.add(k)
            if not path:
                return None
            prev, _, k = path.pop()
            bi = prev + 1
            continue
        m = len(cs.blocks[bi].decl)
        if (
            0 < m <= k
            and block_instance(sig, cs.blocks[bi], bindings[k - m : k]) is not None
            and k - m not in dead
        ):
            path.append((bi, k - m, k))
            k, bi = k - m, 0
        else:
            bi += 1
    return path[::-1]


# ---------------------------------------------------------------------------
# Bounded term pools.


def _pool_heads(
    sig: Signature,
    nominals: int,
    extra_heads: Iterable[tuple[Head, Arity]],
) -> tuple[tuple[Head, Arity], ...]:
    return (
        *sig.arity_context().terms.items(),
        *extra_heads,
        *((Nominal(O, k), O) for k in range(1, nominals + 1)),
    )


def term_pool(
    sig: Signature,
    arity: Arity,
    size_max: int,
    nominals: int = 0,
    extra_heads: Iterable[tuple[Head, Arity]] = (),
) -> tuple[Term, ...]:
    """Closed eta-long canonical terms of the given arity, up to `size_max`.

    Heads are drawn from the signature's term constants, the optional extra
    heads (typically nominals of an ambient context), and `nominals`
    base-arity nominal constants.  Ordered by size then head order.
    """
    heads = _pool_heads(sig, nominals, extra_heads)
    out: list[Term] = []
    for size in range(1, size_max + 1):
        out.extend(_pool_exact(heads, arity, size, ()))
    return tuple(out)


def term_pool_exact(
    sig: Signature,
    arity: Arity,
    size: int,
    nominals: int = 0,
    extra_heads: Iterable[tuple[Head, Arity]] = (),
) -> tuple[Term, ...]:
    """The slice of `term_pool` of exactly the given size."""
    return _pool_exact(_pool_heads(sig, nominals, extra_heads), arity, size, ())


def min_term_size(arity: Arity) -> int:
    return 1 + len(arity_args(arity))


# Pools are pure functions of their arguments, so calls share them; the
# bound keeps a long-lived process from holding every pool it ever built.
@functools.lru_cache(maxsize=1024)
def _pool_exact(heads, arity, size, scope) -> tuple[Term, ...]:
    # `scope` holds the arities of the enclosing binders, outermost first.
    out: list[Term] = []
    if isinstance(arity, Arrow):
        if size >= 2:
            var = f"x{len(scope) + 1}"
            for body in _pool_exact(heads, arity.right, size - 1, scope + (arity.left,)):
                out.append(Lam(var, body))
    else:
        bound = [(BVar(len(scope) - 1 - i), ar) for i, ar in enumerate(scope)]
        pool = lambda a, s: _pool_exact(heads, a, s, scope)
        for head, har in list(heads) + bound:
            for spine in _spines(arity_args(har), size - 1, pool):
                out.append(Atom(head, spine))
    return tuple(out)


def _spines(arities, size: int, pool):
    """Every argument spine of the given arities whose sizes sum to `size`,
    an argument of arity `a` and size `s` drawn from `pool(a, s)`: by the
    split of the size, then lexicographically."""
    mins = [min_term_size(a) for a in arities]
    for split in _compositions(size, mins):
        yield from itertools.product(*(pool(a, s) for a, s in zip(arities, split)))


def _compositions(total: int, mins: list[int]):
    """All splits of `total` into len(mins) parts with the given minimums,
    lexicographically ordered."""
    if not mins:
        if total == 0:
            yield ()
        return
    rest_min = sum(mins[1:])
    for first in range(mins[0], total - rest_min + 1):
        for rest in _compositions(total - first, mins[1:]):
            yield (first,) + rest


def enumerate_instances(
    sig: Signature,
    cs: ContextSchema,
    blocks_max: int,
    term_size_max: int,
    pool_nominals: int = 0,
) -> list[CtxExpr]:
    """All instances with at most `blocks_max` block instantiations, with
    parameters drawn from the bounded closed-term pool.  Deterministic
    order, no duplicates: depth first, each instance where it is first
    reached.

    What an instance extends to depends only on its bindings and on the
    blocks left, so one reached again at the same or a greater depth is not
    extended again: everything below it was reached the first time."""
    results: list[CtxExpr] = []
    depth_of: dict = {}  # bindings -> the least depth they were extended at

    def extend(bindings, depth):
        known = depth_of.get(bindings)
        if known is not None and known <= depth:
            return
        if known is None:
            results.append(CtxExpr(None, bindings))
        depth_of[bindings] = depth
        if depth == blocks_max:
            return
        for block in cs.blocks:
            if not block.decl:
                continue  # the empty block only regenerates the same context
            for segment in _block_instantiations(
                sig, block, bindings, term_size_max, pool_nominals
            ):
                extend(bindings + segment, depth + 1)

    extend((), 0)
    return results


def _block_instantiations(sig, block, existing, term_size_max, pool_nominals):
    avoid = context_nominals(LFContext(existing))
    noms = []
    for y, a in block.decl:
        nom = fresh_nominal(erase(a), avoid)
        avoid.add(nom)
        noms.append(nom)
    pools = []
    for x, ar in block.params:
        pool = term_pool(sig, ar, term_size_max, pool_nominals)
        if not pool:
            raise PoolEmpty(
                f"no closed term of arity {ar!r} within size {term_size_max}"
            )
        pools.append(pool)
    return [_instantiate_block(block, noms, combo) for combo in itertools.product(*pools)]
