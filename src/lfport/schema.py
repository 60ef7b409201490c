"""Context schemas: well-formedness, instance checking, bounded enumeration.

A context schema is a list of block schemas; instances are built by
instantiating blocks repeatedly, replacing declaration variables with
nominals and parameters with closed terms of the declared arity types.
One search, `segment_instance`, answers both instance questions: how a
context splits into block instances, and (`schema_instance`) whether it
splits at all.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

from .lf import (
    Arity,
    Arrow,
    Atom,
    AtomicType,
    Head,
    Lam,
    LFError,
    Nominal,
    O,
    PiKind,
    PiType,
    Signature,
    Term,
    TermDecl,
    TypeExpr,
    TypeKind,
    _db_index,
    alpha_eq,
    alpha_key,
    apply_subst,
    arity_args,
    arity_check_term,
    arity_check_type,
    erase,
    free_vars,
    fresh_nominal,
    names_in,
    nominals_in,
    rename_var,
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


@dataclass(frozen=True)
class ContextSchema:
    blocks: tuple[BlockSchema, ...] = ()


@dataclass(frozen=True)
class CtxExpr:
    """A context expression: an optional head context variable followed by
    explicit nominal bindings."""

    head: Optional[str] = None
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
        assigned = dict(actx.terms)
        assigned.update(dict(block.params))
        params = frozenset(param_names)
        earlier: set[str] = set()
        for y, ty in block.decl:
            if y in assigned:
                raise DuplicateVariable(f"declaration variable {y} already assigned")
            if not arity_check_type(actx.with_terms(assigned), ty):
                raise ArityKindFailure(f"type of {y} does not arity-kind")
            if params:
                _check_patterns(ty, params, earlier, frozenset())
            assigned[y] = erase(ty)
            earlier.add(y)


def _check_patterns(e, params, earlier, bound: frozenset) -> None:
    """Raise NonPatternSchema unless every parameter occurrence in `e` is
    applied to distinct bare variables: local binders (`bound`), earlier
    declaration variables of the block (`earlier`) or nominals.  These are
    exactly the spines `_solve_param` accepts, checked in its order."""
    match e:
        case Atom(h, args) if isinstance(h, str) and h in params and h not in bound:
            for arg in args:
                if not isinstance(arg, Atom) or arg.args:
                    raise NonPatternSchema(
                        f"parameter {h} applied to a non-variable argument"
                    )
                x = arg.head
                if not (isinstance(x, Nominal) or x in bound or x in earlier):
                    raise NonPatternSchema(
                        f"parameter {h} applied to the free name {x}"
                    )
            if len({arg.head for arg in args}) != len(args):
                raise NonPatternSchema(f"parameter {h} applied to repeated arguments")
        case Atom(_, args) | AtomicType(_, args):
            for arg in args:
                _check_patterns(arg, params, earlier, bound)
        case Lam(v, body):
            _check_patterns(body, params, earlier, bound | {v})
        case PiType(v, d, b):
            _check_patterns(d, params, earlier, bound)
            _check_patterns(b, params, earlier, bound | {v})


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
    bound variables); anything else raises NonPatternSchema.
    """
    decl = block.decl
    if len(bindings) != len(decl):
        return None
    params = dict(block.params)
    theta: dict = {}
    patterns = []
    for (y, a), (nom, _) in zip(decl, bindings):
        if erase(a) != nom.arity:
            return None
        patterns.append(apply_subst(a, theta))
        theta[y] = (Atom(nom), erase(a))
    solution: dict[str, Term] = {}
    for pat, (_, target_ty) in zip(patterns, bindings):
        if not _match_type(pat, target_ty, params, solution, ()):
            return None
    actx = sig.arity_context()
    avoid: set[Nominal] = set()
    for nom, ty in bindings:
        avoid.add(nom)
        avoid |= nominals_in(ty)
    out: dict[str, Term] = {}
    for x, ar in block.params:
        if x in solution:
            if not arity_check_term(actx, solution[x], ar):
                return None
            out[x] = solution[x]
        else:
            # unconstrained parameter: any inhabitant works, pick a nominal
            out[x] = Atom(fresh_nominal(ar, avoid))
    full = {x: (out[x], params[x]) for x in out}
    for pat, (_, target_ty) in zip(patterns, bindings):
        if not alpha_eq(apply_subst(pat, full), target_ty):
            return None
    return out


def _match_type(pat, tgt, params, solution, bp) -> bool:
    match pat, tgt:
        case (PiType(v1, d1, b1), PiType(v2, d2, b2)):
            return _match_type(d1, d2, params, solution, bp) and _match_type(
                b1, b2, params, solution, bp + ((v1, v2),)
            )
        case (AtomicType(h1, a1), AtomicType(h2, a2)):
            if h1 != h2 or len(a1) != len(a2):
                return False
            return all(
                _match_term(p, t, params, solution, bp) for p, t in zip(a1, a2)
            )
    return False


def _match_term(pat, tgt, params, solution, bp) -> bool:
    match pat:
        case Atom(h, args) if (
            isinstance(h, str)
            and h in params
            and _db_index(h, [p for p, _ in bp]) is None
        ):
            return _solve_param(h, args, tgt, solution, bp)
        case Atom(h, args):
            if not isinstance(tgt, Atom) or len(args) != len(tgt.args):
                return False
            if not _heads_match(h, tgt.head, bp):
                return False
            return all(
                _match_term(p, t, params, solution, bp)
                for p, t in zip(args, tgt.args)
            )
        case Lam(v1, b1):
            if not isinstance(tgt, Lam):
                return False
            return _match_term(b1, tgt.body, params, solution, bp + ((v1, tgt.var),))
    raise TypeError(f"not a term: {pat!r}")


def _heads_match(h1, h2, bp) -> bool:
    if isinstance(h1, Nominal) or isinstance(h2, Nominal):
        return h1 == h2
    i1 = _db_index(h1, [p for p, _ in bp])
    i2 = _db_index(h2, [t for _, t in bp])
    if i1 != i2:
        return False
    return i1 is not None or h1 == h2


def _solve_param(param, spine, tgt, solution, bp) -> bool:
    # Spine arguments must be distinct nominals or pattern-side bound
    # variables; the solution abstracts their target-side images.  A bound
    # variable's image is its binder's position in `bp`, so target binders
    # that shadow one another stay distinct.
    images: list = []
    for arg in spine:
        if not isinstance(arg, Atom) or arg.args:
            raise NonPatternSchema(
                f"parameter {param} applied to a non-variable argument"
            )
        if isinstance(arg.head, Nominal):
            images.append(arg.head)
        else:
            idx = _db_index(arg.head, [p for p, _ in bp])
            if idx is None:
                raise NonPatternSchema(
                    f"parameter {param} applied to the free name {arg.head}"
                )
            images.append(len(bp) - 1 - idx)
    if len(set(images)) != len(images):
        raise NonPatternSchema(f"parameter {param} applied to repeated arguments")
    tgt_bound = [t for _, t in bp]
    body = tgt
    fresh: list[str] = []
    taken = names_in(tgt) | set(tgt_bound)
    for k, image in enumerate(images):
        w = f"w{k + 1}"
        while w in taken:
            w += "'"
        taken.add(w)
        fresh.append(w)
        if isinstance(image, Nominal):
            body = _swap_nominal(body, image, w)
        elif tgt_bound[image] not in tgt_bound[image + 1 :]:
            # a shadowed binder cannot occur in `tgt`
            body = rename_var(body, tgt_bound[image], w)
    if free_vars(body) & set(tgt_bound):
        return False  # solution would capture a bound variable
    candidate: Term = body
    for w in reversed(fresh):
        candidate = Lam(w, candidate)
    if param in solution:
        return alpha_eq(solution[param], candidate)
    solution[param] = candidate
    return True


def _swap_nominal(e, nom: Nominal, var: str):
    match e:
        case Atom(head, args):
            head2 = var if head == nom else head
            return Atom(head2, tuple(_swap_nominal(a, nom, var) for a in args))
        case Lam(v, body):
            return Lam(v, _swap_nominal(body, nom, var))
        case AtomicType(head, args):
            return AtomicType(head, tuple(_swap_nominal(a, nom, var) for a in args))
        case PiType(v, d, b):
            return PiType(v, _swap_nominal(d, nom, var), _swap_nominal(b, nom, var))
        case TypeKind():
            return e
        case PiKind(v, d, b):
            return PiKind(v, _swap_nominal(d, nom, var), _swap_nominal(b, nom, var))
    raise TypeError(f"not an LF expression: {e!r}")


# ---------------------------------------------------------------------------
# Schema instance checking and bounded enumeration.


def schema_instance(sig: Signature, cs: ContextSchema, ce: CtxExpr) -> bool:
    """Whether the context expression segments into consecutive block
    instances of the schema.  Raises NonPatternSchema where
    `segment_instance` does."""
    if ce.head is not None:
        raise ValueError("schema_instance expects a context expression without a head variable")
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
    heads: list[tuple[Head, Arity]] = [
        (d.name, erase(d.type)) for d in sig.decls if isinstance(d, TermDecl)
    ]
    heads.extend(extra_heads)
    for k in range(1, nominals + 1):
        heads.append((Nominal(O, k), O))
    return tuple(heads)


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
    n = 1
    while isinstance(arity, Arrow):
        n += 1
        arity = arity.right
    return n


# Pools are pure functions of their key; the cache is shared across calls.
_POOL_CACHE: dict = {}


def _pool_exact(heads, arity, size, scope):
    key = (heads, arity, size, scope)
    cached = _POOL_CACHE.get(key)
    if cached is not None:
        return cached
    out: list[Term] = []
    if isinstance(arity, Arrow):
        if size >= 2:
            var = f"x{len(scope) + 1}"
            for body in _pool_exact(
                heads, arity.right, size - 1, scope + ((var, arity.left),)
            ):
                out.append(Lam(var, body))
    else:
        candidates = list(heads) + list(scope)
        for head, har in candidates:
            want = arity_args(har)
            need = size - 1
            if not want:
                if need == 0:
                    out.append(Atom(head))
                continue
            mins = [min_term_size(a) for a in want]
            if sum(mins) > need:
                continue
            for split in _compositions(need, mins):
                for combo in itertools.product(
                    *(
                        _pool_exact(heads, a, s, scope)
                        for a, s in zip(want, split)
                    )
                ):
                    out.append(Atom(head, combo))
    _POOL_CACHE[key] = tuple(out)
    return _POOL_CACHE[key]


def _compositions(total: int, mins: list[int]):
    """All splits of `total` into len(mins) parts with the given minimums,
    lexicographically ordered."""
    if len(mins) == 1:
        if total >= mins[0]:
            yield (total,)
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
    order, no duplicates."""
    results: list[CtxExpr] = []
    seen: set = set()

    def emit(bindings):
        key = tuple((n, alpha_key(t)) for n, t in bindings)
        if key not in seen:
            seen.add(key)
            results.append(CtxExpr(None, tuple(bindings)))

    def extend(bindings, depth):
        emit(bindings)
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
    avoid: set[Nominal] = set()
    for nom, ty in existing:
        avoid.add(nom)
        avoid |= nominals_in(ty)
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
    segments = []
    for combo in itertools.product(*pools):
        subst = {y: (Atom(n), erase(a)) for (y, a), n in zip(block.decl, noms)}
        subst.update({x: (t, ar) for (x, ar), t in zip(block.params, combo)})
        segment = tuple(
            (n, apply_subst(a, subst)) for (y, a), n in zip(block.decl, noms)
        )
        segments.append(segment)
    return segments
