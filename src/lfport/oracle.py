"""Bounded semantic oracles.

`bounded_validity` evaluates a closed formula with quantifiers restricted
to finite pools of terms and schema instances; atoms are decided exactly by
the LF checkers.  A universal quantifier over an inherently infinite domain
never yields Valid here: exhausting the bounded range without a
counterexample reports Unknown, so the oracle only ever claims what the
bound justifies.  The verify_* harnesses re-check the minimization and
transport metatheorems over the same bounded enumerations.

The semantics is substitution: a quantifier substitutes each pool term (or
schema instance) into its body.  The evaluator defers the term substitution
to an environment of pool terms, which each atom applies to its dangling
indices, so an atom's context and type judgements are checked once per
combination of the pool terms they refer to, not once per evaluation.
Each context an atom builds keeps the memos of the judgements made in it
(`_Context`, the one per-context judgement memo of both oracles): a type
argument outside the type's own binders is judged once per kind domain,
however many types it is an argument of, and against an atomic type the
term judgement is the term's synthesis, memoised by the pool terms the
term refers to, and a comparison of the synthesized type with the atom's,
the only step that runs per evaluation.  A context quantifier binds its
instance in the environment the same way: an atom headed by its variable
puts the instance's bindings in front of its own, and keeps its judgements
with the instance.  These memos live for one `bounded_validity` call and
are cleared when it returns.  A failing judgement is kept as its
`LFError`, without the frames it was raised through, and its message is
formatted only for a trace line that the verdict keeps.

Each verdict comes with its read set: the term quantifiers whose pool term
its value depended on (an atom reads those its deciding judgement refers
to).  A term quantifier stops at the first pool term whose verdict did not
read it: the evaluator is deterministic and its memos are pure, so every
later pool term would give the same value, and the trace of such a later
verdict is never kept.  Verdicts and traces are exactly those of the plain
substitution evaluator (a differential test in tests/test_oracle.py holds
the two together).  Formulas are locally nameless, so substitution renames
no quantifier, and a trace names each by its own hint, which for a parsed
formula is the name `fmt_formula` prints; hints take no part in evaluation.

A term quantifier whose body is decided by a guard atom `{G |- x : A}`
whenever the guard fails (a `forall`'s implication, or an `exists`'s body
or left conjunct, with `x` the whole term at base arity and `A` atomic,
neither `A` nor `G` mentioning `x`) has a typed range: only the pool terms
that pass the guard, in pool order.  Each per-context memo keeps an index,
built once per arity from the syntheses of the whole pool, from each
synthesized atomic type to the pool terms that synthesize it, and the
range is the index's entry for `A`, or empty when `G` or `A` does not
form.  A skipped term's body would have been neither the quantifier's stop
value nor Unknown, so verdicts and traces stay those of the plain
evaluator (`bounded_validity` gives the argument, with its one fallback
and its one trap).

The minimization harness works per level, a run of enumerated contexts
with equal nominal heads (`_nominal_heads`), which the breadth-first
enumeration yields together.  A level builds its term pool and candidate
types once, since both read a context only through its heads, and keeps
one per-context memo (`_Context`) per minimization that drops a binding,
whichever context and head constant reach it; each enumerated context
keeps its own, and is minimized once per head constant (minimization
reads nothing else of a type).  In each memo, each type argument is
judged once per kind domain, and each candidate term synthesized once and
compared with a type by the step the atoms of `bounded_validity` take
(`_check_atomic`).  A judgement is a function of the context's value and
what it judges, so sharing a memo between equal contexts assumes neither
weakening nor strengthening.  Type formation itself is `check_type`,
with the argument judgement memoised.  Above these memos, a level decides
each type formation, and each term check, once per lookup of the nominals
the type, or the term, mentions, whichever of its contexts look them up
alike: a judgement reads nothing else of a context whose binders are all
nominals (`verify_minimization`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable

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
    subst_ctx,
)
from .lf import (
    Atom,
    AtomicType,
    BVar,
    LFContext,
    LFError,
    Nominal,
    O,
    PiType,
    Signature,
    _check_term,
    _compare,
    _dangling,
    _subst,
    check_context,
    check_term,
    check_type,
    erase,
    fresh_nominal,
    nominals_in,
    synth_term,
)
from .schema import (
    ContextSchema,
    _spines,
    enumerate_instances,
    schema_instance,
    term_pool,
    term_pool_exact,
)
from .subord import SubordRel, minimize
from .subsume import (
    TransportFailure,
    ce_subsumes,
    prune_ok,
    transport_check,
    transport_witness,
)

VALID = "valid"
INVALID = "invalid"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class Bounds:
    """Enumeration budget: maximum term size, maximum number of block
    instantiations (also used as the context-length bound by the
    minimization harness), and how many base-arity nominal constants the
    term pools may draw on."""

    term_size_max: int
    schema_blocks_max: int
    pool_nominals: int = 0

    def __post_init__(self):
        if self.term_size_max <= 0 or self.schema_blocks_max <= 0:
            raise ValueError("bounds must be positive")
        if self.pool_nominals < 0:
            raise ValueError("pool_nominals must be non-negative")


@dataclass(frozen=True)
class Verdict3:
    value: str
    trace: tuple[str, ...] = ()


@dataclass
class OracleReport:
    title: str
    checked: int = 0
    obligations: dict = field(default_factory=dict)  # name -> [checks, failures]
    counterexamples: list = field(default_factory=list)
    refused: str | None = None

    @property
    def passed(self) -> bool:
        return self.refused is None and not self.counterexamples

    def record(
        self, obligation: str, ok: bool, detail: str | Callable[[], str] = ""
    ):
        """Count one check; a callable detail is rendered only on failure."""
        self.checked += 1
        checks = self.obligations.setdefault(obligation, [0, 0])
        checks[0] += 1
        if not ok:
            checks[1] += 1
            if callable(detail):
                detail = detail()
            self.counterexamples.append(
                f"{obligation}: {detail}" if detail else obligation
            )

    def record_vacuous(self, obligation: str, count: int):
        """Obligations that hold by identity, without re-running a checker."""
        self.checked += count
        checks = self.obligations.setdefault(obligation, [0, 0])
        checks[0] += count

    def render(self) -> str:
        lines = [f"report: {self.title}"]
        if self.refused is not None:
            lines.append(f"refused: {self.refused}")
            lines.append("FAIL (refused)")
            return "\n".join(lines)
        for name, (checks, failures) in self.obligations.items():
            lines.append(f"obligation: {name}: {checks} checks, {failures} failures")
        for c in self.counterexamples:
            lines.append(f"counterexample: {c}")
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(
            f"{verdict} ({self.checked} obligations, "
            f"{len(self.counterexamples)} counterexamples)"
        )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Bounded validity per the substitution semantics, evaluated under an
# environment.


def bounded_validity(sig: Signature, f: Formula, bounds: Bounds) -> Verdict3:
    """Evaluate a closed, arity-checked formula at the bounds.

    Verdict and trace are those of the substitution semantics, which
    substitutes each pool term or instance into the whole quantifier body.
    Here the substitution is deferred: the quantifier binds its index to
    its choice in an environment, and each atom applies the environment to
    its own parts.  An atom's context and type judgements are memoised, for
    this call only, by the pool terms of the quantifiers they refer to.
    The context memo keeps one per-context judgement memo (`_Context`) with
    each context: its type arguments' judgements, each pool term's once per
    kind domain, and its term's syntheses, by the pool terms the term
    refers to; against an atomic type only the comparison of the
    synthesized type with the atom's runs per evaluation (`_check_atomic`).
    Failing judgements are kept unformatted, and only the lines of the
    returned trace are formatted.

    Each evaluation also returns a read set: a bit mask with bit `i` set
    when the verdict's value depended on the pool term of the `i`-th
    enclosing term quantifier, innermost first, as dangling indices count.
    An atom reads the indices its deciding judgement refers to (its
    context's, its type's, or its type's and term's), a connective what the
    children it evaluated read, and a quantifier what its bodies read, less
    its own bit 0 for a term quantifier.  A term quantifier stops at the
    first body that does not read bit 0.

    A term quantifier whose body a guard atom `{G |- x : A}` decides when
    it fails (`_guard`) ranges only over the pool terms that pass the
    guard: once `G` and `A` are formed, through the atom's own memos, the
    range is the entry for `A` in the index of `G`'s memo
    (`_Context.inhabitants`), in pool order, and if either does not form,
    the range is empty.  This is exact.  Against an atomic `A` a term
    check is the term's synthesis and a comparison of the synthesized type
    with `A`, so the entry holds exactly the pool terms that pass the
    guard, and no term passes a guard that does not form.  A skipped term
    fails the guard, so its body is Valid under `forall` and Invalid under
    `exists`: never the stop value and never Unknown.  Its read set is the
    guard's, which every kept body reads too.  When the guard is formed,
    that read set has bit 0 and never stops the loop; when it is not, it
    lacks bit 0, and the loop would stop at the first term.  The value,
    the first stop, the trace and the exhaustion line are therefore
    unchanged.  One fallback: a quantifier without a guard, or with an
    empty pool, ranges over the whole pool.  One trap keeps today's
    verdicts: the loop's read set starts as the guard's, so an empty range
    returns Unknown, with the exhaustion line of no Unknown body, and the
    guard's read set less bit 0, as the skipped bodies would; an outer
    read-set stop then fires exactly where it did.
    """
    ranges: dict = {}  # arity -> pool terms, schema -> instances
    # Per-node memos, id(node) -> (node, ...).  An atom headed by a context
    # variable keeps its judgements in its instance's dict, dropped with it.
    memo: dict = {}

    def domain(g):
        """The pool terms of a term quantifier's arity, or the instances of
        a context quantifier's schema."""
        key = g.schema if isinstance(g, ForallCtx) else g.arity
        chosen = ranges.get(key)
        if chosen is None:
            sizes = (bounds.term_size_max, bounds.pool_nominals)
            chosen = ranges[key] = (
                enumerate_instances(sig, key, bounds.schema_blocks_max, *sizes)
                if isinstance(g, ForallCtx) else term_pool(sig, key, *sizes)
            )
        return chosen

    def choices(g, env):
        """(pool term or instance, the environment its body is evaluated
        in) for a quantifier, lazily."""
        inst, ctxs = env
        if isinstance(g, ForallCtx):
            own = _bound_nominals(g.body)
            for instance in domain(g):
                # as putting the instance in for the variable would raise
                if not own.isdisjoint(n for n, _ in instance.bindings):
                    raise ValueError("context expression binds a nominal twice")
                yield instance, (inst, ((instance, {}),) + ctxs)
            return
        for t in domain(g):
            yield t, (((t, g.arity),) + inst, ctxs)

    def typed_range(g, env):
        """The choices of the term quantifier `g` that pass its guard, with
        the guard's read set, and no choice if the guard's context or type
        does not form under `env`; or None, to range over the whole pool,
        when `g` has no guard or its pool is empty."""
        hit = memo.get(id(g))
        if hit is None:
            hit = memo[id(g)] = (g, _guard(g))
        guard = hit[1]
        pool = domain(g) if guard is not None else ()
        if not pool:
            return None
        inst, ctxs = env
        # the guard's context and type do not read x, so no choice is put in
        judged, ty, failure, reads = formed(guard, (((None, g.arity),) + inst, ctxs))
        inhabitants = judged.inhabitants(g.arity, pool).get(ty, ()) if failure is None else ()
        return ((t, (((t, g.arity),) + inst, ctxs)) for t in inhabitants), reads

    def formed(g, env):
        """The context memo of the atom `g` under `env` and its type, the
        first failing judgement of the two (an unformatted LFError, or None
        if both hold) and the read set of the judgement that decided the
        atom, which is the term judgement when both hold."""
        if g.ctx.head is not None and (
            isinstance(g.ctx.head, str) or g.ctx.head.index >= len(env[1])
        ):
            raise ValueError("bounded_validity needs a closed formula")
        rec = memo.get(id(g))
        if rec is None:
            in_ctx = set().union(*(_dangling(t) for _, t in g.ctx.bindings))
            in_ty = in_ctx | _dangling(g.ty)
            in_term = _dangling(g.term)
            # the read sets of a verdict decided by the context, the type
            # and the term judgement
            reads = tuple(
                sum(1 << i for i in refs) for refs in (in_ctx, in_ty, in_ty | in_term)
            )
            rec = memo[id(g)] = (g, tuple(in_ctx), tuple(in_ty), tuple(in_term), reads, ({}, {}))
        _, in_ctx, in_ty, _, reads, memos = rec
        inst, ctxs = env
        front = ()
        if g.ctx.head is not None:  # its context starts with the instance
            instance, nodes = ctxs[g.ctx.head.index]
            front, memos = instance.bindings, nodes.setdefault(id(g), ({}, {}))
        ctx_memo, ty_memo = memos
        # Memo keys name each pool term by its identity: `ranges` keeps it
        # alive, and it has one arity.
        key = tuple(id(inst[i][0]) for i in in_ctx)
        judged = ctx_memo.get(key)
        if judged is None:
            lctx = LFContext(front + tuple((n, _subst(t, {}, 0, inst)) for n, t in g.ctx.bindings))
            judged = ctx_memo[key] = _Context(sig, lctx, _fails(check_context, sig, lctx))
        if judged.failure is not None:
            return judged, None, judged.failure, reads[0]
        key = tuple(id(inst[i][0]) for i in in_ty)
        hit = ty_memo.get(key)
        if hit is None:
            ty = _subst(g.ty, {}, 0, inst)
            hit = ty_memo[key] = (ty, _fails(check_type, sig, judged.g, ty, judged.check_arg))
        ty, failure = hit
        return judged, ty, failure, reads[1 if failure is not None else 2]

    def holds(g, env):
        """The first failing judgement of an atom, an unformatted LFError,
        or None if they hold, and the read set of the judgement that
        decided it."""
        judged, ty, failure, reads = formed(g, env)
        if failure is not None:
            return failure, reads
        inst = env[0]
        term = lambda: _subst(g.term, {}, 0, inst)
        if isinstance(ty, PiType):
            return _fails(check_term, sig, judged.g, term(), ty), reads
        in_term = memo[id(g)][3]  # the atom's record, which `formed` made
        key = tuple(id(inst[i][0]) for i in in_term)
        return _check_atomic(judged.synthesized, key, term, sig, judged.g, ty), reads

    def ev(g: Formula, env: tuple) -> tuple[Verdict3, int]:
        # env: two tuples, innermost first: the (term, arity) of each
        # enclosing term quantifier, which `_subst` puts in for an atom's
        # dangling indices, and the (instance, memo dict) of each enclosing
        # context quantifier.  Returns the verdict and its read set.
        match g:
            case Holds():
                failure, reads = holds(g, env)
                if failure is not None:
                    return Verdict3(INVALID, (failure,)), reads
                return Verdict3(VALID), reads
            case Top():
                return Verdict3(VALID), 0
            case Bot():
                return Verdict3(INVALID), 0
            case Conj(l, r):
                vl, reads = ev(l, env)
                if vl.value == INVALID:
                    return Verdict3(INVALID, vl.trace), reads
                vr, rr = ev(r, env)
                reads |= rr
                if vr.value == INVALID:
                    return Verdict3(INVALID, vr.trace), reads
                if vl.value == VALID and vr.value == VALID:
                    return Verdict3(VALID), reads
                return Verdict3(UNKNOWN, vl.trace + vr.trace), reads
            case Disj(l, r):
                vl, reads = ev(l, env)
                if vl.value == VALID:
                    return Verdict3(VALID), reads
                vr, rr = ev(r, env)
                reads |= rr
                if vr.value == VALID:
                    return Verdict3(VALID), reads
                if vl.value == INVALID and vr.value == INVALID:
                    return Verdict3(INVALID, vl.trace + vr.trace), reads
                return Verdict3(UNKNOWN), reads
            case Imp(l, r):
                vl, reads = ev(l, env)
                if vl.value == INVALID:
                    return Verdict3(VALID), reads
                vr, rr = ev(r, env)
                reads |= rr
                if vr.value == VALID:
                    return Verdict3(VALID), reads
                if vl.value == VALID and vr.value == INVALID:
                    return Verdict3(INVALID, vr.trace), reads
                return Verdict3(UNKNOWN), reads
            case ForallTm() | ExistsTm() | ForallCtx():
                # a term quantifier's own read bit is bit 0 of its bodies'
                bit = not isinstance(g, ForallCtx)
                word, stop = (
                    ("witness", VALID) if isinstance(g, ExistsTm) else ("counterexample", INVALID)
                )
                saw_unknown = False
                # a typed range starts from what each body it skips reads
                typed = typed_range(g, env) if bit else None
                over, reads = typed if typed is not None else (choices(g, env), 0)
                for choice, inner in over:
                    sub, r = ev(g.body, inner)
                    reads |= r
                    if sub.value == stop:
                        # a witness line stands alone in its trace
                        rest = sub.trace if stop == INVALID else ()
                        return Verdict3(stop, ((word, g.var, choice),) + rest), reads >> bit
                    saw_unknown |= sub.value == UNKNOWN
                    if bit and not r & 1:
                        break
                return Verdict3(UNKNOWN, (_EXHAUSTED[type(g)][saw_unknown],)), reads >> bit
        raise TypeError(f"not a formula: {g!r}")

    try:
        verdict, _ = ev(f, ((), ()))
    finally:
        # ev is a closure over itself, so the memos would otherwise outlive
        # the call until the next cycle collection.
        memo.clear()
        ranges.clear()
    return Verdict3(verdict.value, tuple(map(_line, verdict.trace)))


# The note of a quantifier whose range ran out, without and with an Unknown
# body.
_EXHAUSTED = {
    ForallTm: (
        "universal valid at bound; domain is unbounded",
        "universal range undecided within bounds",
    ),
    ExistsTm: ("existential pool exhausted",) * 2,
    ForallCtx: (
        "context quantifier valid at bound; domain is unbounded",
        "context range undecided within bounds",
    ),
}


def _bound_nominals(f: Formula, c: int = 0) -> set:
    """The nominals that the atoms of `f` headed by `BVar(c)` bind
    explicitly."""
    match f:
        case Holds(ctx):
            return {n for n, _ in ctx.bindings} if ctx.head == BVar(c) else set()
        case ForallTm() | ExistsTm() | ForallCtx():
            return _bound_nominals(f.body, c + isinstance(f, ForallCtx))
        case Imp(l, r) | Conj(l, r) | Disj(l, r):
            return _bound_nominals(l, c) | _bound_nominals(r, c)
    return set()


def _guard(g: Formula) -> Holds | None:
    """The atom `{G |- x : A}` that decides the body of the term quantifier
    `g` whenever it fails, or None: the left side of a `forall`'s
    implication, or an `exists`'s body or left conjunct.  Its term is the
    whole variable `x` at base arity, its type `A` is atomic, and neither
    `A` nor a binding of `G` mentions `x`."""
    match g:
        case ForallTm(_, _, Imp(Holds() as atom, _)) | ExistsTm(
            _, _, (Holds() as atom) | Conj(Holds() as atom, _)
        ):
            if (
                g.arity == O
                and atom.term == Atom(BVar(0))
                and isinstance(atom.ty, AtomicType)
                and 0 not in _dangling(atom.ty).union(*(_dangling(t) for _, t in atom.ctx.bindings))
            ):
                return atom
    return None


def _fails(check, *args):
    """The LFError that `check(*args)` raises, or else what it returns: None
    for a checker, a type for `synth_term`.  A memo or a trace may keep the
    error, so it keeps no frames, nor does any failure it wraps."""
    try:
        return check(*args)
    except LFError as err:
        _drop_frames(err)
        return err


def _drop_frames(err: BaseException | None) -> None:
    """Clear the traceback of `err` and of every exception it wraps, which
    is its cause or its context, or theirs: a failure that is a message part
    of another is its cause too.  One already without frames was cleared
    here before, with all it wraps."""
    while err is not None and err.__traceback__ is not None:
        err.__traceback__ = None
        context = err.__context__
        if context is not None and context is not err.__cause__:
            _drop_frames(context)
        err = err.__cause__


def _synthesized(memo: dict, key, term, sig, ctx: LFContext):
    """The term `term()` and the type it synthesizes in `ctx`, or the
    LFError of its synthesis, kept in `memo` at `key` (`term()` runs on a
    miss only)."""
    hit = memo.get(key)
    if hit is None:
        t = term()
        hit = memo[key] = (t, _fails(synth_term, sig, ctx, t))
    return hit


def _check_atomic(memo: dict, key, term, sig, ctx: LFContext, ty: AtomicType):
    """The LFError of checking the term `term()` against the atomic type
    `ty` in `ctx`, or None.  That is the term's synthesis, which does not
    read the type, kept in `memo` (`_synthesized`), and a comparison of the
    synthesized type with `ty`."""
    t, have = _synthesized(memo, key, term, sig, ctx)
    if isinstance(have, LFError):
        return have
    return _fails(_compare, t, have, ty, ctx)


class _Context:
    """A context the oracles judge in, with the failure of its own
    judgement (None if it is well-formed) and the memos of the judgements
    made in it: each type argument's, each term's synthesis, and a pool's
    terms by the type each synthesizes."""

    __slots__ = ("sig", "g", "failure", "judged", "synthesized", "indexed")

    def __init__(self, sig: Signature, g: LFContext, failure: LFError | None):
        self.sig, self.g, self.failure = sig, g, failure
        self.judged: dict = {}  # (id(argument), kind domain) -> (argument, None or LFError)
        self.synthesized: dict = {}  # key of the term -> (term, type or LFError)
        self.indexed: dict = {}  # arity -> the index of `inhabitants`

    def check_arg(self, sig, g, local, arg, domain):
        """`_check_term`, memoised for the arguments of a type formed in
        `g` itself.  They are pool terms or parts of the formula, shared by
        many types, so the memo keys one by its identity and keeps it
        alive; a dependent kind instantiates a fresh domain per type, so
        the domain is keyed by value.  Under a binder of the type an
        argument may mention it, so it is judged afresh."""
        if local:
            return _check_term(sig, g, local, arg, domain)
        key = (id(arg), domain)
        hit = self.judged.get(key)
        if hit is None:
            hit = self.judged[key] = (arg, _fails(_check_term, sig, g, local, arg, domain))
        if hit[1] is not None:
            # a fresh exception: raising the stored one would keep this
            # frame, and so the memo, in its traceback
            raise LFError("{}", hit[1]) from hit[1]

    def inhabitants(self, arity, pool) -> dict:
        """Each atomic type that terms of `pool`, the pool of `arity`,
        synthesize in this context, mapped to those terms in pool order.
        Built once per arity, from each term's synthesis in `synthesized`,
        at the key `(id(term),)` that an atom whose term is a quantifier's
        variable uses; a term whose synthesis fails or gives a Pi type
        checks against no atomic type, and is left out."""
        index = self.indexed.get(arity)
        if index is None:
            index = self.indexed[arity] = {}
            for m in pool:
                _, have = _synthesized(self.synthesized, (id(m),), lambda: m, self.sig, self.g)
                if not isinstance(have, (LFError, PiType)):
                    index.setdefault(have, []).append(m)
        return index

    def type_formed(self, ty: AtomicType) -> bool:
        return _fails(check_type, self.sig, self.g, ty, self.check_arg) is None

    def term_checks(self, m, ty: AtomicType) -> bool:
        """Whether the pool term `m` checks against `ty`."""
        return _check_atomic(self.synthesized, id(m), lambda: m, self.sig, self.g, ty) is None


def _line(x):
    """A trace line, formatted only here, for the lines a verdict keeps: a
    failing judgement, or the line of a quantifier with its hint and its
    pool term or instance."""
    if isinstance(x, tuple):
        word, var, choice = x
        return f"{word} {var} = {choice!r}"
    return f"judgement fails: {x}" if isinstance(x, LFError) else x


# ---------------------------------------------------------------------------
# Bounded-context enumeration used by the minimization harness.


def _nominal_heads(ctx: LFContext) -> tuple:
    """The nominals `ctx` binds, each with its arity: the heads a term pool
    adds for the context."""
    return tuple((b, erase(t)) for b, t in ctx.bindings if isinstance(b, Nominal))


def candidate_types(sig, ctx: LFContext, size_max: int, cap: int | None = None):
    """Atomic types over the signature's type constants with spine terms
    from the bounded pool (context nominals usable as heads).  Arity-correct
    but not necessarily well-formed; ordered by constant then size.  `cap`
    ends the list at an applied type only."""
    extra = _nominal_heads(ctx)
    pool = lambda ar, s: term_pool_exact(sig, ar, s, extra_heads=extra)
    out = []
    for name, arg_ars in sig.arity_context().type_args.items():
        if not arg_ars:
            out.append(AtomicType(name))
            continue
        for total in range(size_max):
            for spine in _spines(arg_ars, total, pool):
                out.append(AtomicType(name, spine))
                if cap is not None and len(out) >= cap:
                    return out
    return out


# Extensions kept per context, and contexts in all, of `enumerate_lf_contexts`.
PER_STEP = 8
TOTAL_CAP = 400


def enumerate_lf_contexts(sig, max_bindings: int, size_max: int):
    """Well-formed LF contexts, lazily and breadth-first from the empty
    one: each context with fewer than `max_bindings` bindings is extended
    by its first `PER_STEP` well-formed candidate types, and the whole
    enumeration ends after `TOTAL_CAP` contexts.  Deterministic.  The
    candidate types are listed once per run of parents with equal nominal
    heads, and checked lazily per parent."""

    def breadth_first():
        level = [LFContext()]
        yield level[0]
        for _ in range(max_bindings):
            level, parents = [], level
            for _, run in itertools.groupby(parents, _nominal_heads):
                run = list(run)
                # once per run of parents: the list reads only their heads
                candidates = candidate_types(sig, run[0], size_max)
                for ctx in run:
                    # every binder is a nominal this generator chose
                    nom = fresh_nominal(O, (b for b, _ in ctx.bindings))
                    well_formed = (
                        ty for ty in candidates
                        if _fails(check_type, sig, ctx, ty) is None
                    )
                    for ty in itertools.islice(well_formed, PER_STEP):
                        level.append(ctx.extend(nom, ty))
                        yield level[-1]

    return itertools.islice(breadth_first(), TOTAL_CAP)


def verify_minimization(
    sig: Signature, rel: SubordRel, bounds: Bounds
) -> OracleReport:
    """Re-check, over the bounded enumeration, that context minimization
    preserves context well-formedness and the type and term checking
    verdicts.  Pairs where minimization drops nothing hold by identity and
    are recorded without re-running the checkers.

    The term pool and candidate types read a context only through its
    nominal heads, so they are built once per level, a run of enumerated
    contexts with equal heads.  Minimization reads only a type's head
    constant, so each enumerated context is minimized once per head
    constant, and each minimization that drops a binding is checked once
    per level.

    Each level decides each of the two verdicts it records once per
    bindings the verdict reads, in one memo per verdict that the
    enumerated contexts and their minimizations share: whether a candidate
    type is formed, keyed by the type and by what the context's `lookup`
    gives for each nominal the type mentions, and whether a pool term
    checks against a candidate type, keyed by the pair and by the lookups
    of the nominals the term mentions.  This is exact:
    - the checkers read a context only through `LFContext.lookup` of the
      heads they meet (`lf._synth`), and those are heads of the judged
      type or term (against an atomic type a term is checked by its
      synthesis and a comparison, which reads no context);
    - every binder of an enumerated context, and of a minimization of it,
      is a nominal, so a constant looks up to None in each of them;
    - only the boolean is kept, never the `LFError`, and only an error's
      message reads the whole context.
    A type or term is keyed by its position in the level's lists, and a
    looked-up binding by a small int, so no tree is hashed per judgement.

    On a memo miss, under each sub-context (the enumerated context or a
    minimization of it), each argument of a candidate type is judged once
    per kind domain, and each pool term synthesized once and its type
    compared with the candidate type, in the per-context memo
    `bounded_validity` keeps too (`_Context`).  An enumerated context's
    memo is dropped with it, a minimization's and the verdicts with its
    level."""
    report = OracleReport("context minimization")
    size = bounds.term_size_max
    contexts = enumerate_lf_contexts(sig, bounds.schema_blocks_max, size)
    for heads, level in itertools.groupby(contexts, _nominal_heads):
        level = list(level)
        terms = term_pool(sig, O, size, extra_heads=heads)[:24]
        types = candidate_types(sig, level[0], size, cap=80)
        # The positions among the heads of the nominals each type and term
        # mentions, as the index of its shape; a context's view gives, per
        # shape, a small int for what it looks up at those positions.
        position = {n: i for i, (n, _) in enumerate(heads)}
        shapes: dict = {}
        shape = lambda e: shapes.setdefault(
            tuple(sorted(position[n] for n in nominals_in(e))), len(shapes)
        )
        type_shape, term_shape = [shape(ty) for ty in types], [shape(m) for m in terms]
        bindings: dict = {}  # a looked-up binding type, or None -> a small int
        views: dict = {}  # a context's small ints at one shape's positions -> a small int

        def judged_in(g: LFContext, failure: LFError | None):
            looked_up = [bindings.setdefault(g.lookup(n), len(bindings)) for n, _ in heads]
            view = [
                views.setdefault(tuple(looked_up[i] for i in s), len(views)) for s in shapes
            ]
            return _Context(sig, g, failure), view

        # Each verdict is keyed by one int for its view and the indices of
        # its type, or of its term and type, which takes less memory than
        # a tuple.
        formed: dict = {}  # (view, type index) -> whether the type is formed
        checks: dict = {}  # (view, term index, type index) -> whether the term checks

        def type_formed(c, j):
            judged, view = c
            key = view[type_shape[j]] * len(types) + j
            ok = formed.get(key)
            if ok is None:
                ok = formed[key] = judged.type_formed(types[j])
            return ok

        def term_checks(c, k, j):
            judged, view = c
            key = (view[term_shape[k]] * len(terms) + k) * len(types) + j
            ok = checks.get(key)
            if ok is None:
                ok = checks[key] = judged.term_checks(terms[k], types[j])
            return ok

        # each reduced sub-context once in the level, however many contexts
        # and heads give it
        subs: dict = {}
        for ctx in level:
            full = judged_in(ctx, None)
            by_head: dict = {}  # head constant -> its sub-context
            for j, ty in enumerate(types):
                assert isinstance(ty, AtomicType)
                sub = by_head.get(ty.head)
                if sub is None:
                    reduced = minimize(rel, ctx, ty)
                    sub = full if reduced == ctx else subs.get(reduced)
                    if sub is None:
                        failure = _fails(check_context, sig, reduced)
                        sub = subs[reduced] = judged_in(reduced, failure)
                    by_head[ty.head] = sub
                where = lambda: f"G = {ctx.bindings!r}, A = {ty!r}"
                report.record("minimized context well-formed", sub[0].failure is None, where)
                ok_full = type_formed(full, j)
                ok_min = ok_full if sub is full else type_formed(sub, j)
                report.record(
                    "type formation agrees under minimization",
                    ok_full == ok_min,
                    where,
                )
                if not ok_full:
                    continue
                if sub is full:
                    report.record_vacuous(
                        "term checking agrees under minimization", len(terms)
                    )
                    continue
                for k, m in enumerate(terms):
                    report.record(
                        "term checking agrees under minimization",
                        term_checks(full, k, j) == term_checks(sub, k, j),
                        lambda: f"{where()}, M = {m!r}",
                    )
    return report


# ---------------------------------------------------------------------------
# Transport metatheorem harness.


def verify_transport(
    sig: Signature,
    rel: SubordRel,
    source: ContextSchema,
    target: ContextSchema,
    gamma: str,
    f: Formula,
    bounds: Bounds,
) -> OracleReport:
    """For every enumerated well-formed instance of the target schema,
    compute the pruning witness and re-check its four obligations with the
    independent checkers, then compare bounded validity on both sides."""
    report = OracleReport("theorem transport")
    cert = transport_check(sig, rel, source, target, gamma, f)
    if isinstance(cert, TransportFailure):
        report.refused = f"no certificate: {cert.message}"
        return report
    validity_cache: dict = {}  # formula -> its bounded validity

    def cached_validity(g: Formula) -> Verdict3:
        if g not in validity_cache:
            validity_cache[g] = bounded_validity(sig, g, bounds)
        return validity_cache[g]

    for g_big in enumerate_instances(
        sig, target, bounds.schema_blocks_max, bounds.term_size_max, bounds.pool_nominals
    ):
        if _fails(check_context, sig, LFContext(g_big.bindings)) is not None:
            continue
        g_small = transport_witness(sig, cert, g_big)
        where = lambda: f"G' = {g_big.bindings!r}"
        report.record(
            "witness instantiates the source schema",
            schema_instance(sig, source, g_small),
            where,
        )
        report.record(
            "witness context well-formed",
            _fails(check_context, sig, LFContext(g_small.bindings)) is None,
            where,
        )
        report.record(
            "witness ce-subsumes the instance",
            ce_subsumes(rel, gamma, g_small.bindings, g_big.bindings, f),
            where,
        )
        report.record(
            "witness prunes the instance relative to the source schema",
            prune_ok(rel, source, g_small.bindings, g_big.bindings),
            where,
        )
        v_small = cached_validity(subst_ctx(f, {gamma: g_small}))
        v_big = cached_validity(subst_ctx(f, {gamma: g_big}))
        decided = {VALID, INVALID}
        agree = (
            v_small.value not in decided
            or v_big.value not in decided
            or v_small.value == v_big.value
        )
        report.record(
            "bounded validity agrees on both sides",
            agree,
            lambda: f"{where()}: {v_small.value} vs {v_big.value}",
        )
    return report
