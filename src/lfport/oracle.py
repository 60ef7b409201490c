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
Against an atomic type, the term judgement is the term's synthesis and a
comparison of the synthesized type with the atom's: the synthesis is
memoised by the pool terms the atom's context and term refer to, and only
the comparison runs per evaluation.  A context quantifier binds its
instance in the environment the same way: an atom headed by its variable
puts the instance's bindings in front of its own, and keeps its judgements
with the instance.  These memos live for one `bounded_validity` call and
are cleared when it returns.

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

The minimization harness keeps its memos per enumerated context: the
minimization of the context, and its well-formedness, per head constant
(minimization reads nothing else of a type), and, under each sub-context
(the context or a minimization of it), each type argument's judgement per
kind domain and each candidate term's synthesis.  Type formation itself is
`check_type`, with the argument judgement memoised.
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
    formula_key,
    subst_ctx,
)
from .lf import (
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
    this call only, by the pool indices of the quantifiers they refer to,
    and so is its term's synthesis, by those its context and term refer to;
    against an atomic type only the comparison of the synthesized type with
    the atom's runs per evaluation.

    Each evaluation also returns a read set: a bit mask with bit `i` set
    when the verdict's value depended on the pool term of the `i`-th
    enclosing term quantifier, innermost first, as dangling indices count.
    An atom reads the indices its deciding judgement refers to (its
    context's, its type's, or its type's and term's), a connective what the
    children it evaluated read, and a quantifier what its bodies read, less
    its own bit 0 for a term quantifier.  A term quantifier stops at the
    first body that does not read bit 0.
    """
    ranges: dict = {}  # arity -> pool terms, schema -> instances
    # Per-node memos, id(node) -> (node, ...).  An atom headed by a context
    # variable keeps its judgements in its instance's dict, dropped with it.
    memo: dict = {}

    def choices(g, env):
        """(pool term or instance, the environment its body is evaluated
        in) for a quantifier, lazily."""
        inst, slots, ctxs = env
        over_ctx = isinstance(g, ForallCtx)
        domain = g.schema if over_ctx else g.arity
        chosen = ranges.get(domain)
        if chosen is None:
            sizes = (bounds.term_size_max, bounds.pool_nominals)
            chosen = ranges[domain] = (
                enumerate_instances(sig, domain, bounds.schema_blocks_max, *sizes)
                if over_ctx else term_pool(sig, domain, *sizes)
            )
        if over_ctx:
            own = _bound_nominals(g.body)
            for instance in chosen:
                # as putting the instance in for the variable would raise
                if not own.isdisjoint(n for n, _ in instance.bindings):
                    raise ValueError("context expression binds a nominal twice")
                yield instance, (inst, slots, ((instance, {}),) + ctxs)
            return
        for i, t in enumerate(chosen):
            # Memo keys name each pool term by its arity and pool index:
            # one atom may sit under binders of another arity elsewhere.
            yield t, (((t, g.arity),) + inst, ((g.arity, i),) + slots, ctxs)

    def holds(g, env):
        """The first failing judgement of an atom, or None if they hold, and
        the read set of the judgement that decided it.  The memos keep trace
        lines: an LFError holds the frames of what it wraps."""
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
            in_synth = tuple(in_ctx | in_term)
            rec = memo[id(g)] = (g, tuple(in_ctx), tuple(in_ty), in_synth, reads, ({}, {}, {}))
        _, in_ctx, in_ty, in_synth, reads, memos = rec
        inst, slots, ctxs = env
        front = ()
        if g.ctx.head is not None:  # its context starts with the instance
            instance, nodes = ctxs[g.ctx.head.index]
            front, memos = instance.bindings, nodes.setdefault(id(g), ({}, {}, {}))
        ctx_memo, ty_memo, synth_memo = memos
        key = tuple(slots[i] for i in in_ctx)
        hit = ctx_memo.get(key)
        if hit is None:
            lctx = LFContext(front + tuple((n, _subst(t, {}, 0, inst)) for n, t in g.ctx.bindings))
            hit = ctx_memo[key] = (lctx, _line(_fails(check_context, sig, lctx)))
        lctx, failure = hit
        if failure is not None:
            return failure, reads[0]
        key = tuple(slots[i] for i in in_ty)
        hit = ty_memo.get(key)
        if hit is None:
            ty = _subst(g.ty, {}, 0, inst)
            hit = ty_memo[key] = (ty, _line(_fails(check_type, sig, lctx, ty)))
        ty, failure = hit
        if failure is not None:
            return failure, reads[1]
        if isinstance(ty, PiType):
            term = _subst(g.term, {}, 0, inst)
            return _fails(check_term, sig, lctx, term, ty), reads[2]
        # against an atomic type, the term judgement is the term's synthesis,
        # which does not read the type, and a comparison
        key = tuple(slots[i] for i in in_synth)
        hit = synth_memo.get(key)
        if hit is None:
            term = _subst(g.term, {}, 0, inst)
            hit = synth_memo[key] = (term, _fails(synth_term, sig, lctx, term))
        term, have = hit
        if isinstance(have, LFError):
            return have, reads[2]
        return _fails(_compare, term, have, ty, lctx), reads[2]

    def ev(g: Formula, env: tuple) -> tuple[Verdict3, int]:
        # env: three tuples, innermost first: the (term, arity) of each
        # enclosing term quantifier, which `_subst` puts in for an atom's
        # dangling indices; the memo slot of each; and the (instance, memo
        # dict) of each enclosing context quantifier.  Returns the verdict
        # and its read set.
        match g:
            case Holds(ctx):
                if ctx.head is not None and (
                    isinstance(ctx.head, str) or ctx.head.index >= len(env[2])
                ):
                    raise ValueError("bounded_validity needs a closed formula")
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
                reads = 0
                for choice, inner in choices(g, env):
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
        verdict, _ = ev(f, ((), (), ()))
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


def _fails(check, *args):
    """The LFError that `check(*args)` raises, or else what it returns: None
    for a checker, a type for `synth_term`."""
    try:
        return check(*args)
    except LFError as err:
        return err.with_traceback(None)  # a trace may keep it, not the frames


def _line(x):
    """A trace line, formatted only here: a failing term judgement, or the
    line of a quantifier with its hint and its pool term or instance."""
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
    enumeration ends after `TOTAL_CAP` contexts.  Deterministic."""

    def breadth_first():
        level = [LFContext()]
        yield level[0]
        for _ in range(max_bindings):
            level, parents = [], level
            for ctx in parents:
                # every binder is a nominal this generator chose
                nom = fresh_nominal(O, (b for b, _ in ctx.bindings))
                well_formed = (
                    ty for ty in candidate_types(sig, ctx, size_max)
                    if _fails(check_type, sig, ctx, ty) is None
                )
                for ty in itertools.islice(well_formed, PER_STEP):
                    level.append(ctx.extend(nom, ty))
                    yield level[-1]

    return itertools.islice(breadth_first(), TOTAL_CAP)


class _SubContext:
    """A context the minimization harness judges in, the enumerated one or
    a minimization of it, with the memos of its judgements."""

    def __init__(self, sig: Signature, g: LFContext, terms: tuple, well_formed: bool):
        self.sig, self.g, self.terms, self.well_formed = sig, g, terms, well_formed
        self.judged: dict = {}  # (id(argument), kind domain) -> (argument, None or LFError)
        self.synthesized: list = [None] * len(terms)  # pool index -> type or LFError

    def check_arg(self, sig, g, local, arg, domain):
        """`_check_term`, memoised.  A candidate type is atomic, so its
        arguments are judged in `g` itself.  They are pool terms, shared by
        every candidate type of the context, so the memo keys one by its
        identity and keeps it alive; a dependent kind instantiates a fresh
        domain per type, so the domain is keyed by value."""
        assert not local
        key = (id(arg), domain)
        hit = self.judged.get(key)
        if hit is None:
            hit = self.judged[key] = (arg, _fails(_check_term, sig, g, local, arg, domain))
        if hit[1] is not None:
            # a fresh exception: raising the stored one would keep this
            # frame, and so the memo, in its traceback
            raise LFError("{}", hit[1])

    def type_formed(self, ty: AtomicType) -> bool:
        return _fails(check_type, self.sig, self.g, ty, self.check_arg) is None

    def term_checks(self, i: int, ty: AtomicType) -> bool:
        """Whether pool term `i` checks against `ty`: against an atomic
        type, that is the term's synthesis, which does not read the type,
        and a comparison."""
        have = self.synthesized[i]
        if have is None:
            have = self.synthesized[i] = _fails(synth_term, self.sig, self.g, self.terms[i])
        if isinstance(have, LFError):
            return False
        return _fails(_compare, self.terms[i], have, ty, self.g) is None


def verify_minimization(
    sig: Signature, rel: SubordRel, bounds: Bounds
) -> OracleReport:
    """Re-check, over the bounded enumeration, that context minimization
    preserves context well-formedness and the type and term checking
    verdicts.  Pairs where minimization drops nothing hold by identity and
    are recorded without re-running the checkers.

    Minimization reads only a type's head constant, so each enumerated
    context is minimized, and the result checked, once per head constant.
    Under each sub-context (the enumerated context or a minimization of
    it), each argument of a candidate type is judged once per kind domain,
    and each pool term synthesized once and its type compared with each
    candidate type.  These memos are dropped with their context."""
    report = OracleReport("context minimization")
    size = bounds.term_size_max
    for ctx in enumerate_lf_contexts(sig, bounds.schema_blocks_max, size):
        terms = term_pool(sig, O, size, extra_heads=_nominal_heads(ctx))[:24]
        full = _SubContext(sig, ctx, terms, True)
        subs = {ctx: full}  # each sub-context once, however many heads give it
        by_head: dict = {}  # head constant -> its sub-context
        for ty in candidate_types(sig, ctx, size, cap=80):
            assert isinstance(ty, AtomicType)
            sub = by_head.get(ty.head)
            if sub is None:
                reduced = minimize(rel, ctx, ty)
                sub = subs.get(reduced)
                if sub is None:
                    well_formed = _fails(check_context, sig, reduced) is None
                    sub = subs[reduced] = _SubContext(sig, reduced, terms, well_formed)
                by_head[ty.head] = sub
            where = lambda: f"G = {ctx.bindings!r}, A = {ty!r}"
            report.record("minimized context well-formed", sub.well_formed, where)
            ok_full = full.type_formed(ty)
            ok_min = ok_full if sub is full else sub.type_formed(ty)
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
            for i, m in enumerate(terms):
                report.record(
                    "term checking agrees under minimization",
                    full.term_checks(i, ty) == sub.term_checks(i, ty),
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
    validity_cache: dict = {}

    def cached_validity(g: Formula) -> Verdict3:
        key = formula_key(g)
        if key not in validity_cache:
            validity_cache[key] = bounded_validity(sig, g, bounds)
        return validity_cache[key]

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
