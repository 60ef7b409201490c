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
to an environment of pool indices and applies it per atom, so an atom's
context and type judgements are checked once per combination of the pool
terms free in them, not once per atom; only the term judgement runs per
atom.  These memos live for one `bounded_validity` call and are cleared
when it returns.  Where substituting would rename a quantifier, or reach
into a context instance, the evaluator substitutes eagerly as the plain
semantics does, so verdicts and traces are exactly those of the plain
substitution evaluator (a differential test in tests/test_oracle.py holds
the two together).  LF binders are indices, which no substitution renames.
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
    _subformulas,
    formula_key,
    subst_ctx,
    subst_terms,
)
from .lf import (
    AtomicType,
    LFContext,
    LFError,
    Nominal,
    O,
    Signature,
    TypeDecl,
    apply_subst,
    check_context,
    check_term,
    check_type,
    erase,
    free_vars,
    kind_arg_arities,
)
from .schema import (
    ContextSchema,
    _compositions,
    enumerate_instances,
    min_term_size,
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
    substitutes each pool term into the whole quantifier body.  Here the
    substitution is deferred: the quantifier binds its variable to the pool
    term in an environment, and each atom applies the environment to its
    own parts.  An atom's context and type judgements are memoised, for
    this call only, by the pool indices of the variables free in them, so
    only the term judgement runs per atom.  Where substituting would rename
    a quantifier (one named like a constant of the pool term, say), the
    body is substituted eagerly instead, so the trace keeps the renamed
    names.
    """
    pools: dict = {}  # arity -> (terms, their free names)
    # Per-node data and memos live in a dict id(node) -> (node, ...): this
    # one for the formula, and a fresh one for each eagerly substituted or
    # context-instantiated body, dropped with it.
    memo: dict = {}

    def pool(ar):
        if ar not in pools:
            terms = term_pool(sig, ar, bounds.term_size_max, bounds.pool_nominals)
            pools[ar] = (terms, [free_vars(t) for t in terms])
        return pools[ar]

    def by_term(g, env, nodes):
        """(pool term, verdict of the body) for a term quantifier, lazily."""
        rec = nodes.get(id(g))
        if rec is None:
            # Deferring is exact when substituting the term renames no
            # quantifier of the body.
            terms, fvs = pool(g.arity)
            bound = _binders(g.body)
            defer = [not fv & bound for fv in fvs]
            # Memo keys name each variable with its arity and pool index:
            # one atom may sit under binders of another order or arity
            # elsewhere in the formula.
            slots = [(g.var, g.arity, i) for i in range(len(terms))]
            rec = nodes[id(g)] = (g, terms, defer, slots)
        _, terms, defer, slots = rec
        v, ar, body = g.var, g.arity, g.body
        inner = tuple(e for e in env if e[0] != v)  # v shadows an outer v
        for i, t in enumerate(terms):
            if defer[i]:
                yield t, ev(body, inner + ((v, slots[i], t, ar),), nodes)
            else:
                eager = subst_terms(_eager(body, inner), {v: (t, ar)})
                yield t, ev(eager, (), {})

    def by_instance(g, env):
        """(instance, verdict of the body) for a context quantifier, lazily;
        each instantiated body has per-node memos of its own."""
        for inst in enumerate_instances(
            sig,
            g.schema,
            bounds.schema_blocks_max,
            bounds.term_size_max,
            bounds.pool_nominals,
        ):
            free = set().union(*(free_vars(t) for _, t in inst.bindings))
            if any(e[0] in free for e in env):
                # Substituting an outer term would reach into the instance.
                eager = subst_ctx(_eager(g.body, env), {g.var: inst})
                yield inst, ev(eager, (), {})
            else:
                yield inst, ev(subst_ctx(g.body, {g.var: inst}), env, {})

    def holds(g, env, nodes):
        """The first failing judgement of an atom, or None if they hold.  The
        memos keep trace lines: an LFError holds the frames of what it wraps."""
        rec = nodes.get(id(g))
        if rec is None:
            in_ctx = set().union(*(free_vars(t) for _, t in g.ctx.bindings))
            in_ty = in_ctx | free_vars(g.ty)
            rec = nodes[id(g)] = (g, in_ctx, in_ty, free_vars(g.term), {}, {})
        _, in_ctx, in_ty, in_term, ctx_memo, ty_memo = rec
        key = tuple(e[1] for e in env if e[0] in in_ctx)
        hit = ctx_memo.get(key)
        if hit is None:
            lctx = LFContext(
                tuple((n, _subst(t, env, in_ctx)) for n, t in g.ctx.bindings)
            )
            hit = ctx_memo[key] = (lctx, _line(_fails(check_context, sig, lctx)))
        lctx, failure = hit
        if failure is not None:
            return failure
        key = tuple(e[1] for e in env if e[0] in in_ty)
        hit = ty_memo.get(key)
        if hit is None:
            ty = _subst(g.ty, env, in_ty)
            hit = ty_memo[key] = (ty, _line(_fails(check_type, sig, lctx, ty)))
        ty, failure = hit
        if failure is not None:
            return failure
        return _fails(check_term, sig, lctx, _subst(g.term, env, in_term), ty)

    def ev(g: Formula, env: tuple, nodes: dict) -> Verdict3:
        # env: (var, (var, arity, pool index), term, arity) per enclosing
        # quantifier whose substitution is deferred, outermost first.
        match g:
            case Holds(ctx):
                if ctx.head is not None:
                    raise ValueError("bounded_validity needs a closed formula")
                failure = holds(g, env, nodes)
                if failure is not None:
                    return Verdict3(INVALID, (failure,))
                return Verdict3(VALID)
            case Top():
                return Verdict3(VALID)
            case Bot():
                return Verdict3(INVALID)
            case Conj(l, r):
                vl = ev(l, env, nodes)
                if vl.value == INVALID:
                    return Verdict3(INVALID, vl.trace)
                vr = ev(r, env, nodes)
                if vr.value == INVALID:
                    return Verdict3(INVALID, vr.trace)
                if vl.value == VALID and vr.value == VALID:
                    return Verdict3(VALID)
                return Verdict3(UNKNOWN, vl.trace + vr.trace)
            case Disj(l, r):
                vl = ev(l, env, nodes)
                if vl.value == VALID:
                    return Verdict3(VALID)
                vr = ev(r, env, nodes)
                if vr.value == VALID:
                    return Verdict3(VALID)
                if vl.value == INVALID and vr.value == INVALID:
                    return Verdict3(INVALID, vl.trace + vr.trace)
                return Verdict3(UNKNOWN)
            case Imp(l, r):
                vl = ev(l, env, nodes)
                if vl.value == INVALID:
                    return Verdict3(VALID)
                vr = ev(r, env, nodes)
                if vr.value == VALID:
                    return Verdict3(VALID)
                if vl.value == VALID and vr.value == INVALID:
                    return Verdict3(INVALID, vr.trace)
                return Verdict3(UNKNOWN)
            case ForallTm(v):
                saw_unknown = False
                for t, sub in by_term(g, env, nodes):
                    if sub.value == INVALID:
                        return Verdict3(
                            INVALID, (f"counterexample {v} = {t!r}",) + sub.trace
                        )
                    if sub.value == UNKNOWN:
                        saw_unknown = True
                note = (
                    "universal range undecided within bounds"
                    if saw_unknown
                    else "universal valid at bound; domain is unbounded"
                )
                return Verdict3(UNKNOWN, (note,))
            case ExistsTm(v):
                for t, sub in by_term(g, env, nodes):
                    if sub.value == VALID:
                        return Verdict3(VALID, (f"witness {v} = {t!r}",))
                return Verdict3(UNKNOWN, ("existential pool exhausted",))
            case ForallCtx(v):
                saw_unknown = False
                for g_inst, sub in by_instance(g, env):
                    if sub.value == INVALID:
                        return Verdict3(
                            INVALID,
                            (f"counterexample {v} = {g_inst!r}",) + sub.trace,
                        )
                    if sub.value == UNKNOWN:
                        saw_unknown = True
                note = (
                    "context range undecided within bounds"
                    if saw_unknown
                    else "context quantifier valid at bound; domain is unbounded"
                )
                return Verdict3(UNKNOWN, (note,))
        raise TypeError(f"not a formula: {g!r}")

    try:
        verdict = ev(f, (), memo)
    finally:
        # ev is a closure over itself, so the memos would otherwise outlive
        # the call until the next cycle collection.
        memo.clear()
        pools.clear()
    return Verdict3(verdict.value, tuple(map(_line, verdict.trace)))


def _subst(e, env, free):
    """Apply the deferred substitutions of the variables in `free` to an LF
    expression, one at a time and outermost first, as the eager
    substitution does."""
    for v, _, t, ar in env:
        if v in free:
            e = apply_subst(e, {v: (t, ar)})
    return e


def _eager(f: Formula, env) -> Formula:
    """Apply every deferred substitution to a formula body."""
    for v, _, t, ar in env:
        f = subst_terms(f, {v: (t, ar)})
    return f


def _fails(check, *args) -> LFError | None:
    try:
        check(*args)
        return None
    except LFError as err:
        return err.with_traceback(None)  # a trace may keep it, not the frames


def _line(failure):
    """A trace line; a failing term judgement is formatted only here."""
    return f"judgement fails: {failure}" if isinstance(failure, LFError) else failure


def _binders(f: Formula) -> set[str]:
    """Every name a term quantifier binds somewhere in the formula."""
    return {g.var for g in _subformulas(f) if isinstance(g, (ForallTm, ExistsTm))}


# ---------------------------------------------------------------------------
# Bounded-context enumeration used by the minimization harness.


def _ok(thunk) -> bool:
    try:
        thunk()
        return True
    except LFError:
        return False


def candidate_types(sig, ctx: LFContext, size_max: int, cap: int | None = None):
    """Atomic types over the signature's type constants with spine terms
    from the bounded pool (context nominals usable as heads).  Arity-correct
    but not necessarily well-formed; ordered by constant then size."""
    extra = tuple(
        (binder, erase(ty))
        for binder, ty in ctx.bindings
        if isinstance(binder, Nominal)
    )
    out = []
    for d in sig.decls:
        if not isinstance(d, TypeDecl):
            continue
        arg_ars = kind_arg_arities(d.kind)
        if not arg_ars:
            out.append(AtomicType(d.name))
            continue
        mins = [min_term_size(a) for a in arg_ars]
        for total in range(sum(mins), size_max):
            for split in _compositions(total, mins):
                pools = [
                    term_pool_exact(sig, ar, s, extra_heads=extra)
                    for ar, s in zip(arg_ars, split)
                ]
                for combo in itertools.product(*pools):
                    out.append(AtomicType(d.name, combo))
                    if cap is not None and len(out) >= cap:
                        return out
    return out


def enumerate_lf_contexts(
    sig,
    max_bindings: int,
    size_max: int,
    per_step: int = 8,
    total_cap: int = 400,
):
    """Well-formed LF contexts built by repeatedly extending with a
    well-formed candidate type; breadth-first, deterministic, capped."""
    out = [LFContext()]
    frontier = [LFContext()]
    for _ in range(max_bindings):
        nxt = []
        for ctx in frontier:
            used = [
                b.index
                for b, _ in ctx.bindings
                if isinstance(b, Nominal) and b.arity == O
            ]
            step = 0
            for ty in candidate_types(sig, ctx, size_max):
                if step >= per_step:
                    break
                if not _ok(lambda: check_type(sig, ctx, ty)):
                    continue
                nom = Nominal(O, max(used, default=0) + 1)
                nxt.append(ctx.extend(nom, ty))
                step += 1
                if len(out) + len(nxt) >= total_cap:
                    break
            if len(out) + len(nxt) >= total_cap:
                break
        out.extend(nxt)
        frontier = nxt
        if len(out) >= total_cap:
            break
    return out[:total_cap]


def verify_minimization(
    sig: Signature, rel: SubordRel, bounds: Bounds
) -> OracleReport:
    """Re-check, over the bounded enumeration, that context minimization
    preserves context well-formedness and the type and term checking
    verdicts.  Pairs where minimization drops nothing hold by identity and
    are recorded without re-running the checkers."""
    report = OracleReport("context minimization")
    size = bounds.term_size_max
    for ctx in enumerate_lf_contexts(sig, bounds.schema_blocks_max, size):
        extra = tuple(
            (b, erase(t)) for b, t in ctx.bindings if isinstance(b, Nominal)
        )
        terms = term_pool(sig, O, size, extra_heads=extra)[:24]
        for ty in candidate_types(sig, ctx, size, cap=80):
            reduced = minimize(rel, ctx, ty)
            where = lambda: f"G = {ctx.bindings!r}, A = {ty!r}"
            identity = reduced == ctx
            report.record(
                "minimized context well-formed",
                identity or _ok(lambda: check_context(sig, reduced)),
                where,
            )
            ok_full = _ok(lambda: check_type(sig, ctx, ty))
            ok_min = ok_full if identity else _ok(lambda: check_type(sig, reduced, ty))
            report.record(
                "type formation agrees under minimization",
                ok_full == ok_min,
                where,
            )
            if not ok_full:
                continue
            if identity:
                report.record_vacuous(
                    "term checking agrees under minimization", len(terms)
                )
                continue
            for m in terms:
                t_full = _ok(lambda: check_term(sig, ctx, m, ty))
                t_min = _ok(lambda: check_term(sig, reduced, m, ty))
                report.record(
                    "term checking agrees under minimization",
                    t_full == t_min,
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
    instances = [
        g
        for g in enumerate_instances(
            sig,
            target,
            bounds.schema_blocks_max,
            bounds.term_size_max,
            bounds.pool_nominals,
        )
        if _ok(lambda: check_context(sig, LFContext(g.bindings)))
    ]
    validity_cache: dict = {}

    def cached_validity(g: Formula) -> Verdict3:
        key = formula_key(g)
        if key not in validity_cache:
            validity_cache[key] = bounded_validity(sig, g, bounds)
        return validity_cache[key]

    for g_big in instances:
        g_small = transport_witness(sig, cert, g_big)
        where = lambda: f"G' = {g_big.bindings!r}"
        report.record(
            "witness instantiates the source schema",
            schema_instance(sig, source, g_small),
            where,
        )
        report.record(
            "witness context well-formed",
            _ok(lambda: check_context(sig, LFContext(g_small.bindings))),
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
