"""Seeded decision stream for the transport-batch workload.

Every decision starts from one of the four fixture transport decisions whose
verdicts are known by hand (acceptance criteria 2, 3 and 8) and is changed
only in ways that keep the verdict:

- consistent renaming of the context variable, the formula's bound
  variables, the schema names and the block variables;
- reordering the blocks of a schema;
- duplicating a source block under renaming;
- padding a target block with bindings whose types the golden subordination
  table shows droppable: not subordinate to any type the formula judges and
  not subordinate to any type a source block declares.

Droppable padding exists for two bases only.  Under the plus formula and the
empty source schema, `tm` and `size` bindings drop (`tm !<= nat`,
`tm !<= plus`, `size !<= nat`, `size !<= plus`).  Under the `of` formula with
the `Cof` source, `nat`, `plus` and `size` bindings drop, since none of them
is subordinate to `tm` or `of`.  The other two bases have no droppable type
and are varied by renaming, reordering and duplication only.

The seed fixes names, positions and order; the sizes come from fixed cycles,
so every seed gives the same mix of work.
"""

from __future__ import annotations

import random
import re
import string

ACCEPT = (0, "transport certificate")
REFUSE = (1, "transport fails at the subsumption side condition")

# Names the generated identifiers must avoid: constants, keywords, and the
# `n<digits>` shape the formula parser reads as a nominal constant.
_RESERVED = {
    "nat", "z", "s", "plus", "plus-z", "plus-s", "tm", "app", "lam", "size",
    "size-app", "size-lam", "tp", "b", "arr", "of", "of-app", "of-lam", "o",
    "Type", "schema", "ctx", "forall", "exists", "tt", "ff",
}
_NOMINAL = re.compile(r"^n[0-9]+$")

_PLUS = (
    "forall {N1} : o. forall {N2} : o.\n"
    "  {{ {G} |- {N1} : nat }} => {{ {G} |- {N2} : nat }} =>\n"
    "    exists {N3} : o. exists {D} : o. {{ {G} |- {D} : plus {N1} {N2} {N3} }}\n"
)
_TM_SIZE = (
    "forall {M} : o. {{ {G} |- {M} : tm }} =>\n"
    "  exists {N} : o. exists {D} : o. {{ {G} |- {D} : size {M} {N} }}\n"
)
_OF_EXISTS = (
    "forall {E} : o. {{ {G} |- {E} : tm }} =>\n"
    "  exists {T} : o. exists {D} : o. {{ {G} |- {D} : of {E} {T} }}\n"
)

_CLOSED_NATS = ("z", "(s z)", "(s (s z))")

# Size cycles: padded bindings per padded target block, and extra copies of
# a source block.
PADS = (16, 24, 32)
COPIES = (4, 6, 8)


class _Names:
    """Fresh identifiers, distinct within one decision."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def fresh(self) -> str:
        while True:
            name = self.rng.choice("ABCDEFGHIJKLMabcdefghijklm") + str(
                self.rng.randrange(1000)
            )
            if name not in self.used and name not in _RESERVED and not _NOMINAL.match(name):
                self.used.add(name)
                return name


def _block(params, decl) -> str:
    ps = ", ".join(f"{v} : {ar}" for v, ar in params)
    ds = ", ".join(f"{y} : {ty}" for y, ty in decl)
    return f"{{{ps}}}({ds})"


def _schema(name: str, blocks) -> str:
    return f"schema {name} := " + " | ".join(blocks) + ".\n"


def _csize_block(names: _Names):
    x, y = names.fresh(), names.fresh()
    return [], [(x, "tm"), (y, f"size {x} (s z)")]


def _cof_block(names: _Names):
    t, x, y = names.fresh(), names.fresh(), names.fresh()
    return [(t, "o")], [(x, "tm"), (y, f"of {x} {t}")]


def _pad(rng: random.Random, names: _Names, decl, count: int, heads) -> list:
    """Interleave `count` droppable bindings into `decl`, keeping its order.
    A padded type only mentions variables bound before it."""
    slots = [True] * len(decl) + [False] * count
    rng.shuffle(slots)
    base = iter(decl)
    out: list = []
    for is_base in slots:
        if is_base:
            out.append(next(base))
            continue
        tms = [v for v, ty in out if ty == "tm"]
        nats = [v for v, ty in out if ty == "nat"] + list(_CLOSED_NATS)
        head = rng.choice(heads)
        if head == "size" and not tms:
            head = heads[0]  # no term to size yet
        if head == "size":
            ty = f"size {rng.choice(tms)} {rng.choice(nats)}"
        elif head == "plus":
            ty = "plus " + " ".join(rng.choice(nats) for _ in range(3))
        else:
            ty = head
        out.append((names.fresh(), ty))
    return out


def _formula(template: str, names: _Names) -> tuple[str, str]:
    """The formula with fresh names for its variables, and the name of its
    context variable."""
    fields = {field for _, field, _, _ in string.Formatter().parse(template) if field}
    ren = {k: names.fresh() for k in sorted(fields)}
    return template.format(**ren), ren["G"]


def _plus_accept(rng, names, size):
    """Criterion 2: Cempty -> Csize under the plus formula is accepted."""
    src, tgt = names.fresh(), names.fresh()
    source = [_block([], [])] * (1 + COPIES[size])
    params, decl = _csize_block(names)
    target = [_block(params, _pad(rng, names, decl, PADS[size], ("tm", "size")))]
    formula, var = _formula(_PLUS, names)
    return "size", src, tgt, source, target, formula, var, ACCEPT


def _tm_size_refuse(rng, names, size):
    """Criterion 3: the tm-sensitive formula is refused at subsumption."""
    src, tgt = names.fresh(), names.fresh()
    source = [_block([], [])] * (1 + COPIES[size])
    target = [_block(*_csize_block(names))]
    formula, var = _formula(_TM_SIZE, names)
    return "size", src, tgt, source, target, formula, var, REFUSE


def _mix_of_accept(rng, names, size):
    """Criterion 8: Cmix -> Cof under the of formula is accepted."""
    src, tgt = names.fresh(), names.fresh()
    source = [_block(*_csize_block(names)), _block(*_cof_block(names))]
    source += [
        _block(*rng.choice((_csize_block, _cof_block))(names))
        for _ in range(COPIES[size])
    ]
    rng.shuffle(source)
    target = [_block(*_cof_block(names))]
    formula, var = _formula(_OF_EXISTS, names)
    return "stlc", src, tgt, source, target, formula, var, ACCEPT


def _of_mix_refuse(rng, names, size):
    """Criterion 8, reversed: Cof -> Cmix is refused at subsumption."""
    src, tgt = names.fresh(), names.fresh()
    source = [_block(*_cof_block(names)) for _ in range(1 + COPIES[size])]
    target = []
    for make in (_csize_block, _cof_block):
        params, decl = make(names)
        decl = _pad(rng, names, decl, PADS[size], ("nat", "plus", "size"))
        target.append(_block(params, decl))
    rng.shuffle(target)
    formula, var = _formula(_OF_EXISTS, names)
    return "stlc", src, tgt, source, target, formula, var, REFUSE


BASES = (_plus_accept, _tm_size_refuse, _mix_of_accept, _of_mix_refuse)


def decisions(seed: int, count: int) -> list[dict]:
    """`count` decisions, an equal share per base and per size, in seeded
    order.  Each gives its schema and formula texts, the transport options,
    and the verdict fixed by construction."""
    rng = random.Random(seed)
    plan = [(i % len(BASES), i // len(BASES) % len(PADS)) for i in range(count)]
    rng.shuffle(plan)
    out = []
    for base, size in plan:
        names = _Names(rng)
        sig, src, tgt, source, target, formula, var, (code, first) = BASES[base](
            rng, names, size
        )
        out.append({
            "base": base,
            "signature": sig,
            "schemas": _schema(src, source) + _schema(tgt, target),
            "formula": formula,
            "source": src,
            "target": tgt,
            "var": var,
            "code": code,
            "first_line": first,
        })
    return out
