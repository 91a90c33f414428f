"""Deterministic first-order bodies as straight-line code.

``lower`` turns such a term once into a code list.  The first slots are
the inputs, (None, None); each later slot is (primitive, argument slots)
or (None, constant).  A unit-Dirac free variable is a constant, a ``let``
names its bound's slot, and an ``ifz`` is ``SELECT`` over both branches'
slots: every primitive is total and pure, so the value is the same.
Only this module reads code lists.  ``compile_code`` turns one into a
generated function that computes each slot once; ``let`` pushforwards
and ``ppcf stability --fn`` run it.  ``preimage`` pulls a set back along
the path from the value to the last input, with the other slots from the
same compile step and ranges carried forward from the input's range.
"""

from __future__ import annotations

from .measure import ConcreteMeasure
from .primitives import DEFAULT_TABLE, Primitive, PrimitiveTable, range_image
from .terms import Ifz, Let, Numeral, Prim, Term, Var

SELECT = Primitive("ifz", 3, lambda c, then, otherwise: then if c == 0.0 else otherwise)


def compile_deterministic(t: Term, inputs: tuple[str, ...], table: PrimitiveTable = DEFAULT_TABLE):
    """Compile a deterministic first-order ground term to a float function.

    The function takes one float per name in `inputs` and gives the same
    value, bit for bit, as reducing the term with those numerals
    substituted.  Returns None on a free variable outside `inputs`,
    ``sample``, ``fun``, application or ``fix``.  A ``let`` pushforward
    runs the same code, and ``ppcf stability --fn`` checks it.
    """
    code, out = lower(t, inputs, {}, table)
    return None if out is None else compile_code(code, len(inputs), out)


def lower(t: Term, inputs: tuple[str, ...], env: dict, table: PrimitiveTable):
    """Lower `t` to straight-line code: (code, slot of the value or None)."""
    code = [(None, None)] * len(inputs)

    def lower(t: Term, scope: dict):
        match t:
            case Numeral(value):
                code.append((None, value))
                return len(code) - 1
            case Var(name) if name in scope:
                return scope[name]
            case Var(name):  # a unit Dirac in `env` is a constant
                m = env.get(name)
                if (isinstance(m, ConcreteMeasure) and not m.lebesgue
                        and len(m.atoms) == 1 and m.atoms[0].weight == 1.0):
                    return lower(Numeral(m.atoms[0].location), scope)
                return None
            case Prim(op, args):
                prim = table.lookup(op)
            case Ifz(scrutinee, then, otherwise):
                prim, args = SELECT, (scrutinee, then, otherwise)
            case Let(name, bound, body):
                slot = lower(bound, scope)
                return None if slot is None else lower(body, {**scope, name: slot})
            case _:
                return None
        slots = tuple(lower(a, scope) for a in args)
        if None in slots:
            return None
        code.append((prim, slots))
        return len(code) - 1

    return code, lower(t, {name: i for i, name in enumerate(inputs)})


def compile_code(code: list, n: int, outs, skip=()):
    """A function of the `n` inputs computing every slot of `code` outside
    `skip` once, in code order, and returning slot `outs` or the tuple of
    slots `outs`.  Constants and primitive functions enter through its
    namespace: the source names only ``s<i>`` and ``c<i>``."""
    namespace = {}
    lines = [f"def body({', '.join(f's{i}' for i in range(n))}):"]
    for i, (prim, arg) in enumerate(code):
        if i >= n and i not in skip:
            namespace[f"c{i}"] = arg if prim is None else prim.fn
            call = "" if prim is None else f"({', '.join(f's{j}' for j in arg)})"
            lines.append(f"    s{i} = c{i}{call}")
    result = f"s{outs}" if isinstance(outs, int) else "".join(f"s{j}, " for j in outs)
    lines.append(f"    return ({result})")
    exec("\n".join(lines), namespace)
    return namespace["body"]


def preimage(code: list, out: int, n: int):
    """The preimage ``(slot, args, lo, hi, U)`` of slot `out` on the last
    input, or None unless that input reaches `out` through one path of
    primitives with preimages, each using it through one argument (a
    second use, an ``ifz`` or a primitive without one gives None)."""
    reached = {n - 1}
    for i, (prim, args) in enumerate(code):
        if prim is not None and not reached.isdisjoint(args):
            reached.add(i)
    steps = []
    while out != n - 1:
        if out not in reached:
            return None
        prim, args = code[out]
        on = [p for p, j in enumerate(args) if j in reached]
        if len(on) != 1 or prim.preimage is None:
            return None
        steps.append((prim, on[0], args))
        out = args[on[0]]
    siblings = tuple({j: None for _, _, args in steps for j in args if j not in reached})
    values = compile_code(code, n, siblings, reached)

    def pull_back(i, fixed, lo, hi, target):
        at = dict(zip(siblings, values(*fixed)))  # no value on the path
        frames = []
        for prim, slot, arg_slots in reversed(steps):  # forward, from the input
            args = [at.get(j) for j in arg_slots]
            frames.append((prim, slot, args, lo, hi))
            lo, hi = range_image(prim, slot, args, lo, hi)
        for prim, slot, args, lo, hi in reversed(frames):  # backward, from the result
            if (target := prim.preimage(slot, args, lo, hi, target)) is None:
                return None
        return target

    return pull_back
