"""Straight-line code: deterministic first-order bodies and recorded runs.

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

A slot may also be (SAMPLE, ()): a draw from the run's stream.  Such code
lists are the recorded paths of ``reduction.collect_outcomes``, laid out
as a tree of nodes ``[events, end]``.  ``events`` lists ``(slot, step)``:
the slot is computed by the node's ``step``-th contraction.  ``end`` is
the node's last contraction count and what follows it:

- ``("value", step, slot)``: the run's value;
- ``["guard", step, slot, then, otherwise]``: an ``ifz`` on the slot,
  each branch a node, or None where no run has taken it yet;
- ``("jump", step, node)``: go on at `node`, which starts at a ``fix``
  (a back edge when that node is already on the way here);
- ``("open", step)``: not recorded past here, and a run needs `step`
  contractions to get here.

``compile_tree`` turns a tree into one function that loops on its back
edges.  Each distinct source text compiles once.
"""

from __future__ import annotations

import functools

from .measure import ConcreteMeasure
from .primitives import DEFAULT_TABLE, MAXREAL, Primitive, PrimitiveTable, range_image
from .terms import Ifz, Let, Numeral, Prim, Term, Var

SELECT = Primitive("ifz", 3, lambda c, then, otherwise: then if c == 0.0 else otherwise)
SAMPLE = "sample"


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


def _assign(code: list, i: int, namespace: dict) -> str:
    """The source line computing slot `i`: its constant or its primitive
    enters `namespace` as ``c<i>``, and a draw calls ``uniform``."""
    prim, arg = code[i]
    if prim is SAMPLE:
        return f"s{i} = uniform()"
    namespace[f"c{i}"] = arg if prim is None else prim.fn
    call = "" if prim is None else f"({', '.join(f's{j}' for j in arg)})"
    return f"s{i} = c{i}{call}"


@functools.lru_cache(maxsize=256)
def _compiled(source: str):
    """`source` as a code object: constants and primitives enter through
    the namespace it runs in, so same-shaped code shares one."""
    return compile(source, "<string>", "exec")


def compile_code(code: list, n: int, outs, skip=()):
    """A function of the `n` inputs computing every slot of `code` outside
    `skip` once, in code order, and returning slot `outs` or the tuple of
    slots `outs`.  Constants and primitive functions enter through its
    namespace: the source names only ``s<i>`` and ``c<i>``."""
    namespace = {}
    lines = [f"def body({', '.join(f's{i}' for i in range(n))}):"]
    lines += [f"    {_assign(code, i, namespace)}" for i in range(n, len(code)) if i not in skip]
    result = f"s{outs}" if isinstance(outs, int) else "".join(f"s{j}, " for j in outs)
    lines.append(f"    return ({result})")
    exec(_compiled("\n".join(lines)), namespace)
    return namespace["body"]


def _ends(node) -> tuple:
    """The nodes a node's end goes on to (None for a branch not taken)."""
    end = node[1]
    return end[3:] if end[0] == "guard" else end[2:] if end[0] == "jump" else ()


def compile_tree(code: list, root: list, budget: int):
    """(body, logs): one function ``body(uniform, d, r)`` that runs a run
    down the tree `root` over `code`, drawing through ``uniform``.

    It returns ``(value, steps)`` at a value, None when the next
    contraction would pass `budget`, and False where the tree does not go
    on (a branch not taken yet, or an open end).  A node whose contractions
    fit in the steps left runs unchecked; otherwise a checked copy makes
    the draws and calls that fit and returns None.  Until the first block
    that a loop enters, the steps left are known here and no copy is
    tested at run time.  A primitive result outside +-MAXREAL raises the
    machine's ``Numeral`` error, and a value from a primitive goes through
    ``float`` as a ``Numeral`` does.  `logs` is True while the tree can
    return False: the function then hands every draw to ``d`` and every
    primitive result to ``r``, so the run can go on elsewhere without
    drawing or calling anything twice.

    The root and every node with two ways in is a block of one
    ``while True`` loop, chosen by ``pc``; any other node is inlined where
    its one way in is.  At a guard the smaller branch is nested, so blocks
    nest only as deep as the log of the tree's size.
    """
    namespace = {"Numeral": Numeral}
    ways, order = {id(root): 1}, [root]
    for node in order:  # every node once, breadth first
        for child in _ends(node):
            if child is not None:
                ways[id(child)] = ways.get(id(child), 0) + 1
                if ways[id(child)] == 1:
                    order.append(child)
    labels = {id(node): j for j, node in enumerate(n for n in order if ways[id(n)] > 1 or n is root)}
    sizes = {}
    for node in reversed(order):  # children first, except on a back edge
        sizes[id(node)] = 1 + sum(sizes.get(id(c), 0) for c in _ends(node)
                                  if c is not None and id(c) not in labels)
    lines = ["def body(uniform, d, r):"]
    lines += [f"    {_assign(code, i, namespace)}" for i, (p, _) in enumerate(code) if p is None]
    lines += [f"    hi = {MAXREAL!r}", "    lo = -hi", f"    left = {budget}", "    pc = 0",
              "    while True:"]

    def events(node, pad, upto=None, check=False):
        """The node's events, those within `upto` steps if given; `check`
        tests the steps left before each.  Log lines are tuples, dropped
        unless the function can return False."""
        for i, step in node[0]:
            if upto is not None and step > upto:
                return
            if check:
                lines.append(f"{pad}if left < {step}: return None")
            lines.append(pad + _assign(code, i, namespace))
            if code[i][0] is not SAMPLE:
                lines.append(f"{pad}if not lo <= s{i} <= hi: Numeral(s{i})")
            lines.append((f"{pad}{'d' if code[i][0] is SAMPLE else 'r'}(s{i})",))

    def goto(node, pad, left):
        """`node` to inline here, or None after writing the way out."""
        if node is None:
            lines.append(f"{pad}return False")
        elif id(node) in labels:
            if left is not None:
                lines.append(f"{pad}left = {left}")
            lines.extend((f"{pad}pc = {labels[id(node)]}", f"{pad}continue"))
        else:
            return node
        return None

    def go(node, depth, left):
        """The code from `node` on, `depth` blocks in, with `left` steps
        left, or None where the variable ``left`` holds them."""
        while node is not None:
            pad = "    " * depth
            end = node[1]
            if left is not None and left < end[1]:
                events(node, pad, upto=left)
                lines.append(f"{pad}return None")
                return
            if left is not None:
                left -= end[1]
            elif end[1]:
                lines.append(f"{pad}if left < {end[1]}:")
                events(node, pad + "    ", check=True)
                lines.extend((f"{pad}    return None", f"{pad}left -= {end[1]}"))
            events(node, pad)
            steps = f"{budget} - left" if left is None else budget - left
            if end[0] == "value":
                prim = code[end[2]][0]
                value = f"s{end[2]}" if prim is None or prim is SAMPLE else f"float(s{end[2]})"
                lines.append(f"{pad}return {value}, {steps}")
                return
            if end[0] == "open":
                lines.append(f"{pad}return False")
                return
            if end[0] == "jump":
                node = goto(end[2], pad, left)
                continue
            _, _, slot, then, otherwise = end
            size = [1 if c is None or id(c) in labels else sizes[id(c)] for c in (then, otherwise)]
            nested, rest = (then, otherwise) if size[0] <= size[1] else (otherwise, then)
            lines.append(f"{pad}if s{slot} {'==' if nested is then else '!='} 0.0:")
            go(goto(nested, pad + "    ", left), depth + 1, left)
            node = goto(rest, pad, left)

    blocks = [node for node in order if id(node) in labels]
    for j, node in enumerate(reversed(blocks)):
        if len(blocks) > 1:
            head = "else:" if node is root else f"{'elif' if j else 'if'} pc == {labels[id(node)]}:"
            lines.append(f"        {head}")
        go(node, 3 if len(blocks) > 1 else 2, budget if node is root and ways[id(root)] == 1 else None)
    logs = any(line.endswith("return False") for line in lines if type(line) is str)
    exec(_compiled("\n".join(line if type(line) is str else line[0] for line in lines
                              if logs or type(line) is str)), namespace)
    return namespace["body"], logs


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
