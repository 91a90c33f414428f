"""Concrete syntax for .ppcf sources and a round-tripping pretty-printer.

Grammar sketch::

    program  := ("def" NAME "=" expr ";")* expr
    expr     := "let" x "=" expr "in" expr
              | "fun" x ":" tyatom "->" expr
              | "ifz" expr "then" expr "else" expr
              | cmp
    cmp      := add (("=" | "<" | "<=") add)?          -- non-associative
    add      := mul (("+" | "-") mul)*
    mul      := item (("*" | "/") item)*
    item     := ("fix" item) | atom | item atom        -- application juxtaposed
    atom     := NUMBER | "-" NUMBER | NAME | "sample" | "(" expr ")"
              | "chi" "[" iset "]" "(" expr ")"
              | PRIM "(" expr ("," expr)* ")"
              | "#" MACRO ["(" macro-args ")"]
    iset     := piece (("+" | "∪") piece)*               -- or "{}", the empty set
    piece    := ("[" | "(") ENDPOINT "," ENDPOINT ("]" | ")") | "{" ENDPOINT "}"
    tyatom   := "real" | "(" type ")"
    type     := tyatom ("->" type)?

Comments run from ``--`` to end of line.  Macro argument slots are typed
by the macro's signature (term, interval set, or integer), so interval
literals like ``[0,0.5]`` never clash with expression commas.  An
``iset`` literal's extent is found from its bracket tokens and its exact
source text is read by ``intervals.parse_interval_set``, the grammar of
``--intervals``: an ENDPOINT is ``inf``, ``+inf``, ``infinity`` (either
sign) or a number as Python's ``float`` reads it.  A macro expands where it is
read, so the parser returns core terms only.
"""

from __future__ import annotations

from dataclasses import dataclass

from .intervals import IntervalSet, parse_interval_set
from .primitives import CHI_PREFIX, DEFAULT_TABLE, PrimitiveTable, chi_name
from .sugar import MACRO_SIGNATURES, ArityError, expand_macro
from .terms import (
    REAL,
    SAMPLE,
    Abs,
    App,
    Arrow,
    Fix,
    Ifz,
    Let,
    Numeral,
    Prim,
    Term,
    Type,
    Var,
    substitute,
)

KEYWORDS = {
    "let", "in", "fun", "fix", "sample", "ifz", "then", "else",
    "real", "def", "chi", "inf",
}

_SYMBOLS = ("->", "<=", "(", ")", "[", "]", "{", "}", ",", ";", ":",
            "=", "<", "+", "-", "*", "/", "∪", "#")


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int, expected=()):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col
        self.expected = frozenset(expected)


@dataclass(frozen=True)
class Token:
    kind: str  # "number" | "ident" | "keyword" | "symbol" | "eof"
    text: str
    line: int
    col: int
    pos: int  # offset of the first character in the source text


def tokenize(text: str) -> list[Token]:
    tokens = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("--", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == "." and j + 1 < n and text[j + 1].isdigit():
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            tokens.append(Token("number", text[i:j], line, col, i))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            # freshened binder names look like x#3
            if j < n and text[j] == "#" and j + 1 < n and text[j + 1].isdigit():
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            word = text[i:j]
            kind = "keyword" if word in KEYWORDS else "ident"
            tokens.append(Token(kind, word, line, col, i))
            col += j - i
            i = j
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                tokens.append(Token("symbol", sym, line, col, i))
                col += len(sym)
                i += len(sym)
                break
        else:
            raise ParseError(f"unexpected character {c!r}", line, col)
    tokens.append(Token("eof", "", line, col, n))
    return tokens


@dataclass(frozen=True)
class SourceProgram:
    text: str
    definitions: tuple[tuple[str, Term], ...]
    main: Term

    def inlined_main(self) -> Term:
        """Main with every top-level definition substituted in, in order."""
        t = self.main
        for name, body in reversed(self.definitions):
            t = substitute(t, name, body)
        return t


# precedence levels, loosest first; the infix operators are the primitives
# read and printed at the _CMP, _ADD and _MUL levels
_LOW, _CMP, _ADD, _MUL, _APP, _ATOM = range(6)
_INFIX = {"=": ("eq", _CMP), "<": ("lt", _CMP), "<=": ("le", _CMP),
          "+": ("add", _ADD), "-": ("sub", _ADD), "*": ("mul", _MUL), "/": ("div", _MUL)}
_INFIX_OF_PRIM = {op: (symbol, level) for symbol, (op, level) in _INFIX.items()}


class _Parser:
    def __init__(self, text: str, table: PrimitiveTable):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0
        self.table = table

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, expected=()):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col, expected)

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok.text != text or tok.kind == "eof":
            self.fail(f"expected {text!r}, found {tok.text or 'end of input'!r}", {text})
        return self.advance()

    def at(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind != "eof" and tok.text == text

    # -- entrypoints -----------------------------------------------------

    def program(self) -> SourceProgram:
        defs = []
        seen = set()
        while self.at("def"):
            self.advance()
            name = self.binder_name()
            if name in seen:
                self.fail(f"duplicate definition {name!r}")
            seen.add(name)
            self.expect("=")
            body = self.expr()
            self.expect(";")
            defs.append((name, body))
        main = self.expr()
        tok = self.peek()
        if tok.kind != "eof":
            self.fail(f"unexpected trailing input {tok.text!r}")
        return SourceProgram(self.text, tuple(defs), main)

    def binder_name(self) -> str:
        tok = self.peek()
        if tok.kind != "ident":
            self.fail("expected a variable name", {"<name>"})
        if tok.text in self.table:
            self.fail(f"cannot bind primitive name {tok.text!r}")
        return self.advance().text

    # -- types ------------------------------------------------------------

    def type_atom(self) -> Type:
        """Annotation position: `real` or a parenthesized arrow type."""
        tok = self.peek()
        if tok.text == "real":
            self.advance()
            return REAL
        if tok.text == "(":
            self.advance()
            ty = self.type_expr()
            self.expect(")")
            return ty
        self.fail("expected a type", {"real", "("})

    def type_expr(self) -> Type:
        left = self.type_atom()
        if self.at("->"):
            self.advance()
            return Arrow(left, self.type_expr())
        return left

    # -- expressions -----------------------------------------------------

    def expr(self) -> Term:
        tok = self.peek()
        if tok.text == "let":
            self.advance()
            name = self.binder_name()
            self.expect("=")
            bound = self.expr()
            self.expect("in")
            body = self.expr()
            return Let(name, bound, body)
        if tok.text == "fun":
            self.advance()
            name = self.binder_name()
            self.expect(":")
            annot = self.type_atom()
            self.expect("->")
            body = self.expr()
            return Abs(name, annot, body)
        if tok.text == "ifz":
            self.advance()
            scrutinee = self.expr()
            self.expect("then")
            then = self.expr()
            self.expect("else")
            otherwise = self.expr()
            return Ifz(scrutinee, then, otherwise)
        return self.cmp()

    def infix(self, level: int) -> str | None:
        """Consume an infix operator of this level and name its primitive."""
        tok = self.peek()
        entry = _INFIX.get(tok.text) if tok.kind == "symbol" else None
        if entry is None or entry[1] != level:
            return None
        self.advance()
        return entry[0]

    def cmp(self) -> Term:
        left = self.add()
        op = self.infix(_CMP)
        return left if op is None else Prim(op, (left, self.add()))

    def add(self) -> Term:
        t = self.mul()
        while (op := self.infix(_ADD)) is not None:
            t = Prim(op, (t, self.mul()))
        return t

    def mul(self) -> Term:
        t = self.item()
        while (op := self.infix(_MUL)) is not None:
            t = Prim(op, (t, self.item()))
        return t

    def item(self) -> Term:
        t = self.prefix_item()
        while self.starts_atom():
            t = App(t, self.atom())
        return t

    def prefix_item(self) -> Term:
        if self.at("fix"):
            self.advance()
            return Fix(self.prefix_item() if self.at("fix") else self.atom())
        return self.atom()

    def starts_atom(self) -> bool:
        tok = self.peek()
        if tok.kind in ("number", "ident"):
            return True
        if tok.kind == "keyword":
            return tok.text in ("sample", "chi")
        if tok.kind == "symbol":
            return tok.text in ("(", "#")
        return False

    def atom(self) -> Term:
        tok = self.peek()
        if tok.kind == "number":
            return self.numeral(1.0)
        if tok.kind == "symbol" and tok.text == "-":
            self.advance()
            if self.peek().kind != "number":
                self.fail("expected a number after unary '-'", {"<number>"})
            return self.numeral(-1.0)
        if tok.text == "sample":
            self.advance()
            return SAMPLE
        if tok.text == "chi":
            self.advance()
            self.expect("[")
            u = self.interval_set()
            self.expect("]")
            self.expect("(")
            arg = self.expr()
            self.expect(")")
            return Prim(chi_name(u), (arg,))
        if tok.kind == "symbol" and tok.text == "#":
            return self.macro_call(self.advance())
        if tok.kind == "ident":
            name = self.advance().text
            if name in self.table:
                if not self.at("("):
                    self.fail(f"primitive {name!r} requires an argument list")
                self.advance()
                args = [self.expr()]
                while self.at(","):
                    self.advance()
                    args.append(self.expr())
                self.expect(")")
                prim = self.table.lookup(name)
                if len(args) != prim.arity:
                    self.fail(f"primitive {name!r} expects {prim.arity} arguments")
                return Prim(name, tuple(args))
            return Var(name)
        if tok.kind == "symbol" and tok.text == "(":
            self.advance()
            t = self.expr()
            self.expect(")")
            return t
        self.fail(
            f"expected an expression, found {tok.text or 'end of input'!r}",
            {"<number>", "<name>", "sample", "(", "#", "chi"},
        )

    def numeral(self, sign: float) -> Numeral:
        """The number token here, times `sign`: a finite float Python can read."""
        try:  # `1e400` overflows, and `²` is a digit float() does not read
            numeral = Numeral(sign * float(self.peek().text))
        except ValueError as exc:
            self.fail(str(exc))
        self.advance()
        return numeral

    def macro_call(self, hash_tok: Token) -> Term:
        tok = self.peek()
        if tok.kind != "ident" or tok.text not in MACRO_SIGNATURES:
            self.fail(f"unknown macro #{tok.text!r}")
        name = self.advance().text
        kinds, _ = MACRO_SIGNATURES[name]
        args = []
        if kinds:
            self.expect("(")
            for i, kind in enumerate(kinds):
                if i > 0:
                    self.expect(",")
                if kind == "term":
                    args.append(self.expr())
                elif kind == "iset":
                    args.append(self.interval_set())
                elif kind == "int":
                    num = self.peek()
                    if num.kind != "number" or not num.text.isdigit():
                        self.fail("expected an integer literal")
                    try:
                        args.append(int(num.text))
                    except ValueError as exc:
                        self.fail(str(exc))
                    self.advance()
            self.expect(")")
        try:  # the builder checks argument values, e.g. #expectation(0)
            return expand_macro(name, tuple(args))
        except ArityError as exc:
            raise ParseError(str(exc), hash_tok.line, hash_tok.col) from None

    def interval_set(self) -> IntervalSet:
        """An `iset` literal: its bracket tokens mark its extent in the source."""
        first = self.peek()
        while True:
            opener = self.peek()
            if opener.text not in ("[", "(", "{"):
                self.fail("expected an interval piece", {"[", "(", "{"})
            closers = ("}",) if opener.text == "{" else ("]", ")")
            self.advance()
            while self.peek().text not in closers:
                if self.peek().kind == "eof":
                    self.fail(f"expected {' or '.join(map(repr, closers))}", closers)
                self.advance()
            last = self.advance()
            if not (self.at("+") or self.at("∪")):
                break
            self.advance()
        try:
            return parse_interval_set(self.text[first.pos:last.pos + len(last.text)])
        except ValueError as exc:
            raise ParseError(str(exc), first.line, first.col) from None


def parse(text: str, table: PrimitiveTable = DEFAULT_TABLE) -> SourceProgram:
    return _Parser(text, table).program()


def parse_term(text: str, table: PrimitiveTable = DEFAULT_TABLE) -> Term:
    """Parse a bare expression (no definitions) into a core term."""
    prog = parse(text, table)
    if prog.definitions:
        raise ParseError("expected a bare expression, found definitions", 1, 1)
    return prog.main


# -- pretty-printer --------------------------------------------------------


def _fmt_float(v: float) -> str:
    s = repr(v)
    return s[:-2] if s.endswith(".0") else s


def format_type(ty: Type) -> str:
    if isinstance(ty, Arrow):
        dom = format_type(ty.domain)
        if isinstance(ty.domain, Arrow):
            dom = f"({dom})"
        return f"{dom} -> {format_type(ty.codomain)}"
    return "real"


def _type_atom(ty: Type) -> str:
    s = format_type(ty)
    return f"({s})" if isinstance(ty, Arrow) else s


def pretty(t: Term) -> str:
    """Minimally parenthesized text; parse(pretty(t)) is alpha-equal to t."""
    return _pp(t, _LOW)


def _paren_if(s: str, needed: bool) -> str:
    return f"({s})" if needed else s


def _pp(t: Term, prec: int) -> str:
    match t:
        case Var(name):
            return name
        case Numeral(value):
            s = _fmt_float(value)
            return f"({s})" if s.startswith("-") else s
        case Abs(name, annot, body):
            s = f"fun {name} : {_type_atom(annot)} -> {_pp(body, _LOW)}"
            return _paren_if(s, prec > _LOW)
        case Let(name, bound, body):
            s = f"let {name} = {_pp(bound, _LOW)} in {_pp(body, _LOW)}"
            return _paren_if(s, prec > _LOW)
        case Ifz(scrutinee, then, otherwise):
            s = (
                f"ifz {_pp(scrutinee, _LOW)} then {_pp(then, _LOW)}"
                f" else {_pp(otherwise, _LOW)}"
            )
            return _paren_if(s, prec > _LOW)
        case App(fun, arg):
            s = f"{_pp(fun, _APP)} {_pp(arg, _ATOM)}"
            return _paren_if(s, prec > _APP)
        case Fix(body):
            s = f"fix {_pp(body, _ATOM)}"
            return _paren_if(s, prec > _APP)
        case Prim(op, args):
            return _pp_prim(op, args, prec)
    if t is SAMPLE:
        return "sample"
    raise TypeError(f"cannot pretty-print {t!r}")


def _pp_prim(op: str, args, prec: int) -> str:
    if op.startswith(CHI_PREFIX):
        inner = op[len(CHI_PREFIX):-1]
        return f"chi[{inner}]({_pp(args[0], _LOW)})"
    if op in _INFIX_OF_PRIM:
        symbol, level = _INFIX_OF_PRIM[op]
        left_prec = level if level != _CMP else level + 1
        s = f"{_pp(args[0], left_prec)} {symbol} {_pp(args[1], level + 1)}"
        return _paren_if(s, prec > level)
    inner = ", ".join(_pp(a, _LOW) for a in args)
    return f"{op}({inner})"
