"""Typing judgment for PPCF terms."""

from __future__ import annotations

from .primitives import DEFAULT_TABLE, PrimitiveTable, UnknownPrimitive
from .terms import (
    REAL,
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
    _SampleTerm,
)


class TypeCheckError(Exception):
    def __init__(self, message: str, term: Term):
        super().__init__(message)
        self.term = term


def typecheck(ctx: dict[str, Type], t: Term, table: PrimitiveTable = DEFAULT_TABLE) -> Type:
    """Return the unique type of t in context ctx, or raise TypeCheckError."""
    match t:
        case Var(name):
            ty = ctx.get(name)
            if ty is None:
                raise TypeCheckError(f"unbound variable {name!r}", t)
            return ty
        case Abs(name, annot, body):
            body_ty = typecheck({**ctx, name: annot}, body, table)
            return Arrow(annot, body_ty)
        case App(fun, arg):
            fun_ty = typecheck(ctx, fun, table)
            if not isinstance(fun_ty, Arrow):
                raise TypeCheckError(f"applied a non-function of type {fun_ty!r}", t)
            arg_ty = typecheck(ctx, arg, table)
            if arg_ty != fun_ty.domain:
                raise TypeCheckError(
                    f"argument has type {arg_ty!r}, expected {fun_ty.domain!r}", t
                )
            return fun_ty.codomain
        case Fix(body):
            body_ty = typecheck(ctx, body, table)
            if not isinstance(body_ty, Arrow) or body_ty.domain != body_ty.codomain:
                raise TypeCheckError(f"fix needs a term of type A -> A, got {body_ty!r}", t)
            return body_ty.domain
        case Numeral():
            return REAL
        case Prim(op, args):
            try:
                prim = table.lookup(op)
            except (UnknownPrimitive, ValueError):
                raise TypeCheckError(f"unknown primitive {op!r}", t) from None
            if len(args) != prim.arity:
                raise TypeCheckError(
                    f"primitive {op!r} expects {prim.arity} arguments, got {len(args)}", t
                )
            for a in args:
                if typecheck(ctx, a, table) != REAL:
                    raise TypeCheckError(f"primitive argument not of ground type in {op!r}", a)
            return REAL
        case Ifz(scrutinee, then, otherwise):
            for sub in (scrutinee, then, otherwise):
                if typecheck(ctx, sub, table) != REAL:
                    raise TypeCheckError("ifz requires all three subterms at real", sub)
            return REAL
        case _SampleTerm():
            return REAL
        case Let(name, bound, body):
            if typecheck(ctx, bound, table) != REAL:
                raise TypeCheckError("let binds at ground type only", bound)
            if typecheck({**ctx, name: REAL}, body, table) != REAL:
                raise TypeCheckError("let body must have ground type", body)
            return REAL
    raise TypeCheckError(f"not a term: {t!r}", t)
