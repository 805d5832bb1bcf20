"""Recursive-descent SQL parser."""

from __future__ import annotations

from dataclasses import replace

from ..errors import SqlParseError
from .ast import (
    Between,
    Binary,
    CaseWhen,
    Column,
    Expr,
    FuncCall,
    InList,
    IsNull,
    Join,
    Like,
    Literal,
    LocalTimestamp,
    OrderItem,
    Select,
    SelectItem,
    Star,
    TableRef,
    Unary,
    Union,
)
from .lexer import Token, tokenize


def parse(sql: str) -> Select | Union:
    """Parse one statement: a SELECT or a UNION [ALL] chain."""
    return _Parser(tokenize(sql)).parse_statement()


def _reject_branch_tail(branch: Select) -> None:
    """ORDER BY / LIMIT / OFFSET may only follow the final UNION
    branch, where they apply to the whole union."""
    for clause, present in (("ORDER BY", branch.order_by),
                            ("LIMIT", branch.limit is not None),
                            ("OFFSET", branch.offset is not None)):
        if present:
            raise SqlParseError(
                f"{clause} must follow the last UNION branch"
            )


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    # -- token helpers ------------------------------------------------------

    def _peek(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.kind != "EOF":
            self._pos += 1
        return token

    def _check_keyword(self, *keywords: str) -> bool:
        token = self._peek()
        return token.kind == "KEYWORD" and token.value in keywords

    def _match_keyword(self, *keywords: str) -> bool:
        if self._check_keyword(*keywords):
            self._advance()
            return True
        return False

    def _expect_keyword(self, keyword: str) -> None:
        if not self._match_keyword(keyword):
            raise SqlParseError(
                f"expected {keyword}, found {self._describe(self._peek())}"
            )

    def _check_op(self, *ops: str) -> bool:
        token = self._peek()
        return token.kind == "OP" and token.value in ops

    def _match_op(self, *ops: str) -> bool:
        if self._check_op(*ops):
            self._advance()
            return True
        return False

    def _expect_op(self, op: str) -> None:
        if not self._match_op(op):
            raise SqlParseError(
                f"expected {op!r}, found {self._describe(self._peek())}"
            )

    @staticmethod
    def _describe(token: Token) -> str:
        if token.kind == "EOF":
            return "end of input"
        return f"{token.kind} {token.value!r}"

    # -- grammar ----------------------------------------------------------

    def parse_statement(self) -> Select | Union:
        branches = [self._parse_select()]
        union_all = None
        while self._match_keyword("UNION"):
            _reject_branch_tail(branches[-1])
            this_all = self._match_keyword("ALL")
            if union_all is None:
                union_all = this_all
            elif union_all != this_all:
                raise SqlParseError(
                    "mixing UNION and UNION ALL is not supported"
                )
            branches.append(self._parse_select())
        if self._peek().kind != "EOF":
            raise SqlParseError(
                f"unexpected trailing {self._describe(self._peek())}"
            )
        if len(branches) == 1:
            return branches[0]
        last = branches[-1]
        branches[-1] = replace(last, order_by=(), limit=None, offset=None)
        return Union(tuple(branches), all=bool(union_all),
                     order_by=last.order_by, limit=last.limit,
                     offset=last.offset)

    def parse_select_statement(self) -> Select:
        statement = self.parse_statement()
        if isinstance(statement, Union):
            raise SqlParseError("expected a single SELECT, found UNION")
        return statement

    def _parse_select(self) -> Select:
        self._expect_keyword("SELECT")
        approx = self._match_keyword("APPROX")
        distinct = self._match_keyword("DISTINCT")
        items, select_star = self._parse_select_list()
        self._expect_keyword("FROM")
        table = self._parse_table_ref()
        joins: list[Join] = []
        while True:
            join = self._parse_join()
            if join is None:
                break
            joins.append(join)
        where = None
        if self._match_keyword("WHERE"):
            where = self._parse_expr()
        group_by: tuple[Expr, ...] = ()
        if self._match_keyword("GROUP"):
            self._expect_keyword("BY")
            group_by = tuple(self._parse_expr_list())
        having = None
        if self._match_keyword("HAVING"):
            having = self._parse_expr()
        order_by: tuple[OrderItem, ...] = ()
        if self._match_keyword("ORDER"):
            self._expect_keyword("BY")
            order_by = tuple(self._parse_order_list())
        limit = offset = None
        if self._match_keyword("LIMIT"):
            limit = self._parse_int("LIMIT")
        if self._match_keyword("OFFSET"):
            offset = self._parse_int("OFFSET")
        return Select(
            items=tuple(items),
            table=table,
            joins=tuple(joins),
            where=where,
            group_by=group_by,
            having=having,
            order_by=order_by,
            limit=limit,
            offset=offset,
            distinct=distinct,
            select_star=select_star,
            approx=approx,
        )

    def _parse_int(self, clause: str) -> int:
        token = self._peek()
        if token.kind != "NUMBER" or not isinstance(token.value, int):
            raise SqlParseError(f"{clause} expects an integer")
        self._advance()
        return token.value

    def _parse_select_list(self) -> tuple[list[SelectItem], bool]:
        if self._check_op("*"):
            self._advance()
            return [SelectItem(Star())], True
        items = [self._parse_select_item()]
        while self._match_op(","):
            items.append(self._parse_select_item())
        return items, False

    def _parse_select_item(self) -> SelectItem:
        expr = self._parse_expr()
        alias = None
        if self._match_keyword("AS"):
            alias = self._parse_identifier("alias")
        elif self._peek().kind == "IDENT":
            alias = self._advance().value  # implicit alias
        return SelectItem(expr, alias)

    def _parse_identifier(self, what: str) -> str:
        token = self._peek()
        if token.kind != "IDENT":
            raise SqlParseError(
                f"expected {what}, found {self._describe(token)}"
            )
        self._advance()
        return token.value

    def _parse_table_ref(self) -> TableRef:
        name = self._parse_identifier("table name")
        alias = None
        if self._match_keyword("AS"):
            alias = self._parse_identifier("table alias")
        elif self._peek().kind == "IDENT":
            alias = self._advance().value
        return TableRef(name, alias)

    def _parse_join(self) -> Join | None:
        kind = "INNER"
        if self._match_keyword("INNER"):
            self._expect_keyword("JOIN")
        elif self._match_keyword("LEFT"):
            self._match_keyword("OUTER")
            self._expect_keyword("JOIN")
            kind = "LEFT"
        elif not self._match_keyword("JOIN"):
            return None
        table = self._parse_table_ref()
        if self._match_keyword("USING"):
            self._expect_op("(")
            columns = [self._parse_identifier("column")]
            while self._match_op(","):
                columns.append(self._parse_identifier("column"))
            self._expect_op(")")
            return Join(table, kind, using=tuple(columns))
        if self._match_keyword("ON"):
            return Join(table, kind, on=self._parse_expr())
        raise SqlParseError("JOIN requires USING(...) or ON <expr>")

    def _parse_expr_list(self) -> list[Expr]:
        exprs = [self._parse_expr()]
        while self._match_op(","):
            exprs.append(self._parse_expr())
        return exprs

    def _parse_order_list(self) -> list[OrderItem]:
        items = []
        while True:
            expr = self._parse_expr()
            descending = False
            if self._match_keyword("DESC"):
                descending = True
            else:
                self._match_keyword("ASC")
            items.append(OrderItem(expr, descending))
            if not self._match_op(","):
                return items

    # -- expressions, precedence climbing --------------------------------

    def _parse_expr(self) -> Expr:
        return self._parse_or()

    def _parse_or(self) -> Expr:
        left = self._parse_and()
        while self._match_keyword("OR"):
            left = Binary("OR", left, self._parse_and())
        return left

    def _parse_and(self) -> Expr:
        left = self._parse_not()
        while self._match_keyword("AND"):
            left = Binary("AND", left, self._parse_not())
        return left

    def _parse_not(self) -> Expr:
        if self._match_keyword("NOT"):
            return Unary("NOT", self._parse_not())
        return self._parse_predicate()

    def _parse_predicate(self) -> Expr:
        left = self._parse_additive()
        if self._check_op("=", "<>", "!=", "<", "<=", ">", ">="):
            op = self._advance().value
            if op == "!=":
                op = "<>"
            return Binary(op, left, self._parse_additive())
        negated = False
        if self._check_keyword("NOT"):
            # NOT here must precede IN / BETWEEN / LIKE.
            save = self._pos
            self._advance()
            if self._check_keyword("IN", "BETWEEN", "LIKE"):
                negated = True
            else:
                self._pos = save
                return left
        if self._match_keyword("IN"):
            self._expect_op("(")
            items = [self._parse_expr()]
            while self._match_op(","):
                items.append(self._parse_expr())
            self._expect_op(")")
            return InList(left, tuple(items), negated)
        if self._match_keyword("BETWEEN"):
            low = self._parse_additive()
            self._expect_keyword("AND")
            high = self._parse_additive()
            return Between(left, low, high, negated)
        if self._match_keyword("LIKE"):
            return Like(left, self._parse_additive(), negated)
        if self._match_keyword("IS"):
            is_negated = self._match_keyword("NOT")
            self._expect_keyword("NULL")
            return IsNull(left, is_negated)
        return left

    def _parse_additive(self) -> Expr:
        left = self._parse_multiplicative()
        while self._check_op("+", "-"):
            op = self._advance().value
            left = Binary(op, left, self._parse_multiplicative())
        return left

    def _parse_multiplicative(self) -> Expr:
        left = self._parse_unary()
        while self._check_op("*", "/", "%"):
            op = self._advance().value
            left = Binary(op, left, self._parse_unary())
        return left

    def _parse_unary(self) -> Expr:
        if self._check_op("-", "+"):
            op = self._advance().value
            return Unary(op, self._parse_unary())
        return self._parse_primary()

    def _parse_primary(self) -> Expr:
        token = self._peek()
        if token.kind == "NUMBER":
            self._advance()
            return Literal(token.value)
        if token.kind == "STRING":
            self._advance()
            return Literal(token.value)
        if self._match_keyword("NULL"):
            return Literal(None)
        if self._match_keyword("TRUE"):
            return Literal(True)
        if self._match_keyword("FALSE"):
            return Literal(False)
        if self._match_keyword("LOCALTIMESTAMP"):
            return LocalTimestamp()
        if self._match_keyword("CASE"):
            return self._parse_case()
        if self._match_op("("):
            expr = self._parse_expr()
            self._expect_op(")")
            return expr
        if token.kind == "IDENT":
            return self._parse_name_or_call()
        raise SqlParseError(
            f"unexpected {self._describe(token)} in expression"
        )

    def _parse_case(self) -> Expr:
        branches: list[tuple[Expr, Expr]] = []
        while self._match_keyword("WHEN"):
            condition = self._parse_expr()
            self._expect_keyword("THEN")
            branches.append((condition, self._parse_expr()))
        if not branches:
            raise SqlParseError("CASE requires at least one WHEN branch")
        default = None
        if self._match_keyword("ELSE"):
            default = self._parse_expr()
        self._expect_keyword("END")
        return CaseWhen(tuple(branches), default)

    def _parse_name_or_call(self) -> Expr:
        name = self._advance().value
        if self._match_op("("):
            return self._finish_call(name)
        if self._match_op("."):
            column = self._parse_identifier("column name")
            return Column(column, table=name)
        return Column(name)

    def _finish_call(self, name: str) -> Expr:
        upper = name.upper()
        distinct = self._match_keyword("DISTINCT")
        if self._check_op("*"):
            self._advance()
            self._expect_op(")")
            return FuncCall(upper, (Star(),), distinct)
        if self._match_op(")"):
            return FuncCall(upper, (), distinct)
        args = [self._parse_expr()]
        while self._match_op(","):
            args.append(self._parse_expr())
        self._expect_op(")")
        return FuncCall(upper, tuple(args), distinct)
