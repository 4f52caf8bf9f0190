"""A small text front end for RMA instances (the ``dprle`` input format).

The released DPRLE tool consumed constraint files; this module provides
the equivalent for our reproduction.  Example::

    # The paper's motivating example (Sec. 2).
    var v1;
    let filter := m/[\\d]+$/;        # preg_match semantics
    let unsafe := m/'/;              # contains a quote
    v1 <= filter;
    "nid_" . v1 <= unsafe;

Syntax
------

* ``var a, b;`` declares variables.
* ``let name := <const>;`` names a constant.
* ``<expr> <= <const>;`` adds a subset constraint.
* ``<expr>`` is operands joined by ``.`` (concatenation); an operand is
  a declared variable, a named constant, or an inline constant.
* A constant is a string literal ``"..."``, a language regex
  ``/.../`` (anchors rejected — it denotes a language), or a match
  regex ``m/.../`` (``preg_match`` semantics: unanchored sides are
  padded with ``Σ*``).
* ``let`` definitions and constraint right-hand sides accept full
  constant *expressions*: ``|`` (union), ``&`` (intersection), ``.``
  (concatenation), parentheses, and references to earlier constants —
  evaluated to a single machine at parse time, e.g.
  ``let id := ("u" | "g") . /[0-9]+/ & /.{2,8}/;``.
* ``#`` and ``//`` start comments that run to end of line.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from ..automata.alphabet import BYTE_ALPHABET, Alphabet
from ..regex import MatchSpec, RegexSyntaxError
from ..regex import parse as parse_regex
from ..regex import parse_exact, to_nfa
from ..regex.ast import Regex
from .terms import ConcatTerm, Const, Problem, Subset, Term, Var

__all__ = ["DslError", "SourceMap", "parse_problem", "format_problem"]


class DslError(ValueError):
    """A syntax or semantic error in a constraint file.

    Carries a stable diagnostic code (see ``docs/DIAGNOSTICS.md``):
    ``D001`` syntax errors, ``D002`` undeclared names, ``D003`` a
    variable on a right-hand side, ``D004`` invalid regexes.
    """

    def __init__(self, line: int, message: str, code: str = "D001"):
        self.line = line
        self.message = message
        self.code = code
        super().__init__(f"line {line}: {message}")


@dataclass
class SourceMap:
    """Line spans the DSL front end recorded for diagnostics."""

    #: Variable name -> line of its ``var`` declaration.
    var_decls: dict[str, int] = field(default_factory=dict)
    #: Named-constant name -> line of its ``let`` definition.
    const_defs: dict[str, int] = field(default_factory=dict)


@dataclass
class _Token:
    kind: str  # ident, string, regex, matchregex, punct, end
    value: str
    line: int


_PUNCT = {"<=", ":=", ",", ";", "."}


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    line = 1
    length = len(text)
    while pos < length:
        ch = text[pos]
        if ch == "\n":
            line += 1
            pos += 1
            continue
        if ch in " \t\r":
            pos += 1
            continue
        if ch == "#" or text.startswith("//", pos):
            while pos < length and text[pos] != "\n":
                pos += 1
            continue
        if text.startswith("<=", pos) or text.startswith(":=", pos):
            tokens.append(_Token("punct", text[pos : pos + 2], line))
            pos += 2
            continue
        if ch in ",;.|&()":
            tokens.append(_Token("punct", ch, line))
            pos += 1
            continue
        if ch == '"':
            end = pos + 1
            value = []
            while end < length and text[end] != '"':
                if text[end] == "\\" and end + 1 < length:
                    escapes = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\"}
                    value.append(escapes.get(text[end + 1], text[end + 1]))
                    end += 2
                else:
                    value.append(text[end])
                    end += 1
            if end >= length:
                raise DslError(line, "unterminated string literal")
            tokens.append(_Token("string", "".join(value), line))
            pos = end + 1
            continue
        if ch == "/" or (ch == "m" and pos + 1 < length and text[pos + 1] == "/"):
            kind = "regex"
            start = pos + 1
            if ch == "m":
                kind = "matchregex"
                start = pos + 2
            end = start
            body = []
            while end < length and text[end] != "/":
                if text[end] == "\\" and end + 1 < length:
                    body.append(text[end : end + 2])
                    end += 2
                else:
                    if text[end] == "\n":
                        raise DslError(line, "newline inside regex")
                    body.append(text[end])
                    end += 1
            if end >= length:
                raise DslError(line, "unterminated regex")
            tokens.append(_Token(kind, "".join(body), line))
            pos = end + 1
            continue
        if ch.isalpha() or ch == "_":
            end = pos
            while end < length and (text[end].isalnum() or text[end] == "_"):
                end += 1
            tokens.append(_Token("ident", text[pos:end], line))
            pos = end
            continue
        raise DslError(line, f"unexpected character {ch!r}")
    tokens.append(_Token("end", "", line))
    return tokens


class _DslParser:
    def __init__(self, text: str, alphabet: Alphabet):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.alphabet = alphabet
        self.variables: dict[str, Var] = {}
        self.named_consts: dict[str, Const] = {}
        self.anon_consts: dict[str, Const] = {}
        self.constraints: list[Subset] = []
        self.source_map = SourceMap()

    # -- token helpers ----------------------------------------------------

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        token = self.tokens[self.pos]
        if token.kind != "end":
            self.pos += 1
        return token

    def expect_punct(self, value: str) -> None:
        token = self.take()
        if token.kind != "punct" or token.value != value:
            raise DslError(token.line, f"expected {value!r}, found {token.value!r}")

    # -- grammar ------------------------------------------------------------

    def parse(self) -> Problem:
        while self.peek().kind != "end":
            token = self.peek()
            if token.kind == "ident" and token.value == "var":
                self.parse_var_decl()
            elif token.kind == "ident" and token.value == "let":
                self.parse_let()
            else:
                self.parse_constraint()
        if not self.constraints:
            raise DslError(self.peek().line, "no constraints in input")
        problem = Problem(self.constraints, alphabet=self.alphabet)
        problem.source_map = self.source_map
        return problem

    def parse_var_decl(self) -> None:
        self.take()  # 'var'
        while True:
            token = self.take()
            if token.kind != "ident":
                raise DslError(token.line, "expected a variable name")
            if token.value in self.named_consts:
                raise DslError(token.line, f"{token.value!r} is already a constant")
            self.variables[token.value] = Var(token.value)
            self.source_map.var_decls.setdefault(token.value, token.line)
            nxt = self.take()
            if nxt.kind == "punct" and nxt.value == ",":
                continue
            if nxt.kind == "punct" and nxt.value == ";":
                return
            raise DslError(nxt.line, f"expected ',' or ';', found {nxt.value!r}")

    def parse_let(self) -> None:
        self.take()  # 'let'
        name_token = self.take()
        if name_token.kind != "ident":
            raise DslError(name_token.line, "expected a constant name")
        name = name_token.value
        if name in self.variables:
            raise DslError(name_token.line, f"{name!r} is already a variable")
        if name in self.named_consts:
            raise DslError(name_token.line, f"constant {name!r} redefined")
        self.expect_punct(":=")
        const = self.parse_const_value(name)
        self.named_consts[name] = const
        self.source_map.const_defs.setdefault(name, name_token.line)
        self.expect_punct(";")

    def parse_const_value(self, name: str) -> Const:
        """A constant definition: a language expression over constants.

        Grammar (loosest to tightest binding)::

            union := inter ('|' inter)*
            inter := chain ('&' chain)*
            chain := atom ('.' atom)*
            atom  := "lit" | /re/ | m/re/ | name | '(' union ')'

        The expression is evaluated to one machine at definition time,
        so the core constraint grammar (Fig. 2) stays untouched.
        """
        machine = self.parse_const_union()
        return Const(name, machine, source="<const expr>")

    def parse_const_union(self):
        from ..automata import ops

        machine = self.parse_const_inter()
        while self.peek().kind == "punct" and self.peek().value == "|":
            self.take()
            machine = ops.union(machine, self.parse_const_inter())
        return machine

    def parse_const_inter(self):
        from ..automata import ops

        machine = self.parse_const_chain()
        while self.peek().kind == "punct" and self.peek().value == "&":
            self.take()
            # Uncached product, not ops.intersect: constant machines feed
            # the GCI bridge-image scan, whose structure must not depend
            # on whether a language cache happened to be active at parse
            # time (each chain is parsed once, so caching buys nothing).
            machine = ops.product(machine, self.parse_const_chain())
        return machine

    def parse_const_chain(self):
        from ..automata import ops

        machine = self.parse_const_atom()
        while self.peek().kind == "punct" and self.peek().value == ".":
            self.take()
            machine = ops.concat(machine, self.parse_const_atom())
        return machine

    def parse_const_atom(self):
        from ..automata.nfa import Nfa

        token = self.take()
        if token.kind == "string":
            return Nfa.literal(token.value, self.alphabet)
        if token.kind == "regex":
            return to_nfa(self.compile_regex(token), self.alphabet)
        if token.kind == "matchregex":
            return to_nfa(self.compile_match(token).search(), self.alphabet)
        if token.kind == "ident" and token.value in self.named_consts:
            return self.named_consts[token.value].machine
        if token.kind == "punct" and token.value == "(":
            machine = self.parse_const_union()
            closing = self.take()
            if not (closing.kind == "punct" and closing.value == ")"):
                raise DslError(closing.line, "expected ')' in constant expression")
            return machine
        if token.kind == "ident":
            if token.value in self.variables:
                raise DslError(
                    token.line,
                    f"variable {token.value!r} cannot appear in a constant "
                    "expression",
                    code="D003",
                )
            raise DslError(
                token.line, f"undeclared name {token.value!r}", code="D002"
            )
        raise DslError(
            token.line, "expected a constant (string, /re/, m/re/, or name)"
        )

    def parse_constraint(self) -> None:
        line = self.peek().line
        lhs = self.parse_expr()
        self.expect_punct("<=")
        rhs = self.parse_rhs()
        self.expect_punct(";")
        self.constraints.append(Subset(lhs, rhs, line=line))

    def parse_rhs(self) -> Const:
        """The constraint's right side: any constant expression.

        A bare reference to a named constant keeps its name (useful in
        messages); anything more complex becomes an anonymous constant.
        """
        token = self.peek()
        following = self.tokens[min(self.pos + 1, len(self.tokens) - 1)]
        simple = following.kind == "punct" and following.value == ";"
        if token.kind == "ident" and simple:
            if token.value in self.variables:
                raise DslError(
                    token.line,
                    "right-hand side must be a constant, not variable "
                    f"{token.value!r}",
                    code="D003",
                )
            if token.value in self.named_consts:
                self.take()
                return self.named_consts[token.value]
        if token.kind in ("string", "regex", "matchregex") and simple:
            # Single-literal right sides share the lhs interning pool,
            # so repeated inline constants map to one vertex.
            return self.intern_anon(self.take())
        machine = self.parse_const_union()
        name = f"%c{len(self.anon_consts) + 1}"
        const = Const(name, machine, source="<const expr>")
        self.anon_consts[f"rhs:{name}"] = const
        return const

    def parse_expr(self) -> Term:
        parts = [self.parse_operand()]
        while self.peek().kind == "punct" and self.peek().value == ".":
            self.take()
            parts.append(self.parse_operand())
        if len(parts) == 1:
            return parts[0]
        return ConcatTerm(tuple(parts))

    def parse_operand(self) -> Term:
        token = self.take()
        if token.kind == "ident":
            if token.value in self.variables:
                return self.variables[token.value]
            if token.value in self.named_consts:
                return self.named_consts[token.value]
            raise DslError(
                token.line, f"undeclared name {token.value!r}", code="D002"
            )
        if token.kind in ("string", "regex", "matchregex"):
            return self.intern_anon(token)
        raise DslError(token.line, f"expected an operand, found {token.value!r}")

    def intern_anon(self, token: _Token) -> Const:
        key = f"{token.kind}:{token.value}"
        if key not in self.anon_consts:
            name = f"%c{len(self.anon_consts) + 1}"
            if token.kind == "string":
                const = Const.from_literal(name, token.value, self.alphabet)
            elif token.kind == "regex":
                machine = to_nfa(self.compile_regex(token), self.alphabet)
                const = Const(name, machine, source=f"/{token.value}/")
            else:
                machine = to_nfa(
                    self.compile_match(token).search(), self.alphabet
                )
                const = Const(name, machine, source=f"m/{token.value}/")
            self.anon_consts[key] = const
        return self.anon_consts[key]

    # -- regex compilation (D004 on malformed patterns) -------------------

    def compile_regex(self, token: _Token) -> "Regex":
        try:
            return parse_exact(token.value, self.alphabet)
        except RegexSyntaxError as error:
            raise DslError(
                token.line,
                f"invalid regex /{token.value}/: {error}",
                code="D004",
            ) from error

    def compile_match(self, token: _Token) -> "MatchSpec":
        try:
            return parse_regex(token.value, self.alphabet)
        except RegexSyntaxError as error:
            raise DslError(
                token.line,
                f"invalid regex m/{token.value}/: {error}",
                code="D004",
            ) from error


def parse_problem(text: str, alphabet: Alphabet = BYTE_ALPHABET) -> Problem:
    """Parse a constraint file into an RMA :class:`Problem`."""
    return _DslParser(text, alphabet).parse()


def format_problem(problem: Problem) -> str:
    """Render a problem back to DSL text (``parse_problem``'s inverse).

    Constant machines are converted to language-level regexes via state
    elimination, so the output is self-contained regardless of how the
    constants were originally built; anonymous or oddly-named constants
    are renamed ``k1, k2, ...``.  Round-trip property: parsing the
    output yields a problem with language-equivalent constraints.
    """
    from ..regex import nfa_to_regex, simplify, unparse

    lines: list[str] = ["# generated by repro.constraints.dsl.format_problem"]
    variables = problem.variables()
    if variables:
        lines.append("var " + ", ".join(v.name for v in variables) + ";")

    renames: dict[str, str] = {}
    for const in problem.constants():
        fresh = f"k{len(renames) + 1}"
        renames[const.name] = fresh
        pattern = unparse(
            simplify(nfa_to_regex(const.machine)),
            universe=const.machine.alphabet.universe,
        )
        # unparse() escapes every literal "/" as "\/", so the
        # pattern is already safe between DSL slashes.
        lines.append(f"let {fresh} := /{pattern}/;")

    def render_term(term: Term) -> str:
        if isinstance(term, Var):
            return term.name
        if isinstance(term, Const):
            return renames[term.name]
        return " . ".join(render_term(part) for part in term.parts)

    for constraint in problem.constraints:
        lines.append(
            f"{render_term(constraint.lhs)} <= {renames[constraint.rhs.name]};"
        )
    return "\n".join(lines) + "\n"

