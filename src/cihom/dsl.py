"""Text DSL for declaring rings and modules and queueing commands.

Grammar (statements are separated by whitespace, and a statement may span
lines with no line continuation):

    ring R = quotient(field=f32003, vars=[x,y,z,u], ideal=[x*y, z*u],
                      minimal_primes=[[x,z],[y,u]])
    module M = coker(R, shifts=[0], matrix=[[y, u]])
    resolve M steps=6
    betti M
    tor M N bound=5
    ext M N bound=3
    profile M
    pushforward M
    quasilift M f=x*y
    check 3.12.2 on (M, N)
    search 3.17 with (ring=R, samples=20, seed=1)
    example 3.14

Polynomials use ``3*x^2*y - z*u`` syntax.  Parse errors carry line/column;
undeclared names are rejected at parse time.

Lists and the arguments of ``quotient``, ``check ... on`` and ``search ...
with`` are comma-separated, with no comma before the closing bracket
(``_parse_list``).  An option is read by ``_parse_option``: an unread or
repeated key, or a value of the wrong kind (an integer below its
``_OPTION_MINIMUM``, a word outside its ``_OPTION_CHOICES``, an undeclared
ring), is a parse error at the key, and so is a repeated key in
``quotient(...)`` or ``coker(...)``.  ``_OPTION_MINIMUM`` and ``ParseError``
live in ``cihom.inputs``, which the CLI's bound flags and its exit codes
read without loading this module.  ``degrees=`` accepts only ``[1,...,1]``.

The statement registry (``theorems``) and the question ids (``search``) are
imported by the ``check`` and ``search`` readers when they first run, so a
script without those lines loads neither module.
"""

from __future__ import annotations

from .fields import field_by_tag
from .fmodules import ModulePresentation
from .inputs import _OPTION_MINIMUM, ParseError
from .polynomials import PolyRing, Polynomial
from .rings import RingPresentation


class Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self):
        return f"Token({self.kind}, {self.text!r})"


_SYMBOLS = "=[](),*+-^"


def tokenize(text: str):
    tokens = []
    line = 1
    col = 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_."):
                j += 1
            word = text[i:j]
            # trailing dots belong to punctuation, not names
            while word.endswith("."):
                word = word[:-1]
                j -= 1
            tokens.append(Token("name", word, line, start_col))
            col += j - i
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            word = text[i:j]
            kind = "int" if word.isdigit() else "id"
            tokens.append(Token(kind, word, line, start_col))
            col += j - i
            i = j
            continue
        if ch in _SYMBOLS:
            tokens.append(Token(ch, ch, line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


class _Cursor:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def expect(self, kind, text=None) -> Token:
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            want = text or kind
            raise ParseError(f"expected {want!r}, found {t.text or t.kind!r}",
                             t.line, t.col)
        return self.next()

    def at(self, kind) -> bool:
        return self.peek().kind == kind

    def at_option(self) -> bool:
        """At 'name =', the start of a key=value option."""
        return self.at("name") and self.tokens[self.pos + 1].kind == "="

    def error(self, message):
        t = self.peek()
        raise ParseError(message, t.line, t.col)


def parse_polynomial(cur: _Cursor, poly_ring) -> Polynomial:
    """poly := ['-'] term (('+'|'-') term)*; term := factor ('*' factor)*;
    factor := INT | VAR ['^' INT]."""

    def factor():
        t = cur.peek()
        if t.kind == "int":
            cur.next()
            return poly_ring.from_int(int(t.text))
        if t.kind == "name":
            if t.text not in poly_ring.variables:
                raise ParseError(f"unknown variable {t.text!r}", t.line, t.col)
            cur.next()
            p = poly_ring.variable(t.text)
            if cur.at("^"):
                cur.next()
                e = cur.expect("int")
                out = poly_ring.one()
                for _ in range(int(e.text)):
                    out = out * p
                return out
            return p
        cur.error(f"expected a variable or integer, found {t.text or t.kind!r}")

    def term():
        p = factor()
        while cur.at("*"):
            cur.next()
            p = p * factor()
        return p

    negate = False
    if cur.at("-"):
        cur.next()
        negate = True
    p = term()
    if negate:
        p = -p
    while cur.at("+") or cur.at("-"):
        op = cur.next().text
        q = term()
        p = p + q if op == "+" else p - q
    return p


def _parse_list(cur, item, brackets="[]"):
    """'[' item (',' item)* ']' or '[]', each item read by ``item(cur)``; a
    comma before ']' is a parse error.  ``brackets`` names other delimiters,
    as in ``check ... on (...)``."""
    open_, close = brackets
    cur.expect(open_)
    out = []
    while not cur.at(close):
        if out:
            cur.expect(",")
            if cur.at(close):
                cur.error("dangling comma in list")
        out.append(item(cur))
    cur.expect(close)
    return out


def _parse_int(cur) -> int:
    """['-'] INT."""
    neg = cur.at("-")
    if neg:
        cur.next()
    value = int(cur.expect("int").text)
    return -value if neg else value


def _parse_glued_id(cur) -> str:
    """An identifier like 3.12.2, pre-3.4 or cor4.7-instance: adjacent
    name/id/int/'-' tokens glued by textual contiguity."""
    t = cur.next()
    if t.kind not in ("name", "id", "int"):
        raise ParseError("expected an identifier", t.line, t.col)
    text = t.text
    end = t.col + len(t.text)
    line = t.line
    while True:
        nxt = cur.peek()
        if (nxt.kind in ("name", "id", "int", "-") and nxt.line == line
                and nxt.col == end):
            text += nxt.text
            end += len(nxt.text)
            cur.next()
        else:
            break
    return text


class Session:
    """Declared rings/modules plus the command list, ready to execute."""

    def __init__(self):
        self.rings: dict = {}
        self.modules: dict = {}
        self.commands: list = []

    def ring_of(self, module_name):
        return self.modules[module_name].ring


def parse_session(text: str) -> Session:
    """Full parse or a first-error report with line and column."""
    cur = _Cursor(tokenize(text))
    session = Session()
    while not cur.at("eof"):
        t = cur.peek()
        if t.kind != "name":
            if t.kind == "id":
                cur.error(f"statements start with a keyword, found {t.text!r}")
            cur.error(f"expected a statement, found {t.text or t.kind!r}")
        keyword = t.text
        if keyword == "ring":
            _parse_ring_decl(cur, session)
        elif keyword == "module":
            _parse_module_decl(cur, session)
        elif keyword in _SINGLE_MODULE_OPTIONS:
            _parse_single_module_command(cur, session, keyword)
        elif keyword in ("tor", "ext"):
            _parse_pair_command(cur, session, keyword)
        elif keyword == "quasilift":
            _parse_quasilift(cur, session)
        elif keyword == "check":
            _parse_check(cur, session)
        elif keyword == "search":
            _parse_search(cur, session)
        elif keyword == "example":
            _parse_example(cur, session)
        else:
            cur.error(f"unknown statement {keyword!r}")
    return session


# Accepted values of each word option.
_OPTION_CHOICES = {"over": ("quotient", "ambient"), "side": ("left", "right")}
# The options each command reads; any other key is a parse error.
_SINGLE_MODULE_OPTIONS = {"resolve": {"steps", "over"}, "betti": {"steps"},
                          "profile": set(), "pushforward": set()}
_PAIR_OPTIONS = {"tor": {"bound", "degree_bound", "side"}, "ext": {"bound", "degree_bound"}}
_CHECK_OPTIONS = {"bound", "degree_bound", "window", "n", "w"}
_SEARCH_OPTIONS = {"ring", "samples", "seed", "max_gens", "max_deg", "tor_bound",
                   "degree_bound"}


def _parse_option(cur, session, allowed, opts, poly_ring=None):
    """Read one key=value into ``opts``, or raise a ParseError at the key
    when the command does not read that key, the key is already given, or
    the value is not of the key's kind: an integer at least its
    ``_OPTION_MINIMUM``, a word from its ``_OPTION_CHOICES``, a polynomial
    over ``poly_ring`` (``f=``) or a declared ring with variables (``ring=``,
    which only ``search`` reads)."""
    key_tok = cur.expect("name")
    key = key_tok.text

    def fail(message):
        raise ParseError(message, key_tok.line, key_tok.col)

    if key not in allowed:
        fail(f"unknown option {key!r}")
    if key in opts:
        fail(f"option {key!r} given twice")
    cur.expect("=")
    if key == "f":
        opts[key] = parse_polynomial(cur, poly_ring)
    elif key in _OPTION_MINIMUM:
        lo = _OPTION_MINIMUM[key]
        try:
            value = _parse_int(cur)
        except ParseError:
            value = None
        if value is None or value < lo:
            kind = {0: "a non-negative integer", 1: "a positive integer"}.get(
                lo, f"an integer >= {lo}")
            fail(f"{key} must be {kind}")
        opts[key] = value
    else:
        value = cur.next().text
        if key == "ring" and value not in session.rings:
            fail(f"undeclared ring {value!r}")
        if key == "ring" and not session.rings[value].poly_ring.nvars:
            fail(f"ring {value!r} has no variables to draw random modules from")
        choices = _OPTION_CHOICES.get(key)
        if choices is not None and value not in choices:
            fail(f"{key} must be {' or '.join(choices)}")
        opts[key] = value


def _parse_options(cur, session, allowed, poly_ring=None):
    """The space-separated key=value options after a command's operands."""
    opts = {}
    while cur.at_option():
        _parse_option(cur, session, allowed, opts, poly_ring)
    return opts


def _declaration_key(cur, given):
    """The key token of a ``quotient(...)`` or ``coker(...)`` argument, read once."""
    key_tok = cur.expect("name")
    if key_tok.text in given:
        raise ParseError(f"option {key_tok.text!r} given twice", key_tok.line, key_tok.col)
    given.add(key_tok.text)
    return key_tok


def _parse_ring_decl(cur, session):
    cur.expect("name", "ring")
    name = cur.expect("name").text
    if name in session.rings or name in session.modules:
        cur.error(f"name {name!r} already declared")
    cur.expect("=")
    cur.expect("name", "quotient")
    field_tag = "f32003"
    variables = None
    poly_ring = None
    ideal = []
    primes = None
    given = set()

    def argument(cur):
        nonlocal field_tag, variables, poly_ring, ideal, primes
        key_tok = _declaration_key(cur, given)
        key = key_tok.text
        cur.expect("=")
        if key == "field":
            if poly_ring is not None:
                cur.error("declare field= before ideal=[] and minimal_primes=[]")
            field_tag = cur.next().text
        elif key == "vars":
            variables = _parse_list(cur, lambda cur: cur.expect("name").text)
            repeated = next((v for i, v in enumerate(variables) if v in variables[:i]), None)
            if repeated is not None:
                raise ParseError(f"duplicate variable name {repeated!r}",
                                 key_tok.line, key_tok.col)
        elif key not in ("degrees", "ideal", "minimal_primes"):
            cur.error(f"unknown ring option {key!r}")
        elif variables is None:
            cur.error(f"declare vars=[] before {key}=[]")
        elif key == "degrees":
            if _parse_list(cur, _parse_int) != [1] * len(variables):
                raise ParseError("degrees must be [1,...,1], one per variable: only the "
                                 "standard grading is supported", key_tok.line, key_tok.col)
        else:
            poly_ring = poly_ring or _mk_poly_ring(field_tag, variables)

            def poly(cur):
                return parse_polynomial(cur, poly_ring)

            if key == "ideal":
                ideal = _parse_list(cur, poly)
            else:
                primes = _parse_list(cur, lambda cur: _parse_list(cur, poly))

    _parse_list(cur, argument, "()")
    if variables is None:
        cur.error("ring declaration needs vars=[...]")
    poly_ring = poly_ring or _mk_poly_ring(field_tag, variables)
    ring = RingPresentation(poly_ring, ideal, label=name,
                            minimal_primes=primes)
    session.rings[name] = ring


def _mk_poly_ring(field_tag, variables):
    return PolyRing(field_by_tag(field_tag), variables)


def _parse_module_decl(cur, session):
    cur.expect("name", "module")
    name = cur.expect("name").text
    if name in session.rings or name in session.modules:
        cur.error(f"name {name!r} already declared")
    cur.expect("=")
    cur.expect("name", "coker")
    cur.expect("(")
    ring_tok = cur.expect("name")
    ring = session.rings.get(ring_tok.text)
    if ring is None:
        raise ParseError(f"undeclared ring {ring_tok.text!r}", ring_tok.line, ring_tok.col)
    shifts = [0]
    rows = None
    given = set()

    def poly(cur):
        return parse_polynomial(cur, ring.poly_ring)

    while cur.at(","):
        cur.next()
        key = _declaration_key(cur, given).text
        cur.expect("=")
        if key == "shifts":
            shifts = _parse_list(cur, _parse_int)
        elif key == "matrix":
            rows = _parse_list(cur, lambda cur: _parse_list(cur, poly))
        else:
            cur.error(f"unknown module option {key!r}")
    cur.expect(")")
    if rows is None:
        rows = [[] for _ in shifts]
    if len(rows) != len(shifts):
        cur.error(f"matrix has {len(rows)} rows but shifts lists {len(shifts)} generators")
    ncols = {len(r) for r in rows}
    if len(ncols) > 1:
        cur.error("matrix rows have unequal lengths")
    columns = []
    width = ncols.pop() if ncols else 0
    for j in range(width):
        columns.append([rows[i][j] for i in range(len(rows))])
    module = ModulePresentation.from_relations(ring, tuple(shifts), columns, label=name)
    session.modules[name] = module


def _require_module(cur, session, tok):
    if tok.text not in session.modules:
        raise ParseError(f"undeclared module {tok.text!r}", tok.line, tok.col)
    return tok.text


def _parse_single_module_command(cur, session, keyword):
    cur.expect("name", keyword)
    mod = _require_module(cur, session, cur.expect("name"))
    opts = _parse_options(cur, session, _SINGLE_MODULE_OPTIONS[keyword])
    session.commands.append({"command": keyword, "module": mod, **opts})


def _parse_pair_command(cur, session, keyword):
    cur.expect("name", keyword)
    a = _require_module(cur, session, cur.expect("name"))
    b = _require_module(cur, session, cur.expect("name"))
    opts = _parse_options(cur, session, _PAIR_OPTIONS[keyword])
    session.commands.append({"command": keyword, "module": a, "argument": b, **opts})


def _parse_quasilift(cur, session):
    cur.expect("name", "quasilift")
    mod = _require_module(cur, session, cur.expect("name"))
    ring = session.ring_of(mod)
    opts = _parse_options(cur, session, {"f"}, poly_ring=ring.poly_ring)
    if "f" not in opts:
        cur.error("quasilift needs f=<quotient generator>")
    session.commands.append({"command": "quasilift", "module": mod, "f": opts["f"]})


def _parse_check(cur, session):
    # deferred: a script without a check line does not load theorems
    from .theorems import ALIASES, INSTANCE_SHAPES, PARAMETER_READERS, known_statements

    cur.expect("name", "check")
    sid = _parse_glued_id(cur)
    cur.expect("name", "on")
    mods = []   # the module name tokens
    opts = {}
    # n= and w= only for a statement that reads them, and a second module
    # only for an (M, N) statement; an unknown id is reported when the
    # check runs
    statement = ALIASES.get(sid, sid)
    known = statement in known_statements()

    def item(cur):
        if cur.at_option():
            key = cur.peek()
            readers = PARAMETER_READERS.get(key.text)
            if known and readers is not None and statement not in readers:
                raise ParseError(f"statement {sid} does not read option {key.text!r}",
                                 key.line, key.col)
            _parse_option(cur, session, _CHECK_OPTIONS, opts)
        elif len(mods) == 2:
            cur.error("check takes one or two modules")
        else:
            mods.append(cur.expect("name"))
            _require_module(cur, session, mods[-1])

    _parse_list(cur, item, "()")
    if not mods:
        cur.error("check needs at least one module")
    if known and len(mods) == 2 and INSTANCE_SHAPES[statement] != "(M, N)":
        raise ParseError(f"statement {sid} reads {INSTANCE_SHAPES[statement]} and takes "
                         "one module", mods[1].line, mods[1].col)
    session.commands.append({"command": "check", "id": sid,
                             "modules": [tok.text for tok in mods], **opts})


def _parse_search(cur, session):
    # deferred: a script without a search line does not load search
    from .search import KNOWN_QUESTIONS

    cur.expect("name", "search")
    id_tok = cur.peek()
    qid = _parse_glued_id(cur)
    if qid not in KNOWN_QUESTIONS:
        raise ParseError(f"unknown question id {qid!r}; known: {', '.join(KNOWN_QUESTIONS)}",
                         id_tok.line, id_tok.col)
    cur.expect("name", "with")
    opts = {}
    _parse_list(cur, lambda cur: _parse_option(cur, session, _SEARCH_OPTIONS, opts), "()")
    if "ring" not in opts:
        cur.error("search needs ring=<declared ring>")
    session.commands.append({"command": "search", "id": qid, **opts})


def _parse_example(cur, session):
    cur.expect("name", "example")
    session.commands.append({"command": "example", "id": _parse_glued_id(cur)})
