"""Hot-path reachability model (the SIM_HOT contract).

src/common/hot_path.h introduces two declaration annotations:

* ``SIM_HOT`` marks a per-access root (Machine::run's access
  pipeline, Cache::access, Prefetcher::on_access, the filter's
  permit(), UpdateBuffer::insert/take);
* ``SIM_COLD`` marks an amortized/cadence/failure path that stops the
  traversal (interval ticks, audit sweeps, error reporting).

This module builds a lexer-level call graph over the project (the
same comment/literal-blanked *code* text every other rule uses) and
computes the set of functions reachable from SIM_HOT roots without
passing through a SIM_COLD declaration.  Rules L10-L14 then enforce
the hot-path contract only inside those function bodies.

The call graph is deliberately over-approximate at call sites — a
call ``foo(...)`` reaches *every* project function named ``foo``, so
virtual overrides and overloads are all pulled in, which errs on the
side of checking too much (the correct direction for a perf
contract).  Annotations, however, bind precisely: a SIM_HOT/SIM_COLD
inside ``class Machine``'s body keys ``Machine::run``, so marking
``JobEngine::run`` SIM_COLD cannot un-root the machine loop that
happens to share the bare name.  Namespace-scope annotations (the
free functions in check.h) key the bare name.  Only functions
*defined in the tree* are traversed; std:: calls terminate.

Parsing relies on the repo's formatting convention (out-of-line
definitions start at column 0 as ``Qualified::name(...)`` with the
return type on the previous line) plus a class-body scan for inline
member functions, so both .cc and .h definitions are covered.
"""

from __future__ import annotations

import dataclasses
import re
from typing import Dict, List, Set, Tuple

from tools.simlint.cppparse import balanced_braces, balanced_parens, class_bodies
from tools.simlint.lexer import line_of
from tools.simlint.model import Project, SourceFile

# Identifiers that look like calls but are not, plus std::atomic's
# method names — `value_.load(...)` is not a call into a project
# function that happens to be named `load` (Journal::load) — plus the
# strong-address escape hatch: `addr.raw()` is StrongAddr/StrongPageNum
# accessor traffic, not a call into SnapshotWriter::raw.
_NOT_CALLS = frozenset(
    """
    if for while switch return sizeof alignof alignas decltype typeid
    catch new delete static_assert defined assert noexcept throw
    static_cast dynamic_cast reinterpret_cast const_cast
    SIM_REQUIRE SIM_AUDIT SIM_AUDIT_FAIL SIM_HOT SIM_COLD
    load store exchange fetch_add fetch_sub fetch_and fetch_or
    compare_exchange_weak compare_exchange_strong
    raw
    """.split()
)

# An identifier followed by an open paren: candidate call site.
_CALL_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\(")

# Out-of-line definition head at column 0: `Class::name(` / `name(`.
_OUTLINE_HEAD_RE = re.compile(
    r"^((?:[A-Za-z_]\w*::)*~?[A-Za-z_]\w*)\s*\(", re.MULTILINE
)

# Tokens allowed between `)` and the body `{` of a definition.
_TAIL_TOKEN_RE = re.compile(
    r"\s*(?:const|noexcept|override|final|mutable|->\s*[\w:<>,&*\s]+?)?\s*"
)

# SIM_HOT / SIM_COLD annotation followed (on the same declaration) by
# the function name — the first identifier directly ahead of a `(`.
_ANNOT_RE = re.compile(r"\b(SIM_HOT|SIM_COLD)\b")


@dataclasses.dataclass
class FuncDef:
    """One function definition found in the tree."""

    name: str        #: bare name ("access")
    qual: str        #: qualified name ("Cache::access") when known
    sf: SourceFile   #: defining file
    start_line: int  #: 1-based line of the definition head
    end_line: int    #: 1-based line of the closing brace
    body: str        #: code text of the body (braces excluded)
    params: str      #: code text of the parameter list


def _skip_to_body(code: str, close_paren: int) -> int:
    """Offset of the body `{` after a definition's `)`, or -1.

    Handles trailing qualifiers (const/noexcept/override/final),
    trailing return types, and constructor initializer lists
    (`: member_(expr), ...`).  Returns -1 for declarations (`;`),
    pure-virtuals (`= 0;`), and deleted/defaulted definitions.
    """
    i = close_paren + 1
    n = len(code)
    depth = 0
    while i < n:
        c = code[i]
        if depth == 0 and c == "{":
            return i
        if depth == 0 and c == ";":
            return -1
        if depth == 0 and c == "=":
            # `= 0;`, `= default;`, `= delete;`
            return -1
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        i += 1
    return -1


def _close_of(code: str, open_paren: int) -> int:
    depth = 0
    for i in range(open_paren, len(code)):
        if code[i] == "(":
            depth += 1
        elif code[i] == ")":
            depth -= 1
            if depth == 0:
                return i
    return len(code) - 1


def _outline_defs(sf: SourceFile) -> List[FuncDef]:
    code = sf.code
    out: List[FuncDef] = []
    for m in _OUTLINE_HEAD_RE.finditer(code):
        name = m.group(1)
        bare = name.rsplit("::", 1)[-1]
        if bare.startswith("~") or bare in _NOT_CALLS:
            continue
        open_paren = code.index("(", m.end() - 1)
        close = _close_of(code, open_paren)
        body_open = _skip_to_body(code, close)
        if body_open < 0:
            continue
        body = balanced_braces(code, body_open)
        start = line_of(code, m.start())
        end = line_of(code, body_open) + body.count("\n") + 1
        out.append(
            FuncDef(
                bare,
                name if "::" in name else bare,
                sf,
                start,
                end,
                body,
                code[open_paren + 1 : close],
            )
        )
    return out


# Inline member definition inside a class body: `name(...)` followed
# by a `{` (after qualifiers).  The body scan works on the class-body
# slice, so line numbers are rebased by the class's own line.
_INLINE_HEAD_RE = re.compile(r"\b(~?[A-Za-z_]\w*)\s*\(")


def _inline_defs(sf: SourceFile) -> List[FuncDef]:
    code = sf.code
    out: List[FuncDef] = []
    for body_start, body_end, cls in _class_spans(code):
        # Work on the body slice; line numbers come from the slice's
        # absolute offset so `{` placement cannot skew them.
        body = code[body_start + 1 : body_end - 1]
        seen_spans: List[Tuple[int, int]] = []
        for m in _INLINE_HEAD_RE.finditer(body):
            if any(a <= m.start() < b for a, b in seen_spans):
                continue  # call inside an already-recorded method body
            name = m.group(1)
            if name.startswith("~") or name in _NOT_CALLS:
                continue
            open_paren = body.index("(", m.end() - 1)
            close = _close_of(body, open_paren)
            body_open = _skip_to_body(body, close)
            if body_open < 0:
                continue
            fn_body = balanced_braces(body, body_open)
            seen_spans.append((body_open, body_open + len(fn_body) + 2))
            start = line_of(code, body_start + 1 + m.start())
            end = (line_of(code, body_start + 1 + body_open)
                   + fn_body.count("\n") + 1)
            out.append(
                FuncDef(
                    name,
                    f"{cls}::{name}",
                    sf,
                    start,
                    end,
                    fn_body,
                    body[open_paren + 1 : close],
                )
            )
    return out


def _class_spans(code: str) -> List[Tuple[int, int, str]]:
    """(body_start, body_end, class_name) for every class/struct."""
    from tools.simlint.cppparse import CLASS_RE

    spans: List[Tuple[int, int, str]] = []
    for m in CLASS_RE.finditer(code):
        open_brace = code.index("{", m.start())
        body = balanced_braces(code, open_brace)
        spans.append((open_brace, open_brace + len(body) + 2, m.group(1)))
    return spans


def _annotated_keys(project: Project) -> Tuple[Set[str], Set[str]]:
    """Keys declared SIM_HOT / SIM_COLD anywhere in the tree.

    A key is ``Class::name`` when the annotation sits inside a class
    body (binding exactly that member), or the bare ``name`` for
    namespace-scope declarations (binding every same-named def).
    """
    hot: Set[str] = set()
    cold: Set[str] = set()
    for sf in project.src_files():
        code = sf.code
        cls_spans = _class_spans(code)
        for m in _ANNOT_RE.finditer(code):
            call = _CALL_RE.search(code, m.end())
            if call is None:
                continue
            # Skip over type tokens: the function name is the first
            # identifier *directly* followed by `(` after the
            # annotation, within the same statement.
            stmt_end = code.find(";", m.end())
            brace = code.find("{", m.end())
            if brace != -1 and (stmt_end == -1 or brace < stmt_end):
                stmt_end = brace
            if stmt_end != -1 and call.start() > stmt_end:
                continue
            name = call.group(1)
            # Innermost enclosing class, if any.
            encl = [c for a, b, c in cls_spans if a <= m.start() < b]
            key = f"{encl[-1]}::{name}" if encl else name
            # Out-of-line heads are already qualified.
            if "::" in code[m.end():call.start()]:
                qual_head = re.search(
                    r"((?:[A-Za-z_]\w*::)+)$", code[m.end():call.start()].strip()
                )
                if qual_head:
                    key = qual_head.group(1) + name
            (hot if m.group(1) == "SIM_HOT" else cold).add(key)
    return hot, cold


def _matches(d: "FuncDef", keys: Set[str]) -> bool:
    return d.qual in keys or d.name in keys


@dataclasses.dataclass
class HotModel:
    """The computed hot-reachable set for one project."""

    defs: List[FuncDef]
    hot_keys: Set[str]     #: SIM_HOT annotation keys (roots)
    cold_keys: Set[str]    #: SIM_COLD annotation keys (traversal stops)
    hot_defs: List[FuncDef]  #: definitions reachable from the roots
    #: per-file hot spans: path -> [(start_line, end_line, FuncDef)]
    spans: Dict[str, List[Tuple[int, int, FuncDef]]]
    #: reached-via edges for diagnostics: id(def) -> caller FuncDef
    via: Dict[int, "FuncDef"]

    def hot_functions(self) -> List[FuncDef]:
        return list(self.hot_defs)

    def hot_spans(self, sf: SourceFile) -> List[Tuple[int, int, FuncDef]]:
        return self.spans.get(sf.rel, [])

    def chain(self, d: FuncDef) -> List[str]:
        """Root-to-*d* qualified-name chain (diagnostics)."""
        names = [d.qual]
        seen = {id(d)}
        while id(d) in self.via:
            d = self.via[id(d)]
            if id(d) in seen:
                break
            seen.add(id(d))
            names.append(d.qual)
        return list(reversed(names))


def _calls_in(body: str) -> Set[str]:
    return {
        m.group(1)
        for m in _CALL_RE.finditer(body)
        if m.group(1) not in _NOT_CALLS
    }


def analyze(project: Project) -> HotModel:
    """Build (and cache on *project*) the hot-reachability model."""
    cached = getattr(project, "_hotpath_model", None)
    if cached is not None:
        return cached

    defs: List[FuncDef] = []
    for sf in project.src_files():
        defs.extend(_outline_defs(sf))
        defs.extend(_inline_defs(sf))

    by_name: Dict[str, List[FuncDef]] = {}
    for d in defs:
        by_name.setdefault(d.name, []).append(d)

    hot_keys, cold_keys = _annotated_keys(project)

    # BFS over *definitions*: a call site fans out to every def of
    # the callee name (over-approximate), but SIM_COLD stops exactly
    # the annotated def (qualified key) or the whole name family
    # (namespace-scope key) — cold bodies are exempt, not traversed.
    visited: Set[int] = set()
    via: Dict[int, FuncDef] = {}
    frontier: List[FuncDef] = [
        d for d in defs if _matches(d, hot_keys) and not _matches(d, cold_keys)
    ]
    visited.update(id(d) for d in frontier)
    while frontier:
        d = frontier.pop()
        for callee in _calls_in(d.body):
            for target in by_name.get(callee, []):
                if id(target) in visited or _matches(target, cold_keys):
                    continue
                visited.add(id(target))
                via[id(target)] = d
                frontier.append(target)

    hot_defs = [d for d in defs if id(d) in visited]
    spans: Dict[str, List[Tuple[int, int, FuncDef]]] = {}
    for d in hot_defs:
        spans.setdefault(d.sf.rel, []).append((d.start_line, d.end_line, d))
    for lst in spans.values():
        # A member of a nested class is found once per enclosing class
        # body, so two entries can share a span: never compare defs.
        lst.sort(key=lambda span: span[:2])

    model = HotModel(defs, hot_keys, cold_keys, hot_defs, spans, via)
    project._hotpath_model = model  # type: ignore[attr-defined]
    return model


def hot_function_at(model: HotModel, sf: SourceFile, line: int):
    """The hot FuncDef whose body span covers *line*, or None."""
    for start, end, d in model.hot_spans(sf):
        if start <= line <= end:
            return d
        if start > line:
            break
    return None
