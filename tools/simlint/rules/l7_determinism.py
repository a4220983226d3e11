"""L7: determinism — no nondeterminism sources on result paths."""

from __future__ import annotations

import re
from typing import List, Set

from tools.simlint.lexer import line_of
from tools.simlint.model import Finding, Project, SourceFile
from tools.simlint.registry import rule

# Wall clocks and entropy sources.  Any hit needs a LINT_NONDET_OK
# annotation explaining why the value never reaches a result surface.
NONDET_RE = re.compile(
    r"std\s*::\s*random_device"
    r"|(?<![\w.:])s?rand\s*\("
    r"|(?<![\w.:])time\s*\(\s*(?:nullptr|NULL|0)\s*\)"
    r"|\b(?:system_clock|steady_clock|high_resolution_clock)\s*::\s*now\s*\("
)

# Declarations (members, locals, parameters) and functions returning
# unordered containers.  `<...>` must not cross a declaration boundary.
UNORDERED_DECL_RE = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\s*<[^;{}()]*?>[\s&]*(\w+)\s*([;({=])"
)

# Range-based for over some sequence; the sequence part is group 2.
RANGE_FOR_RE = re.compile(r"\bfor\s*\(([^;()]*?):([^;)]*)\)")

# Ordering keyed on pointer values: hash-order *and* address-order are
# both allocation-dependent.
PTR_KEY_RE = re.compile(
    r"\b(?:unordered_)?(?:map|set|multimap|multiset)\s*<\s*"
    r"(?:const\s+)?[\w:]+(?:\s*<[^<>]*>)?\s*\*"
)
HASH_PTR_RE = re.compile(r"std\s*::\s*hash\s*<[^>]*\*\s*>")

IDENT_RE = re.compile(r"[A-Za-z_]\w*")


def _unordered_names(project: Project):
    """Names bound to unordered containers.

    Functions *returning* unordered refs are indexed project-wide
    (they are called through headers from anywhere).  Member/local
    names are scoped to their header/source pair (same directory and
    stem): members are declared in foo.h but iterated in foo.cc, while
    an unrelated foo elsewhere reusing the name stays clean.
    """
    funcs: Set[str] = set()
    paired = {}
    for sf in project.src_files():
        key = (sf.path.parent, sf.path.stem)
        for m in UNORDERED_DECL_RE.finditer(sf.code):
            if m.group(2) == "(":
                funcs.add(m.group(1))
            else:
                paired.setdefault(key, set()).add(m.group(1))
    return funcs, paired


@rule("L7", "determinism: no clocks, rand, or unordered iteration")
def check(project: Project) -> List[Finding]:
    """Simulation results must be byte-identical run to run, and
    `--jobs N` must match serial output exactly.  Three classes of
    nondeterminism are banned in src/:

    * wall clocks and entropy (`std::random_device`, `rand`,
      `time(nullptr)`, `*_clock::now()`) — annotate deliberate timing
      sites (telemetry timestamps, watchdog deadlines) with
      `LINT_NONDET_OK: <why>` on or just above the line;
    * range-for iteration over `std::unordered_*` containers — the
      libstdc++ hash order is salt/layout-dependent, so any
      report/CSV/record surface fed by it reorders between runs.
      Sort into a vector first, or annotate an order-independent use
      (a commutative reduction) with `LINT_ORDER_OK: <why>`;
    * pointer-valued ordering keys (`map<T*, ...>`, `set<T*>`,
      `std::hash<T*>`) — address order changes with ASLR and
      allocation history even in ordered containers.

    Why: the paper's experiments are diffed byte-for-byte across
    machines and job counts; one unordered iteration in a CSV emitter
    invalidates the comparison silently.
    """
    out: List[Finding] = []
    funcs, paired = _unordered_names(project)
    for sf in project.src_files():
        if sf.rel == "src/common/thread_annotations.h":
            continue
        unordered = funcs | paired.get((sf.path.parent, sf.path.stem), set())
        code = sf.code
        for m in NONDET_RE.finditer(code):
            no = line_of(code, m.start())
            if sf.annotated(no, "LINT_NONDET_OK", lookback=2):
                continue
            out.append(
                Finding(
                    "L7",
                    sf.path,
                    no,
                    f"nondeterminism source `{m.group(0).strip()}` in "
                    "simulator code; results must be reproducible — "
                    "annotate a deliberate timing site with "
                    "`LINT_NONDET_OK: <why>`",
                )
            )
        for m in RANGE_FOR_RE.finditer(code):
            seq_idents = set(IDENT_RE.findall(m.group(2)))
            hits = seq_idents & unordered
            if not hits:
                continue
            no = line_of(code, m.start())
            if sf.annotated(no, "LINT_ORDER_OK", lookback=2):
                continue
            out.append(
                Finding(
                    "L7",
                    sf.path,
                    no,
                    "iteration over unordered container "
                    f"`{sorted(hits)[0]}` has salt-dependent order; sort "
                    "into a vector before emitting, or annotate a "
                    "commutative use with `LINT_ORDER_OK: <why>`",
                )
            )
        for pat in (PTR_KEY_RE, HASH_PTR_RE):
            for m in pat.finditer(code):
                no = line_of(code, m.start())
                if sf.annotated(no, "LINT_ORDER_OK", lookback=2):
                    continue
                out.append(
                    Finding(
                        "L7",
                        sf.path,
                        no,
                        "pointer-valued key orders by allocation address "
                        f"(`{m.group(0).strip()}`); key on a stable id "
                        "instead",
                    )
                )
    return out
