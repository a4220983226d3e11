#!/usr/bin/env python3
"""Fixture corpus runner for tools/simlint.

Every rule Lk has a pair of mini project trees under cases/Lk/:

  cases/Lk/bad/src/...   must produce >=1 Lk finding
  cases/Lk/good/src/...  must produce zero Lk findings

plus direct unit tests for the C++ lexer (raw strings, escaped
quotes, digit separators) and for `--fix`.  stdlib-only (unittest):
run as  python3 tests/lint_fixtures/run_fixtures.py
"""

from __future__ import annotations

import shutil
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
sys.path.insert(0, str(REPO))

from tools.simlint import lint  # noqa: E402
from tools.simlint.api import _render_github, apply_fixes  # noqa: E402
from tools.simlint.cppparse import shift_sites  # noqa: E402
from tools.simlint.lexer import strip_code  # noqa: E402
from tools.simlint.registry import RULES  # noqa: E402

CASES = HERE / "cases"


class FixtureCorpus(unittest.TestCase):
    def case_dirs(self):
        dirs = sorted(p for p in CASES.iterdir() if p.is_dir())
        self.assertTrue(dirs, "no fixture cases found")
        return dirs

    def test_every_rule_has_fixtures(self):
        covered = {p.name for p in self.case_dirs()}
        self.assertEqual(covered, set(RULES), "each rule needs a cases/Lk dir")

    def test_fixture_trees_are_complete(self):
        # A cases/Lk dir with an empty (or missing) good/ or bad/
        # tree would vacuously pass the corpus tests; require at
        # least one source file on both sides of every rule.
        for rule_dir in self.case_dirs():
            for side in ("bad", "good"):
                with self.subTest(rule=rule_dir.name, side=side):
                    tree = rule_dir / side / "src"
                    files = (
                        sorted(tree.rglob("*.cc")) + sorted(tree.rglob("*.h"))
                        if tree.is_dir()
                        else []
                    )
                    self.assertTrue(
                        files,
                        f"{rule_dir.name}/{side}/src has no fixture sources",
                    )

    def test_bad_fixtures_flag(self):
        for rule_dir in self.case_dirs():
            rule = rule_dir.name
            with self.subTest(rule=rule):
                findings = lint(rule_dir / "bad", [rule])
                self.assertTrue(
                    findings, f"{rule}: bad fixture produced no findings"
                )
                self.assertTrue(
                    all(f.rule == rule for f in findings),
                    f"{rule}: stray rule ids in {findings}",
                )

    def test_good_fixtures_clean(self):
        for rule_dir in self.case_dirs():
            rule = rule_dir.name
            with self.subTest(rule=rule):
                findings = lint(rule_dir / "good", [rule])
                rendered = "\n".join(
                    f.render(rule_dir / "good") for f in findings
                )
                self.assertFalse(
                    findings, f"{rule}: good fixture flagged:\n{rendered}"
                )

    def test_l16_flags_each_seeded_member(self):
        # A trailing LINT_SNAPSHOT_OK covers its own member only, not
        # the member declared on the next line.
        findings = lint(CASES / "L16" / "bad", ["L16"])
        flagged = {f.message.split("`")[1] for f in findings}
        self.assertEqual(
            flagged,
            {
                "InlinePredictor::misses_",
                "OutOfLineTable::lru_",
                "TrailingNote::cursor_",
            },
        )


class GithubFormat(unittest.TestCase):
    def test_findings_render_as_workflow_commands(self):
        root = CASES / "L1" / "bad"
        findings = lint(root, ["L1"])
        self.assertTrue(findings)
        for f in findings:
            cmd = _render_github(f, root)
            self.assertTrue(cmd.startswith("::error file="), cmd)
            self.assertIn(f",line={f.line},", cmd)
            self.assertIn("title=simlint L1::", cmd)
            # Workflow commands are single-line; payload newlines and
            # percents must arrive %-escaped.
            self.assertNotIn("\n", cmd)
            self.assertNotIn("\r", cmd)

    def test_payload_escaping(self):
        from tools.simlint.model import Finding

        f = Finding(
            rule="L1",
            path=Path("/tmp/x.cc"),
            line=3,
            message="100% broken\nsecond line",
        )
        cmd = _render_github(f, Path("/tmp"))
        self.assertIn("100%25 broken%0Asecond line", cmd)


class LexerRegression(unittest.TestCase):
    """The raw-string / escaped-quote bugs of the old line stripper."""

    def test_raw_string_contents_blanked(self):
        code = strip_code('f(R"(assert(x) // not code)");')
        self.assertNotIn("assert", code)
        self.assertNotIn("//", code)
        self.assertIn('R"(', code)  # literal markers survive

    def test_raw_string_with_embedded_quote(self):
        # The old stripper ended the literal at the embedded " and
        # exposed the tail as code.
        code = strip_code('x = R"(say " then assert(1))"; y = 2;')
        self.assertNotIn("assert", code)
        self.assertIn("y = 2;", code)

    def test_raw_string_custom_delimiter(self):
        code = strip_code('x = R"ab(inner )" quote assert(1))ab"; y();')
        self.assertNotIn("assert", code)
        self.assertIn("y();", code)

    def test_multiline_raw_string_keeps_line_count(self):
        raw = 'a = R"(one\ntwo assert(x)\nthree)";\nb();'
        code = strip_code(raw)
        self.assertEqual(code.count("\n"), raw.count("\n"))
        self.assertNotIn("assert", code)
        self.assertIn("b();", code)

    def test_escaped_quote_does_not_leak(self):
        code = strip_code('s = "a\\"b"; assert(x);')
        self.assertIn("assert(x);", code)  # code after the literal is kept
        self.assertNotIn("a", code.split(";")[0].replace("s = ", "").strip('" '))

    def test_digit_separator_is_not_char_literal(self):
        code = strip_code("n = 1'000'000; assert(n);")
        self.assertIn("assert(n);", code)
        self.assertIn("1'000'000", code)

    def test_char_literal_blanked(self):
        code = strip_code("c = ';'; next();")
        self.assertIn("next();", code)
        self.assertNotIn("';'", code.replace("' '", "''"))

    def test_encoding_prefixes(self):
        code = strip_code('s = u8"assert(x)"; t = L"assert(y)"; u();')
        self.assertNotIn("assert", code)
        self.assertIn("u();", code)

    def test_line_comment_continuation(self):
        code = strip_code("// comment continues \\\nassert(x)\nreal();")
        self.assertNotIn("assert", code)
        self.assertIn("real();", code)

    def test_block_comment_keeps_newlines(self):
        raw = "a();/* hide\nassert(x)\n*/b();"
        code = strip_code(raw)
        self.assertEqual(code.count("\n"), raw.count("\n"))
        self.assertNotIn("assert", code)
        self.assertIn("b();", code)


class ShiftDisambiguation(unittest.TestCase):
    """`<<`/`>>` as shift vs stream op vs template closer (L17)."""

    def ops(self, line):
        return [(op, rhs.strip()) for _, op, rhs in shift_sites(line)]

    def test_plain_shifts_are_sites(self):
        self.assertEqual(
            self.ops("vpn = vaddr >> 12;"), [(">>", "12;")]
        )
        self.assertEqual(
            self.ops("base = vpn << kPageBits;"), [("<<", "kPageBits;")]
        )

    def test_compound_shift_assign_is_a_site(self):
        self.assertEqual(self.ops("vaddr >>= 12;"), [(">>", "12;")])

    def test_std_stream_insertion_is_not_a_shift(self):
        self.assertEqual(self.ops("std::cout << 12;"), [])
        self.assertEqual(self.ops("std::cerr << 21 << x;"), [])

    def test_local_stream_names_are_not_shifts(self):
        self.assertEqual(self.ops("os << 12;"), [])
        self.assertEqual(self.ops("oss << 21;"), [])
        self.assertEqual(self.ops("my_stream << 12;"), [])

    def test_literal_adjacent_operators_are_stream_chains(self):
        # strip_code keeps the quotes, so the rhs/lhs checks see them.
        line = strip_code('out << "vpn " << 12 << " of " << vaddr;')
        got = [op for _, op, _ in shift_sites(line)]
        self.assertEqual(got, [])

    def test_template_closer_is_not_a_shift(self):
        self.assertEqual(
            self.ops("std::vector<std::pair<int, std::vector<int>>> x;"),
            [],
        )

    def test_shift_after_stream_chain_still_found(self):
        # A genuine shift whose lhs is a parenthesized expression.
        self.assertEqual(
            self.ops("x = (vaddr + off) >> kLargePageBits;"),
            [(">>", "kLargePageBits;")],
        )


class FixMode(unittest.TestCase):
    def test_l1_fix_rewrites_cassert_include(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp) / "tree"
            shutil.copytree(CASES / "L1" / "bad", root)
            findings = lint(root, ["L1"])
            self.assertTrue(any(f.replacement for f in findings))
            fixed = apply_fixes(findings)
            self.assertGreaterEqual(fixed, 1)
            after = lint(root, ["L1"])
            self.assertNotIn(
                "<cassert>",
                "\n".join(f.message for f in after),
                "--fix left a <cassert> include behind",
            )

    def test_fix_is_idempotent(self):
        # Fixing an already-fixed tree must be a no-op: a fixer whose
        # replacement still matches its own trigger would rewrite the
        # same lines forever (and ping-pong in CI).
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp) / "tree"
            shutil.copytree(CASES / "L1" / "bad", root)
            apply_fixes(lint(root, ["L1"]))
            snapshot = {
                p: p.read_text() for p in sorted(root.rglob("*.cc"))
            }
            second = [f for f in lint(root, ["L1"]) if f.replacement]
            self.assertFalse(
                second,
                "second --fix pass still proposes replacements: "
                + "\n".join(f.render(root) for f in second),
            )
            apply_fixes(lint(root, ["L1"]))
            for p, before in snapshot.items():
                self.assertEqual(
                    before, p.read_text(), f"{p} changed on second fix pass"
                )


if __name__ == "__main__":
    unittest.main(verbosity=2)
