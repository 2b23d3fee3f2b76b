"""Inline-suppression tests for reprolint.

``# reprolint: disable=RULE`` is the only waiver: there is no baseline
file, so every finding is either fixed or suppressed on its own line.
"""

from repro.devtools.engine import LintEngine
from repro.devtools.suppress import SuppressionIndex


class TestSuppressionIndex:
    def test_trailing_comment(self):
        index = SuppressionIndex("x = 1\ny = f()  # reprolint: disable=DET001\n")
        assert index.is_suppressed("DET001", 2)
        assert not index.is_suppressed("DET001", 1)
        assert not index.is_suppressed("DET002", 2)

    def test_multiple_rules(self):
        index = SuppressionIndex("y = f()  # reprolint: disable=DET001,DET002\n")
        assert index.is_suppressed("DET001", 1)
        assert index.is_suppressed("DET002", 1)

    def test_bare_disable_silences_all(self):
        index = SuppressionIndex("y = f()  # reprolint: disable\n")
        assert index.is_suppressed("ANYTHING", 1)

    def test_comment_line_covers_next_line(self):
        index = SuppressionIndex("# reprolint: disable=DET001\ny = f()\n")
        assert index.is_suppressed("DET001", 2)

    def test_skip_file_only_near_top(self):
        near_top = "# reprolint: skip-file\n" + "x = 1\n" * 20
        buried = "x = 1\n" * 20 + "# reprolint: skip-file\n"
        assert SuppressionIndex(near_top).skip_file
        assert not SuppressionIndex(buried).skip_file

    def test_unknown_rule_name_is_inert_for_real_rules(self):
        index = SuppressionIndex("y = f()  # reprolint: disable=NOPE999\n")
        assert index.is_suppressed("NOPE999", 1)
        assert not index.is_suppressed("DET001", 1)


class TestSuppressionThroughEngine:
    """Suppressions as the lint engine actually applies them."""

    VIOLATING = "value = random.random() + time.time()"

    def lint(self, line):
        source = f"import random\nimport time\n\n\ndef f():\n    {line}\n"
        return LintEngine().lint_source(source, "src/repro/m.py")

    def test_one_line_raises_two_rules_unsuppressed(self):
        assert {f.rule for f in self.lint(self.VIOLATING)} == {"DET001", "DET002"}

    def test_multi_rule_disable_silences_both(self):
        line = f"{self.VIOLATING}  # reprolint: disable=DET001,DET002"
        assert self.lint(line) == []

    def test_partial_disable_leaves_the_other_rule(self):
        line = f"{self.VIOLATING}  # reprolint: disable=DET001"
        assert {f.rule for f in self.lint(line)} == {"DET002"}

    def test_unknown_rule_suppresses_nothing(self):
        line = f"{self.VIOLATING}  # reprolint: disable=NOPE999"
        assert {f.rule for f in self.lint(line)} == {"DET001", "DET002"}
