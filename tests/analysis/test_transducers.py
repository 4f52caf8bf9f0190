"""Tests for transducer-based sanitizer modelling (Sec. 5 future work)."""

from repro.analysis import CONTAINS_QUOTE, UNESCAPED_QUOTE, analyze_source
from repro.analysis.sanitizers import (
    TRANSDUCER_FUNCTIONS,
    output_language,
    strip_slashes,
    transducer_for,
)
from repro.php.parser import parse_php
from repro.php.symexec import SymbolicExecutor

ESCAPED = r"""<?php
$x = addslashes($_POST['x']);
query("SELECT * FROM t WHERE a=$x");
"""

DOUBLE_DECODE = r"""<?php
$x = addslashes($_POST['x']);
$y = stripslashes($x);
query("SELECT * FROM t WHERE a=$y");
"""

RAW = r"""<?php
$x = $_POST['x'];
query("SELECT * FROM t WHERE a=$x");
"""

REPLACE_SANITIZER = r"""<?php
$x = str_replace("'", "", $_POST['x']);
query("SELECT * FROM t WHERE a=$x");
"""


class TestSanitizerModels:
    def test_strip_slashes_semantics(self):
        fst = strip_slashes()
        assert fst.apply_one(r"a\'b") == "a'b"
        assert fst.apply_one(r"\\") == "\\"
        assert fst.apply_one("\\") == ""  # trailing lone backslash
        assert fst.apply_one("plain") == "plain"

    def test_addslashes_then_stripslashes_roundtrip(self):
        add = transducer_for("addslashes")
        strip = transducer_for("stripslashes")
        for text in ("it's", "a\\b", "x", "''", ""):
            assert strip.apply_one(add.apply_one(text)) == text

    def test_transducer_for_unknown_is_none(self):
        assert transducer_for("custom_mystery_fn") is None

    def test_str_replace_needs_literals(self):
        assert transducer_for("str_replace") is None
        assert transducer_for("str_replace", args=["'", ""]) is not None

    def test_output_language_of_escaping_has_no_unescaped_quote(self):
        from repro.automata import intersect

        add = transducer_for("addslashes")
        out_lang = output_language(add)
        attack = UNESCAPED_QUOTE.machine()
        assert intersect(out_lang, attack).is_empty()

    def test_all_registered_functions_build(self):
        for name in TRANSDUCER_FUNCTIONS:
            fst = transducer_for(name)
            assert fst is not None
            assert fst.apply_one("safe text") is not None


class TestSymexecIntegration:
    def run(self, source: str):
        executor = SymbolicExecutor(
            UNESCAPED_QUOTE.machine(), transducers=True
        )
        return executor.run(parse_php(source))

    def test_derived_recorded(self):
        (query,) = self.run(ESCAPED)
        assert len(query.derived) == 1
        (result_name,) = query.derived
        assert result_name.startswith("tmp")

    def test_chained_derivations(self):
        (query,) = self.run(DOUBLE_DECODE)
        assert len(query.derived) == 2

    def test_output_language_constraint_added(self):
        (query,) = self.run(ESCAPED)
        image_constraints = [
            c for c in query.constraints if c.rhs.name.startswith("img_")
        ]
        assert len(image_constraints) == 1


class TestEndToEnd:
    """The extension's verdict table: the black-box (havoc) model
    against the transducer model on three sanitizer shapes."""

    def test_escaping_proved_safe(self):
        naive = analyze_source(
            ESCAPED, "escaped.php", attack=UNESCAPED_QUOTE, transducers=False
        )
        report = analyze_source(
            ESCAPED, "escaped.php", attack=UNESCAPED_QUOTE, transducers=True
        )
        assert not naive.vulnerable
        assert not report.vulnerable

    def test_double_decode_found_only_with_transducers(self):
        naive = analyze_source(
            DOUBLE_DECODE, "dd.php", attack=UNESCAPED_QUOTE, transducers=False
        )
        precise = analyze_source(
            DOUBLE_DECODE, "dd.php", attack=UNESCAPED_QUOTE, transducers=True
        )
        assert not naive.vulnerable  # the havoc model's false negative
        assert precise.vulnerable
        exploit = precise.first_vulnerable.exploit_inputs["post_x"]
        # The input survives addslashes+stripslashes and carries an
        # unescaped quote into the query.
        assert "'" in exploit

    def test_raw_input_still_vulnerable(self):
        report = analyze_source(
            RAW, "raw.php", attack=UNESCAPED_QUOTE, transducers=True
        )
        assert report.vulnerable

    def test_str_replace_sanitizer_proved_safe(self):
        # Deleting quotes entirely defeats the quote-based attack; the
        # black-box model havocs the call and reports a false positive.
        naive = analyze_source(
            REPLACE_SANITIZER,
            "replace.php",
            attack=CONTAINS_QUOTE,
            transducers=False,
        )
        assert naive.vulnerable
        report = analyze_source(
            REPLACE_SANITIZER,
            "replace.php",
            attack=CONTAINS_QUOTE,
            transducers=True,
        )
        assert not report.vulnerable

    def test_exploit_passes_through_transducer(self):
        report = analyze_source(
            DOUBLE_DECODE, "dd.php", attack=UNESCAPED_QUOTE, transducers=True
        )
        exploit = report.first_vulnerable.exploit_inputs["post_x"]
        add = transducer_for("addslashes")
        strip = transducer_for("stripslashes")
        final = strip.apply_one(add.apply_one(exploit))
        query_string = f"SELECT * FROM t WHERE a={final}"
        assert UNESCAPED_QUOTE.machine().accepts(query_string)


class TestCaseTransducers:
    def test_strtoupper(self):
        fst = transducer_for("strtoupper")
        assert fst.apply_one("Hello, world!") == "HELLO, WORLD!"

    def test_strtolower_preserves_quotes(self):
        fst = transducer_for("strtolower")
        assert fst.apply_one("DROP 'x'") == "drop 'x'"

    def test_case_map_roundtrip_on_letters(self):
        lower = transducer_for("strtolower")
        upper = transducer_for("strtoupper")
        assert upper.apply_one(lower.apply_one("MiXeD")) == "MIXED"
