"""Unit tests for the synthetic benchmark corpus (small scale)."""

import pytest

from repro.analysis import (
    VULN_SPECS,
    analyze_source,
    build_corpus,
    make_filler_source,
    make_vulnerable_source,
)
from repro.php import build_cfg, parse_php

SCALE = 0.05  # keep unit tests fast; tests/paper runs Fig. 12 at 1.0

#: Paper Fig. 11: name -> (version, files, LOC, vulnerable files).
PAPER_FIG11 = {
    "eve": ("1.0", 8, 905, 1),
    "utopia": ("1.3.0", 24, 5438, 4),
    "warp": ("1.2.1", 44, 24365, 12),
}


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(scale=SCALE)


class TestShape:
    def test_three_apps(self, corpus):
        assert [a.name for a in corpus] == ["eve", "utopia", "warp"]

    def test_file_counts_match_fig11(self, corpus):
        counts = {a.name: len(a.files) for a in corpus}
        assert counts == {"eve": 8, "utopia": 24, "warp": 44}

    def test_vulnerable_counts_match_fig11(self, corpus):
        counts = {a.name: len(a.vulnerable_files) for a in corpus}
        assert counts == {"eve": 1, "utopia": 4, "warp": 12}

    def test_loc_tracks_fig11(self, corpus):
        targets = {"eve": 905, "utopia": 5438, "warp": 24365}
        for app in corpus:
            assert abs(app.loc - targets[app.name]) / targets[app.name] < 0.05

    def test_fig11_table_at_paper_scale(self):
        """The whole Fig. 11 table at scale 1.0: versions, file and
        vulnerable-file counts exact, LOC within 5%."""
        corpus = build_corpus()
        assert [app.name for app in corpus] == list(PAPER_FIG11)
        for app in corpus:
            version, files, loc, vulnerable = PAPER_FIG11[app.name]
            assert app.version == version
            assert len(app.files) == files
            assert len(app.vulnerable_files) == vulnerable
            assert abs(app.loc - loc) / loc < 0.05

    def test_seventeen_vulnerability_specs(self):
        assert len(VULN_SPECS) == 17
        assert sum(1 for s in VULN_SPECS if s.app == "warp") == 12

    def test_deterministic_generation(self):
        spec = VULN_SPECS[0]
        assert make_vulnerable_source(spec, SCALE) == make_vulnerable_source(
            spec, SCALE
        )


class TestVulnerableFiles:
    def test_all_parse(self, corpus):
        for app in corpus:
            for item in app.files:
                parse_php(item.source, item.name)  # must not raise

    def test_block_counts_track_targets(self):
        for spec in VULN_SPECS[:4]:
            source = make_vulnerable_source(spec, scale=0.1)
            target = max(5, round(spec.paper_fg * 0.1))
            actual = build_cfg(parse_php(source)).num_blocks
            assert abs(actual - target) <= 2, spec.name

    def test_every_vulnerable_file_detected(self, corpus):
        for app in corpus:
            for item in app.vulnerable_files:
                if item.spec is not None and item.spec.heavy:
                    continue  # the outlier is exercised by tests/paper
                report = analyze_source(item.source, item.name)
                assert report.vulnerable, f"{app.name}/{item.name}"

    def test_constraint_counts_track_targets(self, corpus):
        for app in corpus:
            for item in app.vulnerable_files:
                if item.spec is None or item.spec.heavy:
                    continue
                report = analyze_source(item.source, item.name)
                finding = report.first_vulnerable
                target = max(3, round(item.spec.paper_c * SCALE))
                assert abs(finding.num_constraints - target) <= 1, item.name


class TestFillerFiles:
    def test_filler_not_vulnerable(self, corpus):
        # Spot-check one filler file of each kind per app.
        for app in corpus:
            for item in [f for f in app.files if not f.vulnerable][:3]:
                report = analyze_source(item.source, item.name)
                assert not report.vulnerable, f"{app.name}/{item.name}"

    def test_filler_loc_padding(self):
        source = make_filler_source("warp", 0, target_loc=120)
        assert abs(source.count("\n") - 120) <= 4

    def test_filler_kinds_rotate(self):
        sanitized = make_filler_source("eve", 0, 30)
        anchored = make_filler_source("eve", 1, 30)
        assert "mysql_real_escape_string" in sanitized
        assert "preg_match('/^" in anchored
