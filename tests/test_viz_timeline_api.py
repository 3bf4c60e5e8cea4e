"""Tests for the story timeline view, demo integration and public API."""

import pytest

import repro
from repro.core.pipeline import StoryPivot
from repro.demo.app import DemoSession, main
from repro.eventdata.handcrafted import demo_config, mh17_corpus
from repro.viz.modules import story_timeline_view


@pytest.fixture(scope="module")
def crash_story():
    result = StoryPivot(demo_config()).run(mh17_corpus())
    aligned = result.alignment.aligned_of_snippet("s1:v1")
    return aligned, result.alignment


class TestStoryTimelineView:
    def test_chronological_order(self, crash_story):
        aligned, alignment = crash_story
        view = story_timeline_view(aligned, alignment)
        jul17 = view.index("Jul 17, 2014")
        sep12 = view.index("Sep 12, 2014")
        assert jul17 < sep12

    def test_first_event_is_turning_point(self, crash_story):
        aligned, alignment = crash_story
        view = story_timeline_view(aligned, alignment)
        first_event_line = [
            l for l in view.splitlines()
            if "Jul 17" in l and l.startswith(("◆", "·"))
        ][0]
        assert first_event_line.startswith("◆")
        assert "novelty 100%" in first_event_line

    def test_repeated_content_has_low_novelty(self, crash_story):
        aligned, alignment = crash_story
        view = story_timeline_view(aligned, alignment)
        assert "novelty 0%" in view

    def test_roles_displayed(self, crash_story):
        aligned, alignment = crash_story
        view = story_timeline_view(aligned, alignment)
        assert "(aligning" in view

    def test_new_terms_listed_for_turning_points(self, crash_story):
        aligned, alignment = crash_story
        view = story_timeline_view(aligned, alignment)
        assert "new:" in view


class TestDemoIntegration:
    def test_session_story_timeline(self):
        session = DemoSession()
        view = session.story_timeline()
        assert "Story Timeline" in view

    def test_session_story_context(self):
        session = DemoSession()
        view = session.story_context()
        assert "Knowledge-Base Context" in view
        assert "Ukraine" in view

    def test_cli_timeline_module(self, capsys):
        assert main(["timeline"]) == 0
        assert "Story Timeline" in capsys.readouterr().out

    def test_cli_context_module(self, capsys):
        assert main(["context"]) == 0
        assert "Knowledge-Base Context" in capsys.readouterr().out


class TestPublicApi:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__ == "1.0.0"
