"""Analyst workloads over detected stories (Section 1's motivation).

The paper motivates story tracking with analysts who "rely on temporal
patterns of event occurrences to discover supporting evidence and validate
their hypotheses" — political scientists forecasting crises, financial
analysts working from political event extractions.  This package provides
those temporal-pattern primitives over StoryPivot's output:

* :mod:`repro.analytics.bursts` — burst detection on story activity;
* :mod:`repro.analytics.lifecycle` — story lifecycle statistics (duration,
  cadence, growth, dormancy);
* :mod:`repro.analytics.source_profile` — empirical source
  characterization (coverage, timeliness, exclusivity) recovered from the
  aligned stories, the "individual source characteristics" Section 1 cites
  as the key to hard prediction tasks.
"""

from repro.analytics.bursts import Burst, detect_bursts, story_bursts
from repro.analytics.lifecycle import StoryLifecycle, lifecycle, lifecycle_table
from repro.analytics.source_profile import SourceReport, profile_sources
from repro.analytics.trending import TrendingEntry, TrendingMonitor, story_heat, trending_stories

__all__ = [
    "Burst",
    "detect_bursts",
    "story_bursts",
    "StoryLifecycle",
    "lifecycle",
    "lifecycle_table",
    "SourceReport",
    "profile_sources",
    "TrendingEntry",
    "TrendingMonitor",
    "story_heat",
    "trending_stories",
]
