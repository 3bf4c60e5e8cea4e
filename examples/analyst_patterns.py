"""Analyst workflows over detected stories (Section 1's motivation).

Runs the full pipeline over a synthetic multi-source world, then performs
the analyses the paper's introduction motivates: find bursting stories
(trend detection), characterize story lifecycles (flash events vs evolving
crises), and recover each source's empirical reporting profile
(coverage / timeliness / exclusivity) from the aligned output alone.

    python examples/analyst_patterns.py
"""

from repro import StoryPivot, StoryPivotConfig, synthetic_corpus
from repro.analytics import lifecycle, lifecycle_table, profile_sources, story_bursts
from repro.analytics.source_profile import source_report_table
from repro.core.granularity import StoryHierarchy
from repro.eventdata.models import DAY, format_timestamp


def main() -> None:
    corpus = synthetic_corpus(total_events=400, num_sources=5, seed=1234)
    print(f"Corpus: {len(corpus)} snippets, {len(corpus.sources)} sources\n")

    result = StoryPivot(StoryPivotConfig.temporal()).run(corpus)
    aligned_stories = sorted(
        result.alignment.aligned.values(), key=len, reverse=True
    )

    # --- trend detection: which stories burst? ---------------------------------
    print("Bursting stories (reporting spikes >= 2.5x their baseline):")
    found = 0
    for aligned in aligned_stories:
        if len(aligned) < 8:
            continue
        bursts = story_bursts(aligned, bucket=2 * DAY,
                              enter_factor=2.5, exit_factor=1.2)
        for burst in bursts:
            print(f"  {aligned.aligned_id}: {burst.events} reports around "
                  f"{format_timestamp(burst.start)} "
                  f"(intensity {burst.intensity:.1f}x)")
            found += 1
    if not found:
        print("  (none at this sensitivity)")
    print()

    # --- lifecycles -----------------------------------------------------------------
    print("Story lifecycles (largest stories):")
    print(lifecycle_table(aligned_stories, limit=8))
    flash = sum(1 for a in aligned_stories if lifecycle(a).is_flash)
    dormant = sum(1 for a in aligned_stories if lifecycle(a).is_dormant_prone)
    print(f"\n{len(aligned_stories)} stories: {flash} flash events, "
          f"{dormant} with long dormant phases\n")

    # --- granularity: browse themes (Section 4.3) --------------------------------
    # a stricter threshold than the demo default: synthetic sources sprinkle
    # noise entities everywhere, inflating story-profile overlap
    hierarchy = StoryHierarchy(result, theme_threshold=0.55)
    print(hierarchy.render(max_themes=3, max_children=3))
    print()

    # --- source characterization -----------------------------------------------------
    print("Empirical source profiles (recovered from aligned output):")
    print(source_report_table(profile_sources(result.alignment)))


if __name__ == "__main__":
    main()
