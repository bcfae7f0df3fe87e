// Tests of the benchmark's load generator: the merged order, per-pass
// story ids, the pacing schedule and latency arithmetic, the percentile
// helper and the quiet-pass selection. Build and run: python3 perfbench/run.py --test

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <tuple>

#include "perfbench/src/load.h"
#include "perfbench/src/probes.h"
#include "src/core/features.h"
#include "src/core/predictor.h"
#include "src/data/scenario.h"
#include "src/data/synthetic.h"
#include "src/serve/protocol.h"
#include "src/stream/engine.h"
#include "src/stream/source.h"

namespace perfbench {
namespace {

using digg::platform::Story;
using digg::platform::StoryView;

/// Stories with random, tie-heavy vote times (quantised to whole minutes).
std::vector<Story> random_stories(std::uint32_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<Story> out(n);
  for (std::uint32_t s = 0; s < n; ++s) {
    out[s].id = 100 + s * 3;
    out[s].submitter = s;
    const std::size_t votes = 1 + rng() % 40;
    double t = static_cast<double>(rng() % 50);
    for (std::size_t k = 0; k < votes; ++k) {
      out[s].voters.push_back(static_cast<std::uint32_t>(s * 100 + k));
      out[s].times.push_back(t);
      t += static_cast<double>(rng() % 3);  // many equal times
    }
  }
  return out;
}

std::vector<StoryView> views(const std::vector<Story>& stories) {
  return {stories.begin(), stories.end()};
}

TEST(MergeOrder, EqualsSortByTimeStoryIndex) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const auto stories = random_stories(60, seed);
    const auto v = views(stories);
    const auto merged = merge_order(v);
    std::vector<MergedEvent> sorted;
    for (std::uint32_t s = 0; s < v.size(); ++s)
      for (std::uint32_t k = 0; k < v[s].vote_count(); ++k)
        sorted.push_back({v[s].times()[k], s, k});
    std::sort(sorted.begin(), sorted.end(),
              [](const MergedEvent& a, const MergedEvent& b) {
                return std::tie(a.time, a.story, a.index) <
                       std::tie(b.time, b.story, b.index);
              });
    ASSERT_EQ(merged.size(), sorted.size());
    for (std::size_t i = 0; i < merged.size(); ++i) {
      EXPECT_EQ(merged[i].time, sorted[i].time) << i;
      EXPECT_EQ(merged[i].story, sorted[i].story) << i;
      EXPECT_EQ(merged[i].index, sorted[i].index) << i;
    }
  }
}

TEST(PassIds, FreshPerPassAndOverflowChecked) {
  EXPECT_EQ(pass_story_id(7, 0, 100), 7u);
  EXPECT_EQ(pass_story_id(7, 3, 100), 307u);
  EXPECT_THROW((void)pass_story_id(1, 0x10000, 0x10000), std::overflow_error);
}

TEST(PassIds, PatchedPassReproducesPassZeroOutcomes) {
  // A small scenario corpus; pass 0 and pass 2 go through ONE live engine
  // (as they do through one server) and every story must come out equal.
  auto spec = digg::data::make_scenario("legacy", 7);
  digg::data::downscale(spec, 20000, 200);  // the CI smoke size
  digg::stats::Rng rng(spec.seed);
  const auto syn = digg::data::generate_corpus(spec.params, rng);
  const auto& corpus = syn.corpus;
  const auto training =
      digg::core::extract_features(corpus.front_page, corpus.network);
  const auto predictor = digg::core::InterestingnessPredictor::train(training);
  const auto es = digg::stream::build_event_stream(corpus);
  const auto order = merge_order(es.stories);
  PassPlan plan = build_plan(es.stories, order, Pacing{0.0, 1e-4}, 0.001);

  digg::stream::StreamEngine engine(corpus.network, armed_params(&predictor));
  std::vector<std::vector<std::uint32_t>> slots(3);
  for (std::uint32_t pass : {0u, 2u}) {
    patch_pass(plan, pass);
    // Decode the patched frames and apply them in send order.
    digg::serve::FrameDecoder dec;
    dec.feed(plan.bytes.data(), plan.bytes.size());
    digg::serve::Message m;
    std::map<std::uint32_t, std::uint32_t> slot_of;
    while (dec.next(m)) {
      if (const auto* s = std::get_if<digg::serve::SubmitMsg>(&m)) {
        slot_of[s->story_id] = engine.live_submit(s->story_id, s->submitter, s->time);
        engine.note_events_applied(1);
      } else if (const auto* v = std::get_if<digg::serve::VoteMsg>(&m)) {
        engine.live_vote(slot_of.at(v->story_id), v->voter, v->time);
        engine.note_events_applied(1);
      }
    }
    for (const auto& s : es.stories)
      slots[pass].push_back(slot_of.at(pass_story_id(s.id, pass, plan.stride)));
  }
  for (std::size_t i = 0; i < es.stories.size(); ++i) {
    auto a = engine.query_story(slots[0][i]);
    auto b = engine.query_story(slots[2][i]);
    EXPECT_EQ(b.id, pass_story_id(a.id, 2, plan.stride));
    EXPECT_EQ(a.cascade, b.cascade);
    EXPECT_EQ(a.influence, b.influence);
    EXPECT_EQ(a.fans1, b.fans1);
    EXPECT_EQ(a.final_votes, b.final_votes);
    EXPECT_EQ(a.predicted_interesting, b.predicted_interesting);
    EXPECT_EQ(a.bayes_interesting, b.bayes_interesting);
    EXPECT_EQ(a.bayes_expected_final, b.bayes_expected_final);
    EXPECT_EQ(a.promoted_time, b.promoted_time);
  }
}

TEST(Schedule, DueTimesSlicesAndControlFrames) {
  const auto stories = random_stories(30, 9);
  const auto v = views(stories);
  const auto order = merge_order(v);
  const Pacing pace{order.front().time, 0.001};  // 1 corpus minute = 1 ms
  const double slice = 0.005;
  const PassPlan plan = build_plan(v, order, pace, slice);
  ASSERT_EQ(plan.events(), order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_DOUBLE_EQ(plan.event_due_s[i], (order[i].time - order.front().time) * 0.001);
    if (i > 0) {
      EXPECT_LE(plan.event_due_s[i - 1], plan.event_due_s[i]);
    }
  }
  // A sync closes every slice whose successor is in a later slice; a
  // predict follows every v10 vote; the tail asks state + predict per story.
  std::size_t syncs = 0, predicts = 0, finals = 0;
  for (const Request& r : plan.requests) {
    if (r.kind == Request::Kind::kSync) {
      ++syncs;
      EXPECT_LT(std::floor(plan.event_due_s[r.origin] / slice),
                std::floor(plan.event_due_s[r.origin + 1] / slice));
    } else if (r.kind == Request::Kind::kPredict) {
      ++predicts;
      EXPECT_EQ(order[r.origin].index, kV10Index);
      EXPECT_EQ(order[r.origin].story, r.story);
    } else if (r.kind != Request::Kind::kFinalSync) {
      ++finals;
    }
    EXPECT_LE(r.origin_end, r.end);
  }
  std::size_t v10 = 0;
  for (const auto& s : v) v10 += s.vote_count() > kV10Index ? 1 : 0;
  EXPECT_EQ(predicts, v10);
  EXPECT_EQ(finals, 2 * v.size());
  EXPECT_EQ(plan.token_fields.size(), syncs + 1);
  const auto limits = slice_limits(plan);
  ASSERT_EQ(limits.size(), syncs + 1);
  EXPECT_EQ(limits.back(), order.size());
  // Due-time latency arithmetic: a reply 1.5 ms after the due time of its
  // origin event, on a pass that started at t=10 s.
  const double start = 10.0;
  const Request& first = plan.requests.front();
  const double due = start + plan.event_due_s[first.origin];
  EXPECT_NEAR(latency_ms(due, due + 0.0015), 1.5, 1e-9);
  // Bytes up to an event's control frames become due with it.
  EXPECT_GE(plan.limit_after(first.origin), first.end);
}

TEST(Percentiles, OnlyReportedWithTenSamplesBeyond) {
  std::vector<double> s(999);
  for (std::size_t i = 0; i < s.size(); ++i) s[i] = static_cast<double>(i + 1);
  EXPECT_EQ(samples_beyond(999, 0.99), 9u);
  EXPECT_FALSE(supported_percentile(s, 0.99).has_value());
  Summary sum = summarize(s);
  EXPECT_DOUBLE_EQ(sum.tail_q, 0.9);
  EXPECT_DOUBLE_EQ(sum.tail, 900.0);
  EXPECT_DOUBLE_EQ(sum.p50, 500.0);
  s.push_back(1000.0);
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
  ASSERT_TRUE(supported_percentile(s, 0.99).has_value());
  EXPECT_DOUBLE_EQ(*supported_percentile(s, 0.99), 990.0);
  EXPECT_DOUBLE_EQ(summarize(s).tail_q, 0.99);
  s.resize(10000);
  for (std::size_t i = 0; i < s.size(); ++i) s[i] = static_cast<double>(i + 1);
  EXPECT_DOUBLE_EQ(summarize(s).tail_q, 0.999);
  EXPECT_DOUBLE_EQ(summarize(s).tail, 9990.0);
  EXPECT_DOUBLE_EQ(summarize({1.0, 2.0, 3.0}).tail_q, 0.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(Percentiles, QuietestHalfKeepsLeastStolenPassesInOrder) {
  using V = std::vector<std::size_t>;
  EXPECT_EQ(quietest_half({}), V{});
  EXPECT_EQ(quietest_half({0.3}), V{0});
  EXPECT_EQ(quietest_half({0.5, 0.0, 0.9, 0.1, 0.2}), (V{1, 3, 4}));
  EXPECT_EQ(quietest_half({0.0, 0.0, 0.0, 0.0}), (V{0, 1}));
  EXPECT_EQ(quietest_half({0.2, 0.1, 0.1, 0.1}), (V{1, 2}));
}

}  // namespace
}  // namespace perfbench
