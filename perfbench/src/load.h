#pragma once
// The load generator's pure logic: the merged event order, per-pass story
// ids, the pacing schedule, the encoded pass plan that both server
// workloads send, and the latency/percentile arithmetic. Everything here is
// deterministic given the corpus, so perfbench_test can pin it.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/digg/types.h"

namespace perfbench {

/// One vote of the merged stream. `story` is the story's slot in the
/// stream's story table; `index` 0 is the submitter's own digg.
struct MergedEvent {
  double time = 0.0;
  std::uint32_t story = 0;
  std::uint32_t index = 0;
};

/// All votes of `stories` in the global (time, story slot, vote index)
/// order — the order stream::StreamEngine replays and the order the
/// clients send. A k-way merge over the per-story time columns, which are
/// non-decreasing (corpus invariant).
[[nodiscard]] std::vector<MergedEvent> merge_order(
    std::span<const digg::platform::StoryView> stories);

/// The id a story carries in pass `pass`: `id + pass * stride`, so every
/// pass over one server submits fresh stories with the same voters and
/// times. `stride` must exceed every corpus story id. Throws
/// std::overflow_error when the id leaves the u32 range.
[[nodiscard]] std::uint32_t pass_story_id(std::uint32_t id, std::uint32_t pass,
                                          std::uint32_t stride);

/// Open-loop schedule: an event at corpus time t is due
/// (t - t0_minutes) * seconds_per_minute seconds after the pass starts.
struct Pacing {
  double t0_minutes = 0.0;
  double seconds_per_minute = 0.0;
  [[nodiscard]] double due_s(double t) const {
    return (t - t0_minutes) * seconds_per_minute;
  }
};

/// One reply-bearing frame of a pass, in send order (replies arrive in the
/// same order on one connection).
struct Request {
  enum class Kind : std::uint8_t {
    kSync,          // after each schedule slice
    kPredict,       // right after a story's 10th vote (the v10 checkpoint)
    kFinalSync,     // end of the pass's events
    kFinalState,    // end-of-pass state query, one per story
    kFinalPredict,  // end-of-pass predict query, one per story
  };
  Kind kind = Kind::kSync;
  std::uint32_t story = 0;     // story slot (queries)
  std::uint64_t origin = 0;    // event whose due time starts the clock
  std::size_t origin_end = 0;  // byte offset just past the origin event
  std::size_t end = 0;         // byte offset just past this frame
};

/// Vote index of the v10 checkpoint: the 10th vote after the submitter's.
inline constexpr std::uint32_t kV10Index = 10;

/// One pass of the server load, encoded once. Events go out in merged
/// order; a predict query follows each story's v10 vote and a sync closes
/// each schedule slice; the pass ends with a sync and a state plus a
/// predict query per story. Story ids and sync tokens sit at fixed byte
/// offsets so a pass can be re-targeted by patch_pass() without
/// re-encoding.
struct PassPlan {
  std::vector<char> bytes;
  std::vector<std::size_t> event_begin;  // byte offset of event i's frame
  std::vector<double> event_due_s;       // schedule offset of event i
  std::vector<Request> requests;
  std::vector<std::size_t> id_fields;    // offsets of u32 story-id fields
  std::vector<std::uint32_t> id_base;    // pass-0 value of each field
  std::vector<std::size_t> token_fields; // offsets of u32 sync tokens
  std::uint32_t stride = 0;              // > every story id

  [[nodiscard]] std::size_t events() const { return event_begin.size(); }
  /// Bytes that are due once events [0, i] are: event i's frame plus the
  /// control frames that follow it (everything for the last event).
  [[nodiscard]] std::size_t limit_after(std::size_t i) const {
    return i + 1 < event_begin.size() ? event_begin[i + 1] : bytes.size();
  }
};

/// Builds the pass plan. `slice_s` is the schedule slice closed by a sync.
[[nodiscard]] PassPlan build_plan(
    std::span<const digg::platform::StoryView> stories,
    std::span<const MergedEvent> order, const Pacing& pacing, double slice_s);

/// Rewrites story ids and sync tokens in `plan.bytes` for pass `pass`.
void patch_pass(PassPlan& plan, std::uint32_t pass);

/// Event ordinals after which a slice closes (the positions of the
/// mid-pass syncs), ending with events() — the run_until limits of an
/// in-process replay driven slice by slice.
[[nodiscard]] std::vector<std::uint64_t> slice_limits(const PassPlan& plan);

/// Latency of a reply received at `reply_s` for a request whose clock
/// started at `due_s`, in milliseconds (both on one monotonic clock).
[[nodiscard]] inline double latency_ms(double due_s, double reply_s) {
  return (reply_s - due_s) * 1e3;
}

/// Nearest-rank percentile q in (0, 1] of `sorted` (ascending, non-empty).
[[nodiscard]] double percentile(std::span<const double> sorted, double q);

/// Samples strictly above percentile q's rank in a sample of n.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double q);

/// A latency sample summarised the way the benchmark reports it: the median
/// and the highest of p90/p99/p99.9 that has at least 10 samples beyond it.
struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double tail_q = 0.0;  // 0 when no tail percentile is supported
  double tail = 0.0;
};
[[nodiscard]] Summary summarize(std::vector<double> samples);

/// Percentile q of `samples` if at least 10 samples lie beyond it.
[[nodiscard]] std::optional<double> supported_percentile(
    std::vector<double> samples, double q);

/// Median of a non-empty sample (mean of the middle two for even n).
[[nodiscard]] double median(std::vector<double> samples);

/// Indices, in pass order, of the ceil(n/2) passes with the least host
/// steal (`steal[i]` is pass i's); ties go to the earlier pass. On a shared
/// virtual machine the hypervisor's steal slows every pass it hits, so
/// metrics are taken over this half.
[[nodiscard]] std::vector<std::size_t> quietest_half(
    const std::vector<double>& steal);

}  // namespace perfbench
