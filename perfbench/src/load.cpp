#include "perfbench/src/load.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <stdexcept>
#include <string>

#include "src/serve/protocol.h"

namespace perfbench {

namespace serve = digg::serve;

std::vector<MergedEvent> merge_order(
    std::span<const digg::platform::StoryView> stories) {
  std::size_t total = 0;
  for (const auto& s : stories) total += s.vote_count();
  std::vector<MergedEvent> out;
  out.reserve(total);
  auto later = [](const MergedEvent& a, const MergedEvent& b) {
    if (a.time != b.time) return a.time > b.time;
    return a.story > b.story;  // heads carry each story's next index
  };
  std::priority_queue<MergedEvent, std::vector<MergedEvent>, decltype(later)>
      heads(later);
  for (std::uint32_t s = 0; s < stories.size(); ++s)
    if (stories[s].vote_count() > 0) heads.push({stories[s].times()[0], s, 0});
  while (!heads.empty()) {
    const MergedEvent e = heads.top();
    heads.pop();
    out.push_back(e);
    const auto& story = stories[e.story];
    if (e.index + 1 < story.vote_count())
      heads.push({story.times()[e.index + 1], e.story, e.index + 1});
  }
  return out;
}

std::uint32_t pass_story_id(std::uint32_t id, std::uint32_t pass,
                            std::uint32_t stride) {
  const std::uint64_t v = static_cast<std::uint64_t>(id) +
                          static_cast<std::uint64_t>(pass) * stride;
  if (v > 0xffffffffull)
    throw std::overflow_error("pass story id beyond u32 (pass " +
                              std::to_string(pass) + ")");
  return static_cast<std::uint32_t>(v);
}

namespace {

// Offset of the first u32 field (story id or sync token) inside every frame
// the clients send: 4-byte length, 1-byte type.
constexpr std::size_t kFieldOffset = 5;

}  // namespace

PassPlan build_plan(std::span<const digg::platform::StoryView> stories,
                    std::span<const MergedEvent> order, const Pacing& pacing,
                    double slice_s) {
  if (!(slice_s > 0.0)) throw std::invalid_argument("slice_s must be > 0");
  PassPlan plan;
  std::uint32_t max_id = 0;
  for (const auto& s : stories) max_id = std::max(max_id, s.id);
  plan.stride = max_id + 1;
  plan.event_begin.reserve(order.size());
  plan.event_due_s.reserve(order.size());
  plan.bytes.reserve(order.size() * 22 + stories.size() * 20);

  auto add_id_frame = [&](const serve::Message& msg, std::uint32_t id) {
    plan.id_fields.push_back(plan.bytes.size() + kFieldOffset);
    plan.id_base.push_back(id);
    serve::encode(msg, plan.bytes);
  };
  auto add_sync = [&](Request::Kind kind, std::uint64_t origin,
                      std::size_t origin_end) {
    plan.token_fields.push_back(plan.bytes.size() + kFieldOffset);
    serve::encode(serve::SyncMsg{0}, plan.bytes);
    plan.requests.push_back({kind, 0, origin, origin_end, plan.bytes.size()});
  };

  for (std::size_t i = 0; i < order.size(); ++i) {
    const MergedEvent& e = order[i];
    const auto& s = stories[e.story];
    const double due = pacing.due_s(e.time);
    plan.event_begin.push_back(plan.bytes.size());
    plan.event_due_s.push_back(due);
    const auto voter = s.voters()[e.index];
    if (e.index == 0)
      add_id_frame(serve::SubmitMsg{s.id, voter, e.time}, s.id);
    else
      add_id_frame(serve::VoteMsg{s.id, voter, e.time}, s.id);
    const std::size_t end = plan.bytes.size();
    if (e.index == kV10Index) {
      add_id_frame(serve::QueryPredictMsg{s.id}, s.id);
      plan.requests.push_back(
          {Request::Kind::kPredict, e.story, i, end, plan.bytes.size()});
    }
    const bool last = i + 1 == order.size();
    if (!last && std::floor(due / slice_s) !=
                     std::floor(pacing.due_s(order[i + 1].time) / slice_s))
      add_sync(Request::Kind::kSync, i, end);
    if (last) add_sync(Request::Kind::kFinalSync, i, end);
  }
  const std::uint64_t last = order.empty() ? 0 : order.size() - 1;
  const std::size_t last_end = plan.bytes.size();
  for (std::uint32_t s = 0; s < stories.size(); ++s) {
    add_id_frame(serve::QueryStateMsg{stories[s].id}, stories[s].id);
    plan.requests.push_back(
        {Request::Kind::kFinalState, s, last, last_end, plan.bytes.size()});
    add_id_frame(serve::QueryPredictMsg{stories[s].id}, stories[s].id);
    plan.requests.push_back(
        {Request::Kind::kFinalPredict, s, last, last_end, plan.bytes.size()});
  }
  return plan;
}

void patch_pass(PassPlan& plan, std::uint32_t pass) {
  auto put = [&plan](std::size_t off, std::uint32_t v) {
    for (int b = 0; b < 4; ++b)
      plan.bytes[off + b] = static_cast<char>((v >> (8 * b)) & 0xff);
  };
  for (std::size_t k = 0; k < plan.id_fields.size(); ++k)
    put(plan.id_fields[k], pass_story_id(plan.id_base[k], pass, plan.stride));
  const auto tokens = static_cast<std::uint32_t>(plan.token_fields.size());
  for (std::uint32_t k = 0; k < tokens; ++k)
    put(plan.token_fields[k], pass * tokens + k);
}

std::vector<std::uint64_t> slice_limits(const PassPlan& plan) {
  std::vector<std::uint64_t> out;
  for (const Request& r : plan.requests)
    if (r.kind == Request::Kind::kSync || r.kind == Request::Kind::kFinalSync)
      out.push_back(r.origin + 1);
  return out;
}

double percentile(std::span<const double> sorted, double q) {
  const auto n = sorted.size();
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return sorted[rank - 1];
}

std::size_t samples_beyond(std::size_t n, double q) {
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return n > rank ? n - rank : 0;
}

Summary summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = median(samples);
  for (const double q : {0.999, 0.99, 0.9}) {
    if (samples_beyond(s.n, q) >= 10) {
      s.tail_q = q;
      s.tail = percentile(samples, q);
      break;
    }
  }
  return s;
}

std::optional<double> supported_percentile(std::vector<double> samples,
                                           double q) {
  if (samples_beyond(samples.size(), q) < 10) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  return percentile(samples, q);
}

double median(std::vector<double> samples) {
  if (samples.empty()) throw std::invalid_argument("median of no samples");
  const std::size_t n = samples.size();
  std::nth_element(samples.begin(), samples.begin() + n / 2, samples.end());
  const double hi = samples[n / 2];
  if (n % 2 == 1) return hi;
  const double lo = *std::max_element(samples.begin(), samples.begin() + n / 2);
  return (lo + hi) / 2.0;
}

std::vector<std::size_t> quietest_half(const std::vector<double>& steal) {
  std::vector<std::size_t> idx(steal.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return steal[a] < steal[b];
  });
  idx.resize((idx.size() + 1) / 2);
  std::sort(idx.begin(), idx.end());
  return idx;
}

}  // namespace perfbench
