#include "perfbench/src/probes.h"

#include <cstdio>
#include <filesystem>
#include <memory>

#include "src/core/features.h"
#include "src/data/snapshot.h"
#include "src/digg/hybrid_set.h"
#include "src/runtime/thread_pool.h"
#include "src/serve/mpsc_queue.h"
#include "src/serve/protocol.h"

namespace perfbench {

namespace stream = digg::stream;

stream::StreamParams armed_params(
    const digg::core::InterestingnessPredictor* predictor, bool bayes) {
  stream::StreamParams sp;
  sp.predictor = predictor;
  sp.bayes.enabled = bayes;
  return sp;
}

namespace {

constexpr int kReps = 5;

template <typename F>
double time_s(F&& f) {
  const double t0 = now_s();
  f();
  return now_s() - t0;
}

// Total votes after which the engine retires a story's heavy state with
// the default StreamParams: max(last cascade checkpoint + 1, last
// influence checkpoint) = 21.
constexpr std::uint32_t kHorizon = 21;

void data_probe(const ProbeInputs& in, Tracer& tracer, std::vector<Metric>& out) {
  Scope s(tracer, "probe.data");
  namespace fs = std::filesystem;
  const fs::path path = fs::path(in.scratch_dir) / "probe.diggsnap";
  digg::data::save_snapshot(*in.corpus, path);
  std::vector<double> ms;
  for (int r = 0; r < kReps; ++r)
    ms.push_back(1e3 * time_s([&] {
      const auto c = digg::data::load_snapshot_mmap(path);
      if (c.story_count() != in.corpus->story_count()) std::abort();
    }));
  std::error_code ec;
  fs::remove(path, ec);
  out.push_back({"data.snapshot_mmap_load_ms", median(ms), "ms", ms.size()});
}

void stream_replay_probe(const ProbeInputs& in, Tracer& tracer,
                         std::vector<Metric>& out) {
  Scope s(tracer, "probe.stream_replay");
  const auto& es = *in.stream;
  const auto& net = in.corpus->network;
  const double events = static_cast<double>(es.total_events());
  const auto sp = armed_params(in.predictor);
  std::vector<double> init_ms, run_ms, result_ms;
  for (int r = 0; r < kReps; ++r) {
    std::unique_ptr<stream::StreamEngine> e;
    init_ms.push_back(1e3 * time_s([&] {
      e = std::make_unique<stream::StreamEngine>(es, net, sp);
    }));
    run_ms.push_back(1e3 * time_s([&] { e->run_all(); }));
    result_ms.push_back(1e3 * time_s([&] {
      if (e->result().stories.size() != es.stories.size()) std::abort();
    }));
  }
  out.push_back({"stream.engine_init_ms", median(init_ms), "ms", init_ms.size()});
  out.push_back({"stream.run_all_ms", median(run_ms), "ms", run_ms.size()});
  out.push_back({"stream.result_ms", median(result_ms), "ms", result_ms.size()});

  // Single-threaded baseline of the same replay.
  digg::runtime::set_default_threads(1);
  std::vector<double> t1;
  for (int r = 0; r < 3; ++r)
    t1.push_back(time_s([&] {
      stream::StreamEngine e(es, net, sp);
      e.run_all();
    }));
  digg::runtime::set_default_threads(in.threads);
  out.push_back({"stream.replay_t1_events_per_s", events / median(t1), "1/s",
                 t1.size()});

  // Marginal cost of the Bayes fit: alternating replays with it off and on.
  const auto sp_off = armed_params(in.predictor, false);
  std::vector<double> off, on;
  for (int r = 0; r < kReps; ++r) {
    off.push_back(time_s([&] {
      stream::StreamEngine e(es, net, sp_off);
      e.run_all();
    }));
    on.push_back(time_s([&] {
      stream::StreamEngine e(es, net, sp);
      e.run_all();
    }));
  }
  out.push_back({"stream.bayes_ns_per_vote",
                 (median(on) - median(off)) * 1e9 / events, "ns",
                 on.size() + off.size()});
}

void stream_live_probe(const ProbeInputs& in, Tracer& tracer,
                       std::vector<Metric>& out) {
  Scope s(tracer, "probe.stream_live");
  const auto& es = *in.stream;
  const auto sp = armed_params(in.predictor);
  stream::StreamEngine e(in.corpus->network, sp);
  double below_s = 0.0, past_s = 0.0;
  std::size_t below = 0, past = 0;
  for (const auto& story : es.stories) {
    const auto voters = story.voters();
    const auto times = story.times();
    const auto slot = e.live_submit(story.id, voters[0], times[0]);
    const std::size_t n = voters.size();
    const std::size_t split = std::min<std::size_t>(n, kHorizon);
    below_s += time_s([&] {
      for (std::size_t k = 1; k < split; ++k)
        e.live_vote(slot, voters[k], times[k]);
    });
    past_s += time_s([&] {
      for (std::size_t k = split; k < n; ++k)
        e.live_vote(slot, voters[k], times[k]);
    });
    below += split > 0 ? split - 1 : 0;
    past += n - split;
    e.note_events_applied(n);
  }
  out.push_back({"stream.live_vote_ns.below_horizon", below_s * 1e9 / below,
                 "ns", below});
  out.push_back({"stream.live_vote_calls.below_horizon",
                 static_cast<double>(below), "count", 1});
  out.push_back({"stream.live_vote_ns.past_horizon", past_s * 1e9 / past, "ns",
                 past});
  out.push_back({"stream.live_vote_calls.past_horizon",
                 static_cast<double>(past), "count", 1});

  std::vector<double> q;
  for (int r = 0; r < kReps; ++r)
    q.push_back(time_s([&] {
      for (std::uint32_t slot = 0; slot < e.story_count(); ++slot)
        if (e.query_story(slot).final_votes == 0) std::abort();
    }) * 1e9 / e.story_count());
  out.push_back({"stream.query_story_ns", median(q), "ns",
                 q.size() * e.story_count()});

  std::vector<double> ck;
  for (int r = 0; r < kReps; ++r)
    ck.push_back(1e3 * time_s([&] {
      if (e.checkpoint_sections().empty()) std::abort();
    }));
  out.push_back({"stream.checkpoint_sections_ms", median(ck), "ms", ck.size()});
  out.push_back({"stream.state_bytes", static_cast<double>(e.state_bytes()),
                 "B", 1});
}

void digg_probe(const ProbeInputs& in, Tracer& tracer, std::vector<Metric>& out) {
  Scope s(tracer, "probe.digg_union");
  const auto& net = in.corpus->network;
  const auto universe = net.node_count();
  digg::platform::HybridSet set(universe);
  std::vector<double> per_call;
  std::size_t calls = 0;
  for (int r = 0; r < 3; ++r) {
    calls = 0;
    double total = 0.0;
    for (const auto& story : in.stream->stories) {
      const auto voters = story.voters();
      const std::size_t k = std::min<std::size_t>(voters.size(), kHorizon);
      set.reset(universe);
      total += time_s([&] {
        for (std::size_t i = 0; i < k; ++i) set.union_span(net.fans(voters[i]));
      });
      calls += k;
    }
    per_call.push_back(total * 1e9 / static_cast<double>(calls));
  }
  out.push_back({"digg.union_span_ns", median(per_call), "ns",
                 calls * per_call.size()});
}

void ml_probe(const ProbeInputs& in, Tracer& tracer, std::vector<Metric>& out) {
  Scope s(tracer, "probe.ml_flat_tree");
  auto rows = digg::core::extract_features(in.corpus->front_page,
                                           in.corpus->network);
  const auto up = digg::core::extract_features(in.corpus->upcoming,
                                               in.corpus->network);
  rows.insert(rows.end(), up.begin(), up.end());
  std::vector<std::uint8_t> verdicts(rows.size());
  std::vector<double> ns;
  constexpr int kRounds = 200;
  for (int r = 0; r < kReps; ++r)
    ns.push_back(time_s([&] {
      for (int k = 0; k < kRounds; ++k)
        in.predictor->predict_batch(rows.data(), rows.size(), verdicts.data());
    }) * 1e9 / (static_cast<double>(rows.size()) * kRounds));
  out.push_back({"ml.flat_tree_ns_per_row", median(ns), "ns",
                 rows.size() * kRounds * ns.size()});
}

void serve_probe(const ProbeInputs& in, Tracer& tracer, std::vector<Metric>& out) {
  Scope s(tracer, "probe.serve");
  const auto& bytes = in.plan->bytes;
  std::vector<double> decode_ns;
  std::size_t frames = 0;
  for (int r = 0; r < kReps; ++r) {
    frames = 0;
    decode_ns.push_back(time_s([&] {
      digg::serve::FrameDecoder d;
      digg::serve::Message m;
      for (std::size_t off = 0; off < bytes.size(); off += 64 << 10) {
        d.feed(bytes.data() + off, std::min<std::size_t>(64 << 10, bytes.size() - off));
        while (d.next(m)) ++frames;
      }
    }) * 1e9 / static_cast<double>(frames));
  }
  out.push_back({"serve.decode_ns_per_frame", median(decode_ns), "ns",
                 frames * decode_ns.size()});

  // The server's ring payload shape: 32 bytes per vote.
  struct Item {
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t voter;
    double time;
    std::uint64_t stamp;
  };
  constexpr std::size_t kBatch = 512;
  constexpr std::size_t kItems = 1 << 20;
  digg::serve::MpscQueue<Item> q(1 << 13);
  std::vector<Item> sink(kBatch);
  std::vector<double> ring_ns;
  for (int r = 0; r < kReps; ++r) {
    std::uint64_t check = 0;
    ring_ns.push_back(time_s([&] {
      for (std::size_t i = 0; i < kItems; i += kBatch) {
        for (std::size_t k = 0; k < kBatch; ++k)
          if (!q.try_push({i + k, 1, 2, 3.0, 0})) std::abort();
        const auto n = q.pop_batch(sink.data(), kBatch);
        check += n;
      }
    }) * 1e9 / kItems);
    if (check != kItems) std::abort();
  }
  out.push_back({"serve.ring_ns_per_item", median(ring_ns), "ns",
                 kItems * ring_ns.size()});
}

}  // namespace

void run_layer_probes(const ProbeInputs& in, Tracer& tracer,
                      std::vector<Metric>& out) {
  data_probe(in, tracer, out);
  stream_replay_probe(in, tracer, out);
  stream_live_probe(in, tracer, out);
  digg_probe(in, tracer, out);
  ml_probe(in, tracer, out);
  serve_probe(in, tracer, out);
}

}  // namespace perfbench
