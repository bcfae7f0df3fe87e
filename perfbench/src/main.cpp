// perfbench_driver: the repository benchmark. One invocation runs one
// workload on the corpus generated from --seed and prints, as its last
// stdout line, {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench_driver --workload <replay|ingest-bulk|live-open> --seed <n>
//                    --seconds <s> --trace <0|1> --serve-bin <serve_digg>
//                    --out-dir <dir>
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// runs the per-layer probes, a server session for the serve-layer gauges,
// and the workload itself with spans on (and once more with them off, for
// the tracing overhead); it writes a Chrome trace and a ledger to
// --out-dir. perfbench/README.md defines every metric.

#include <sched.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "perfbench/src/client.h"
#include "perfbench/src/load.h"
#include "perfbench/src/probes.h"
#include "perfbench/src/proc.h"
#include "perfbench/src/trace.h"
#include "src/core/features.h"
#include "src/core/predictor.h"
#include "src/data/scenario.h"
#include "src/data/synthetic.h"
#include "src/runtime/thread_pool.h"
#include "src/serve/client.h"
#include "src/simd/dispatch.h"
#include "src/stream/engine.h"
#include "src/stream/source.h"

namespace {

using namespace perfbench;
namespace stream = digg::stream;
namespace core = digg::core;
namespace data = digg::data;

// --- Fixed run shape (see README.md before changing any of these: each one
// changes what the numbers mean). --------------------------------------

// Pool size of the server child and of the in-process engine.
constexpr unsigned kPoolThreads = 2;
// Threads of the load: the single client thread.
constexpr unsigned kClientThreads = 1;
// serve_digg threads outside the pool: the epoll front-end. (The drain
// coordinator is the pool's calling lane; the checkpoint writer sleeps
// because checkpoints are off.)
constexpr unsigned kServiceThreads = 1;
// Corpora per measured run: the seed's own and two derived from it, each
// set up (and, for server workloads, served) once. Corpora of different
// seeds differ in their heavy-tailed fan degrees, which moves throughput by
// ~10% from seed to seed; pooling three per run shrinks that spread, and
// setup_s is the median of the three set-ups.
constexpr int kCorpora = 3;
// Open-loop pacing: corpus time is scaled linearly so that a pass's mean
// send rate is this many events per second, whatever the seed's corpus
// span (seed 42: 252,824 events over 7,952 corpus minutes, so one corpus
// minute lasts 0.2 ms and a pass 1.6 s). Bursts keep their shape; the mean
// is ~6% of what ingest-bulk sustains on a 4-core host (~2.8e6/s).
constexpr double kLiveMeanRate = 1.6e5;
// Schedule slice closed by a sync.
constexpr double kSliceS = 0.002;
// Timed passes per second of --seconds, split evenly over the corpora
// (fixed counts, not fixed durations). Each corpus first gets warm-up
// passes: replay passes in process, closed-loop passes on a server.
constexpr double kReplayPassesPerS = 16;
constexpr double kBulkPassesPerS = 8;
constexpr double kLivePassesPerS = 1.2;
constexpr int kReplayWarmup = 1;
constexpr int kServeWarmup = 2;
constexpr int kReplayLatencyPasses = 2;  // per corpus
// Every run ends within this many seconds of its start; work that would
// run past it fails instead (a hung server must not hang the benchmark).
constexpr double kRunBudgetS = 170;
double g_deadline_s = 0.0;

[[nodiscard]] double time_left_s() {
  return std::max(1.0, g_deadline_s - now_s());
}

/// CPUs this process may run on (what nproc(1) prints).
unsigned usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return static_cast<unsigned>(CPU_COUNT(&set));
}

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  int seconds = 10;
  bool trace = false;
  std::string serve_bin;
  std::string out_dir = ".";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "<replay|ingest-bulk|live-open> --seed <n> --seconds <s> "
               "--trace <0|1> --serve-bin <path> --out-dir <dir>\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value");
      return argv[++i];
    };
    const std::string k = argv[i];
    if (k == "--workload") {
      a.workload = value();
    } else if (k == "--seed") {
      const std::string v = value();
      char* end = nullptr;
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0' || v[0] == '-') usage("bad --seed");
    } else if (k == "--seconds") {
      a.seconds = std::atoi(value().c_str());
      if (a.seconds < 1 || a.seconds > 600) usage("bad --seconds");
    } else if (k == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage("bad --trace");
      a.trace = v == "1";
    } else if (k == "--serve-bin") {
      a.serve_bin = value();
    } else if (k == "--out-dir") {
      a.out_dir = value();
    } else {
      usage("unknown argument");
    }
  }
  if (a.workload != "replay" && a.workload != "ingest-bulk" &&
      a.workload != "live-open")
    usage("unknown --workload");
  if ((a.workload != "replay" || a.trace) && a.serve_bin.empty())
    usage("--serve-bin is required for server workloads and traced runs");
  return a;
}

/// Everything a workload needs, built before any timing. Held by pointer:
/// the event stream and the engines alias the corpus and the predictor.
struct Inputs {
  data::SyntheticCorpus synthetic;
  std::unique_ptr<core::InterestingnessPredictor> predictor;
  stream::EventStream es;
  double generate_ms = 0, train_ms = 0, stream_ms = 0;
  // The load and its oracle.
  PassPlan plan;
  std::vector<stream::StoryOutcome> oracle;  // by stream slot
  double corpus_minutes = 0;
  double seconds_per_minute = 0;  // live-open pacing scale

  [[nodiscard]] const data::Corpus& corpus() const { return synthetic.corpus; }
  [[nodiscard]] double setup_ms() const {
    return generate_ms + train_ms + stream_ms;
  }
};

/// Generation, training and the event stream: the set-up a replay user pays.
std::unique_ptr<Inputs> build_inputs(std::uint64_t seed, Tracer& tracer) {
  auto in = std::make_unique<Inputs>();
  const data::ScenarioSpec spec = data::make_scenario("legacy", seed);
  double t0 = now_s();
  {
    Scope s(tracer, "setup.generate");
    digg::stats::Rng rng(spec.seed);
    in->synthetic = data::generate_corpus(spec.params, rng);
  }
  double t1 = now_s();
  in->generate_ms = (t1 - t0) * 1e3;
  {
    Scope s(tracer, "setup.train");
    const auto training =
        core::extract_features(in->corpus().front_page, in->corpus().network);
    in->predictor = std::make_unique<core::InterestingnessPredictor>(
        core::InterestingnessPredictor::train(training));
  }
  t0 = now_s();
  in->train_ms = (t0 - t1) * 1e3;
  {
    Scope s(tracer, "setup.event_stream");
    in->es = stream::build_event_stream(in->corpus());
  }
  in->stream_ms = (now_s() - t0) * 1e3;
  return in;
}

/// The load (merged order, encoded pass) and the oracle: one live-mode
/// engine fed story by story, as serve_load --verify does.
void build_load(Inputs& in, Tracer& tracer) {
  {
    Scope s(tracer, "setup.load_plan");
    const auto order = merge_order(in.es.stories);
    const double t0 = order.empty() ? 0.0 : order.front().time;
    in.corpus_minutes = order.empty() ? 0.0 : order.back().time - t0;
    in.seconds_per_minute =
        static_cast<double>(order.size()) /
        (kLiveMeanRate * std::max(in.corpus_minutes, 1.0));
    in.plan = build_plan(in.es.stories, order,
                         Pacing{t0, in.seconds_per_minute}, kSliceS);
  }
  Scope s(tracer, "setup.oracle");
  stream::StreamEngine oracle(in.corpus().network,
                              armed_params(in.predictor.get()));
  for (const auto& story : in.es.stories) {
    const auto voters = story.voters();
    const auto times = story.times();
    const auto slot = oracle.live_submit(story.id, voters[0], times[0]);
    for (std::size_t k = 1; k < voters.size(); ++k)
      oracle.live_vote(slot, voters[k], times[k]);
    oracle.note_events_applied(voters.size());
  }
  in.oracle.reserve(in.es.stories.size());
  for (std::uint32_t slot = 0; slot < oracle.story_count(); ++slot)
    in.oracle.push_back(oracle.query_story(slot));
}

bool same_outcome(const stream::StoryOutcome& a, const stream::StoryOutcome& b) {
  return a.id == b.id && a.submitter == b.submitter && a.cascade == b.cascade &&
         a.influence == b.influence && a.fans1 == b.fans1 &&
         a.final_votes == b.final_votes && a.interesting == b.interesting &&
         a.predicted_interesting == b.predicted_interesting &&
         a.bayes_interesting == b.bayes_interesting &&
         a.bayes_expected_final == b.bayes_expected_final &&
         a.promoted_time == b.promoted_time;
}

/// Outcome of one workload run.
struct Run {
  std::vector<Metric> metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::string first_error;
  void fail(std::size_t n, const std::string& why) {
    failed += n;
    if (n > 0 && first_error.empty()) first_error = why;
  }
  void add(std::string name, double v, std::string unit, std::size_t n) {
    metrics.push_back({std::move(name), v, std::move(unit), n});
  }
};

/// Timed passes per corpus for `per_s` passes per second of `seconds`.
std::size_t passes_per_corpus(double per_s, int seconds) {
  return static_cast<std::size_t>(
      std::max(1.0, std::ceil(per_s * seconds / kCorpora)));
}

/// Seed of corpus k of a run: the run's seed itself, then splitmix64
/// successors.
std::uint64_t corpus_seed(std::uint64_t seed, int k) {
  if (k == 0) return seed;
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(k);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// `<base>_p50` (end to end) or `<base>_p99` (per layer: too sensitive to
/// a shared host's stalls to gate) of a latency sample.
void add_latency(Run& run, const std::string& base,
                 const std::vector<double>& samples, bool tail) {
  if (samples.empty()) {
    run.fail(1, base + ": no samples");
    return;
  }
  const Summary sum = summarize(samples);
  std::printf("latency %s: n=%zu p50=%.4f ms, highest supported tail p%g=%.4f ms\n",
              base.c_str(), sum.n, sum.p50, sum.tail_q * 100, sum.tail);
  if (!tail) {
    run.add(base + "_p50", median(samples), "ms", samples.size());
    return;
  }
  const auto p99 = supported_percentile(samples, 0.99);
  if (!p99) {
    run.fail(1, base + "_p99: fewer than 10 samples beyond p99");
    return;
  }
  run.add(base + "_p99", *p99, "ms", samples.size());
}

/// load.late_ms_p99 of the paced sends in `late`.
void add_lateness(Run& run, const std::vector<double>& late) {
  const auto p99 = supported_percentile(late, 0.99);
  if (!p99) {
    run.fail(1, "load.late_ms_p99: fewer than 10 samples beyond p99");
    return;
  }
  run.add("load.late_ms_p99", *p99, "ms", late.size());
}

/// 0, 1, ..., n - 1.
std::vector<std::size_t> every_pass(std::size_t n) {
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  return idx;
}

/// Host steal from construction until share() is read, in CPU-seconds per
/// wall second. Measured passes keep the quietest half by this figure
/// (quietest_half).
struct StealClock {
  double steal0 = host_steal_s();
  double wall0 = now_s();
  [[nodiscard]] double share() const {
    return (host_steal_s() - steal0) / std::max(now_s() - wall0, 1e-9);
  }
};

// --- replay -------------------------------------------------------------

/// One replay pass: fresh engine, run_all, result — timed — then checked.
double replay_pass(const Inputs& in, Run& run, Tracer& tracer, int pass) {
  Scope ps(tracer, "pass", pass);
  const auto sp = armed_params(in.predictor.get());
  const double t0 = now_s();
  std::unique_ptr<stream::StreamEngine> e;
  stream::StreamResult r;
  {
    Scope s(tracer, "stream.engine_init", pass);
    e = std::make_unique<stream::StreamEngine>(in.es, in.corpus().network, sp);
  }
  {
    Scope s(tracer, "stream.run_all", pass);
    e->run_all();
  }
  {
    Scope s(tracer, "stream.result", pass);
    r = e->result();
  }
  const double dt = now_s() - t0;
  {
    Scope s(tracer, "verify", pass);
    run.attempted += 1 + in.oracle.size();
    std::size_t bad = r.events_applied == in.es.total_events() ? 0 : 1;
    for (std::size_t i = 0; i < in.oracle.size(); ++i)
      if (i >= r.stories.size() || !same_outcome(r.stories[i], in.oracle[i]))
        ++bad;
    run.fail(bad, "replay outcome differs from the oracle");
  }
  {
    Scope s(tracer, "engine_free", pass);
    e.reset();
  }
  return dt;
}

/// Closed-loop in-process freshness: the pass is handed to the engine one
/// schedule slice at a time (run_until), each call timed from when it was
/// made; a v10 story's verdict is read with query_story right after its
/// slice returns.
void replay_latency_pass(const Inputs& in, Run& run,
                         const std::vector<std::uint64_t>& limits,
                         std::vector<double>& fresh,
                         std::vector<double>& predict) {
  stream::StreamEngine e(in.es, in.corpus().network,
                         armed_params(in.predictor.get()));
  std::size_t req = 0;
  const auto& reqs = in.plan.requests;
  for (const std::uint64_t limit : limits) {
    const double t0 = now_s();
    e.run_until(limit);
    fresh.push_back(latency_ms(t0, now_s()));
    run.attempted += 1;
    for (; req < reqs.size() && reqs[req].origin < limit; ++req) {
      if (reqs[req].kind != Request::Kind::kPredict) continue;
      const auto slot = reqs[req].story;
      const auto got = e.query_story(slot);
      predict.push_back(latency_ms(t0, now_s()));
      run.attempted += 1;
      const auto& want = in.oracle[slot];
      if (!got.predicted_interesting.has_value() ||
          got.predicted_interesting != want.predicted_interesting ||
          got.bayes_interesting != want.bayes_interesting ||
          got.bayes_expected_final != want.bayes_expected_final)
        run.fail(1, "replay v10 verdict differs from the oracle");
    }
  }
  if (e.events_applied() != in.es.total_events())
    run.fail(1, "replay slices did not apply every event");
}

/// kReplayLatencyPasses slice-driven passes; appends the samples of the
/// quietest half (all of them when `quiet_only` is false).
void replay_latency_passes(const Inputs& in, Run& run, bool quiet_only,
                           std::vector<double>& fresh,
                           std::vector<double>& predict) {
  const auto limits = slice_limits(in.plan);
  std::vector<std::vector<double>> f(kReplayLatencyPasses),
      p(kReplayLatencyPasses);
  std::vector<double> steal;
  for (int k = 0; k < kReplayLatencyPasses; ++k) {
    const StealClock clock;
    replay_latency_pass(in, run, limits, f[k], p[k]);
    steal.push_back(clock.share());
  }
  for (const std::size_t k : quiet_only ? quietest_half(steal)
                                        : every_pass(steal.size())) {
    fresh.insert(fresh.end(), f[k].begin(), f[k].end());
    predict.insert(predict.end(), p[k].begin(), p[k].end());
  }
}

/// Per-pass durations of `passes` replay passes; with `steal`, also the
/// host steal during each.
std::vector<double> replay_passes(const Inputs& in, Run& run, Tracer& tracer,
                                  std::size_t passes, int first_pass,
                                  std::vector<double>* steal = nullptr) {
  std::vector<double> out;
  for (std::size_t p = 0; p < passes; ++p) {
    const StealClock clock;
    out.push_back(replay_pass(in, run, tracer, first_pass + static_cast<int>(p)));
    if (steal != nullptr) steal->push_back(clock.share());
  }
  return out;
}

// --- server workloads ----------------------------------------------------

/// Passes over one connection. Pass ids continue across calls so every
/// pass submits fresh story ids.
struct Session {
  std::unique_ptr<ServerProcess> server;
  int fd = -1;
  digg::serve::FrameDecoder decoder;
  std::uint32_t next_pass = 0;
  ~Session() {
    if (fd >= 0) ::close(fd);
  }
};

/// The passes of serve_passes calls, each with the host steal during it.
struct ServePasses {
  std::vector<PassStats> stats;
  std::vector<double> steal;  // CPU-seconds stolen per second of the pass
};

/// Passes `idx` of a ServePasses, pooled.
struct ServeTotals {
  std::vector<double> pass_s;  // per pass: first send -> last reply
  std::vector<double> fresh, predict, late, depth, blocked_ms;
};

ServeTotals pool(const ServePasses& p, const std::vector<std::size_t>& idx) {
  ServeTotals t;
  auto append = [](std::vector<double>& to, const std::vector<double>& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  for (const std::size_t i : idx) {
    const PassStats& st = p.stats[i];
    t.pass_s.push_back(st.end_s - st.start_s);
    t.blocked_ms.push_back(st.write_blocked_s * 1e3);
    append(t.fresh, st.fresh_ms);
    append(t.predict, st.predict_ms);
    append(t.late, st.late_ms);
    append(t.depth, st.queue_depth);
  }
  return t;
}

ServeTotals pool_all(const ServePasses& p) {
  return pool(p, every_pass(p.stats.size()));
}

void serve_passes(Session& s, Inputs& in, Run& run, Tracer& tracer,
                  std::size_t passes, const PassOptions& opts,
                  ServePasses* out) {
  for (std::size_t k = 0; k < passes; ++k) {
    if (run.failed > 0 || now_s() > g_deadline_s) {
      run.fail(1, "passes abandoned after a failure or at the run deadline");
      return;
    }
    const std::uint32_t pass = s.next_pass++;
    Scope ps(tracer, "pass", static_cast<int>(pass));
    {
      Scope patch(tracer, "client.patch", static_cast<int>(pass));
      patch_pass(in.plan, pass);
    }
    const StealClock clock;
    PassOptions o = opts;
    o.stall_timeout_s = std::min(o.stall_timeout_s, time_left_s());
    PassStats st =
        run_pass(s.fd, s.decoder, in.plan, pass, in.oracle, o, tracer);
    run.attempted += st.attempted;
    run.fail(st.failed, st.error);
    if (out == nullptr) continue;
    out->steal.push_back(clock.share());
    out->stats.push_back(std::move(st));
  }
}

/// Spawns the server for corpus `seed` and connects to it; returns the
/// spawn-to-listening time. A non-empty `dump_path` also turns on the
/// server's DIGG_METRICS dump there and its exporter (traced runs).
double open_session(Session& s, const Args& args, std::uint64_t seed,
                    const std::string& dump_path = {}) {
  ServerOptions opts;
  opts.binary = args.serve_bin;
  opts.seed = seed;
  opts.threads = kPoolThreads;
  opts.metrics_path = dump_path;
  opts.exporter = !dump_path.empty();
  s.server =
      std::make_unique<ServerProcess>(opts, std::min(60.0, time_left_s()));
  s.fd = connect_nonblocking(s.server->port());
  return s.server->setup_s();
}

/// Round trips of `n` sequential syncs on an otherwise idle server, in
/// microseconds: serve::sync_barrier on a second, blocking connection.
std::vector<double> idle_sync_rtt_us(std::uint16_t port, std::uint32_t n,
                                     Run& run) {
  namespace serve = digg::serve;
  std::vector<double> out;
  run.attempted += n;
  const int fd = serve::connect_loopback(port);
  if (fd < 0) {
    run.fail(n, "idle sync: connect failed");
    return out;
  }
  const timeval timeout{10, 0};  // a lost reply fails the read, not the run
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  serve::FrameDecoder decoder;
  std::string err;
  for (std::uint32_t token = 0; token < n; ++token) {
    const double t0 = now_s();
    if (!serve::sync_barrier(fd, decoder, token, err)) {
      run.fail(n - token, "idle sync: " + err);
      break;
    }
    out.push_back((now_s() - t0) * 1e6);
  }
  ::close(fd);
  return out;
}

void finish_session(Session& s, Run& run, double* rss_mb) {
  if (rss_mb != nullptr) *rss_mb = s.server->peak_rss_mb();
  if (s.fd >= 0) ::close(s.fd);
  s.fd = -1;
  run.attempted += 1;
  if (!s.server->stop(std::min(30.0, time_left_s())))
    run.fail(1, "server did not drain cleanly");
}

/// Reads one number for `name` from a DIGG_METRICS JSON dump (0 when the
/// instrument was never created).
double dump_value(const std::string& json, const std::string& name) {
  const std::string key = "\"" + name + "\":";
  const auto at = json.find(key);
  if (at == std::string::npos) return 0.0;
  return std::strtod(json.c_str() + at + key.size(), nullptr);
}

// --- output --------------------------------------------------------------

/// What a run measured, for the metadata line.
struct Shape {
  std::size_t passes = 0;  // timed passes, all corpora together
  std::size_t kept = 0;    // of those, the quietest half the metrics use
  std::vector<double> steal;  // per timed pass, CPU-seconds per second
  std::vector<std::uint64_t> seeds;
  std::vector<std::size_t> events;  // per pass, by corpus
  std::vector<double> corpus_minutes;
  std::vector<double> seconds_per_minute;
  void add(std::uint64_t seed, const Inputs& in) {
    seeds.push_back(seed);
    events.push_back(in.plan.events());
    corpus_minutes.push_back(in.corpus_minutes);
    seconds_per_minute.push_back(in.seconds_per_minute);
  }
};

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

template <typename T>
std::string json_list(const std::vector<T>& v) {
  std::ostringstream out;
  out.precision(6);
  out << "[";
  for (std::size_t i = 0; i < v.size(); ++i) out << (i ? ", " : "") << v[i];
  out << "]";
  return out.str();
}

void print_result(const Args& args, const Run& run, const Shape& shape) {
  for (const Metric& m : run.metrics)
    std::printf("metric %-40s %16.6f %-6s (n=%zu)\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  std::printf(
      "{\"meta\": {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"nproc\": %u, \"DIGG_THREADS\": %u, \"client_threads\": %u, "
      "\"server_service_threads\": %u, \"simd\": \"%s\", \"passes\": %zu, "
      "\"passes_in_metrics\": %zu, \"host_steal_cpu_per_s_median\": %g, "
      "\"corpus_seeds\": %s, \"events_per_pass\": %s, "
      "\"corpus_minutes\": %s, \"live_open_mean_events_per_s\": %g, "
      "\"live_open_seconds_per_corpus_minute\": %s}}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.trace ? 1 : 0, usable_cpus(), kPoolThreads,
      kClientThreads, kServiceThreads,
      digg::simd::level_name(digg::simd::active_level()), shape.passes,
      shape.kept, shape.steal.empty() ? 0.0 : median(shape.steal),
      json_list(shape.seeds).c_str(), json_list(shape.events).c_str(),
      json_list(shape.corpus_minutes).c_str(), kLiveMeanRate,
      json_list(shape.seconds_per_minute).c_str());
  if (!run.first_error.empty())
    std::fprintf(stderr, "perfbench: %zu failed; first: %s\n", run.failed,
                 run.first_error.c_str());
  bool finite = true;
  std::string metrics;
  for (const Metric& m : run.metrics) {
    finite = finite && std::isfinite(m.value);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + m.name + "\": {\"value\": " +
               (std::isfinite(m.value) ? json_number(m.value) : "null") +
               ", \"unit\": \"" + m.unit + "\"}";
  }
  const bool correct = run.failed == 0 && finite;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false", std::max<std::size_t>(1, run.attempted),
              run.failed, metrics.c_str());
  std::fflush(stdout);
}

// --- the two run kinds ----------------------------------------------------

/// --trace 0: end-to-end metrics, tracing off, pooled over kCorpora
/// corpora. Each corpus's load and oracle are built before its server is
/// spawned, so set-up never competes with generation for cores.
Shape measure(const Args& args, Run& run) {
  Tracer off(false);
  Shape shape;
  const bool replay = args.workload == "replay";
  const bool open = args.workload == "live-open";
  const std::size_t per = passes_per_corpus(
      replay ? kReplayPassesPerS : open ? kLivePassesPerS : kBulkPassesPerS,
      args.seconds);
  std::vector<double> setups, rates, fresh, predict, late, rss;
  for (int k = 0; k < kCorpora; ++k) {
    const std::uint64_t seed = corpus_seed(args.seed, k);
    // One corpus at a time, so the driver's peak RSS is one set-up's.
    std::unique_ptr<Inputs> in = build_inputs(seed, off);
    build_load(*in, off);
    shape.add(seed, *in);
    shape.passes += per;
    const auto events = static_cast<double>(in->plan.events());
    if (replay) {
      setups.push_back(in->setup_ms() / 1e3);
      replay_passes(*in, run, off, kReplayWarmup, 0);
      std::vector<double> steal;
      const auto dt = replay_passes(*in, run, off, per, kReplayWarmup, &steal);
      for (const std::size_t i : quietest_half(steal))
        rates.push_back(events / dt[i]);
      shape.kept += (dt.size() + 1) / 2;
      shape.steal.insert(shape.steal.end(), steal.begin(), steal.end());
      replay_latency_passes(*in, run, true, fresh, predict);
      continue;
    }
    Session s;
    setups.push_back(open_session(s, args, seed));
    serve_passes(s, *in, run, off, kServeWarmup, PassOptions{}, nullptr);
    PassOptions po;
    po.pace = open ? Pace::kOpen : Pace::kClosed;
    ServePasses raw;
    serve_passes(s, *in, run, off, per, po, &raw);
    rss.push_back(0.0);
    finish_session(s, run, &rss.back());
    const ServeTotals t = pool(raw, quietest_half(raw.steal));
    shape.kept += t.pass_s.size();
    shape.steal.insert(shape.steal.end(), raw.steal.begin(), raw.steal.end());
    for (const double p : t.pass_s) rates.push_back(events / p);
    fresh.insert(fresh.end(), t.fresh.begin(), t.fresh.end());
    predict.insert(predict.end(), t.predict.begin(), t.predict.end());
    const std::vector<double> sent_late = pool_all(raw).late;  // every pass
    late.insert(late.end(), sent_late.begin(), sent_late.end());
  }
  if (open) {
    const auto p99 = supported_percentile(late, 0.99);
    std::printf("load lateness: n=%zu p99=%.4f ms (%s)\n", late.size(),
                p99.value_or(NAN),
                p99 ? "supported" : "fewer than 10 samples beyond p99");
  }
  if (rates.empty()) {
    run.fail(1, "no pass completed");
    return shape;
  }
  run.add("events_per_s", median(rates), "1/s", rates.size());
  add_latency(run, "fresh_ms", fresh, false);
  add_latency(run, "predict_ms", predict, false);
  if (replay)
    run.add("peak_rss_mb", vmhwm_mb("self"), "MB", 1);
  else
    run.add("peak_rss_mb", median(rss), "MB", rss.size());
  run.add("setup_s", median(setups), "s", setups.size());
  return shape;
}

/// --trace 1: per-layer metrics, the traced workload, its ledger and the
/// tracing overhead.
Shape trace_run(const Args& args, Run& run) {
  namespace fs = std::filesystem;
  Tracer tr(true);
  const int top = tr.open("benchmark");
  std::unique_ptr<Inputs> in = build_inputs(args.seed, tr);
  build_load(*in, tr);
  Shape shape;
  shape.add(args.seed, *in);
  run.add("data.generate_ms", in->generate_ms, "ms", 1);
  run.add("core.train_ms", in->train_ms, "ms", 1);

  ProbeInputs pin;
  pin.corpus = &in->corpus();
  pin.stream = &in->es;
  pin.predictor = in->predictor.get();
  pin.plan = &in->plan;
  pin.threads = kPoolThreads;
  pin.scratch_dir = args.out_dir;
  run_layer_probes(pin, tr, run.metrics);

  // Server session: idle round trips, one closed-loop pass with the
  // exporter sampled, one paced pass for the closed-loop workloads'
  // lateness, then the workload's own passes when it is a server workload;
  // the drain dump closes it.
  const bool server_workload = args.workload != "replay";
  const bool open = args.workload == "live-open";
  const std::string dump_path =
      (fs::path(args.out_dir) / ("serve-metrics-" + args.workload + ".json"))
          .string();
  std::filesystem::remove(dump_path);  // never read a previous run's dump
  Session s;
  {
    Scope sc(tr, "probe.serve_session");
    open_session(s, args, args.seed, dump_path);
    const auto rtt = idle_sync_rtt_us(s.server->port(), 200, run);
    run.add("serve.sync_rtt_us_idle", rtt.empty() ? 0.0 : median(rtt), "us",
            rtt.size());
    PassOptions closed;
    closed.scrape_port = s.server->metrics_port();
    ServePasses bulk_pass;
    serve_passes(s, *in, run, tr, 1, closed, &bulk_pass);
    const ServeTotals probe_bulk = pool_all(bulk_pass);
    run.add("serve.write_blocked_ms", median(probe_bulk.blocked_ms), "ms", 1);
    const auto& depth = probe_bulk.depth;
    double max_depth = depth.empty() ? -1.0 : depth.front();
    for (const double d : depth) max_depth = std::max(max_depth, d);
    if (max_depth < 0) run.fail(1, "exporter did not report serve.queue_depth");
    run.add("serve.queue_depth_max", max_depth, "count", depth.size());
    if (!open) {
      // The closed-loop workloads have no schedule of their own: their
      // lateness comes from one paced pass, without exporter scrapes.
      PassOptions paced;
      paced.pace = Pace::kOpen;
      ServePasses paced_pass;
      serve_passes(s, *in, run, tr, 1, paced, &paced_pass);
      add_lateness(run, pool_all(paced_pass).late);
    }
  }

  // The workload: untraced and traced passes alternate, so drift in the
  // host cannot pass for tracing overhead. The ledger's roots are the
  // traced passes' own "pass" spans (each is the first span its pass
  // opens).
  const std::size_t passes = server_workload ? (open ? 2 : 6) : 8;
  shape.passes = 2 * passes;
  Tracer off(false);
  std::vector<int> roots;
  double untraced_s = 0.0, traced_s = 0.0;
  if (!server_workload) {
    replay_passes(*in, run, off, 2, 0);
    std::vector<double> a, b;
    for (std::size_t k = 0; k < passes; ++k) {
      a.push_back(replay_pass(*in, run, off, -1));
      roots.push_back(static_cast<int>(tr.spans().size()));
      b.push_back(replay_pass(*in, run, tr, static_cast<int>(k)));
    }
    untraced_s = median(a);
    traced_s = median(b);
    std::vector<double> fresh, predict;
    replay_latency_passes(*in, run, false, fresh, predict);
    add_latency(run, "fresh_ms", fresh, true);
    add_latency(run, "predict_ms", predict, true);
  } else {
    PassOptions po;
    po.pace = open ? Pace::kOpen : Pace::kClosed;
    ServePasses untraced, traced;
    for (std::size_t k = 0; k < passes; ++k) {
      serve_passes(s, *in, run, off, 1, po, &untraced);
      roots.push_back(static_cast<int>(tr.spans().size()));
      serve_passes(s, *in, run, tr, 1, po, &traced);
    }
    const ServeTotals a = pool_all(untraced), b = pool_all(traced);
    untraced_s = median(a.pass_s);
    traced_s = median(b.pass_s);
    add_latency(run, "fresh_ms", a.fresh, true);
    add_latency(run, "predict_ms", a.predict, true);
    if (open) add_lateness(run, a.late);
  }
  const double overhead_pct = 100.0 * (traced_s - untraced_s) / untraced_s;
  {
    Scope sc(tr, "probe.serve_drain");
    finish_session(s, run, nullptr);
  }
  std::string dump;
  {
    std::ifstream f(dump_path);
    std::stringstream ss;
    ss << f.rdbuf();
    dump = ss.str();
  }
  if (dump.empty()) run.fail(1, "no DIGG_METRICS dump from the server");
  run.add("serve.backpressure", dump_value(dump, "serve.backpressure"), "count", 1);
  run.add("serve.ingest_us_p99", dump_value(dump, "serve.ingest_us_p99"), "us", 1);
  run.add("stream.vis_rebuilds", dump_value(dump, "stream.vis_rebuilds"), "count", 1);
  tr.close(top);

  const Tracer::Ledger led = tr.ledger(roots);
  run.add("ledger.residual_pct", 100.0 * led.residual_ms / led.wall_ms, "%",
          roots.size());
  run.add("trace.overhead_pct", overhead_pct, "%", 2 * passes);
  const std::string tag = args.workload + "-seed" + std::to_string(args.seed);
  std::ofstream(fs::path(args.out_dir) / ("trace-" + tag + ".json"))
      << tr.chrome_json();
  const std::string table =
      format_ledger(led, args.workload + " (" + std::to_string(passes) +
                             " traced passes)") +
      format_ledger(tr.ledger({top}), "whole traced run");
  std::ofstream(fs::path(args.out_dir) / ("ledger-" + tag + ".txt")) << table;
  std::fputs(table.c_str(), stdout);
  std::printf("tracing overhead: median pass %.3f ms untraced, %.3f ms "
              "traced, over %zu alternating pairs (%+.2f%%)\n",
              untraced_s * 1e3, traced_s * 1e3, passes, overhead_pct);
  return shape;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const unsigned nproc = usable_cpus();
  const bool server = args.workload != "replay" || args.trace;
  const unsigned budget =
      server ? kClientThreads + kPoolThreads + kServiceThreads : kPoolThreads;
  if (nproc == 0 || budget > nproc) {
    std::fprintf(stderr,
                 "perfbench: refusing to run: %u client + %u DIGG_THREADS + "
                 "%u server service threads exceed nproc=%u\n",
                 kClientThreads, kPoolThreads, kServiceThreads, nproc);
    return 3;
  }
  g_deadline_s = now_s() + kRunBudgetS;
  // Pin the in-process pool before anything creates it.
  ::setenv("DIGG_THREADS", std::to_string(kPoolThreads).c_str(), 1);
  digg::runtime::set_default_threads(kPoolThreads);
  std::filesystem::create_directories(args.out_dir);

  Run run;
  Shape shape;
  try {
    shape = args.trace ? trace_run(args, run) : measure(args, run);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  print_result(args, run, shape);
  return run.failed == 0 ? 0 : 1;
}
