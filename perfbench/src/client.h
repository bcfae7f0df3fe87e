#pragma once
// The benchmark's single-threaded serve client: one non-blocking loopback
// connection driven by poll(2), sending a PassPlan either closed loop (as
// fast as the socket takes it) or open loop (each event on its corpus-time
// schedule), and timing every reply-bearing request from the moment it was
// due. Replies are checked against the oracle as they arrive.

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/src/load.h"
#include "perfbench/src/trace.h"
#include "src/serve/protocol.h"
#include "src/stream/engine.h"

namespace perfbench {

enum class Pace { kClosed, kOpen };

/// What one pass measured and how its replies compared.
struct PassStats {
  double start_s = 0.0;  // first write (closed) or schedule origin (open)
  double end_s = 0.0;    // last reply received
  double write_blocked_s = 0.0;
  std::vector<double> fresh_ms;    // per sync: due of its last vote -> reply
  std::vector<double> predict_ms;  // per v10 story: due of vote 10 -> reply
  std::vector<double> late_ms;     // open loop: send time - due time
  std::vector<double> queue_depth; // exporter samples (when scraping)
  std::size_t attempted = 0;       // events + reply-bearing requests
  std::size_t failed = 0;          // mismatches, error frames, timeouts
  std::string error;               // first failure, for the log
};

/// Connects to 127.0.0.1:port (TCP_NODELAY, non-blocking). Throws on
/// failure.
[[nodiscard]] int connect_nonblocking(std::uint16_t port);

struct PassOptions {
  Pace pace = Pace::kClosed;
  double stall_timeout_s = 20;    // no reply for this long fails the pass
  std::uint16_t scrape_port = 0;  // exporter sampled every 32 syncs (0: off)
};

/// Sends pass `pass` (the plan must already be patched for it) over `fd`
/// and waits for every reply. `oracle` is by story slot.
[[nodiscard]] PassStats run_pass(
    int fd, digg::serve::FrameDecoder& decoder, const PassPlan& plan,
    std::uint32_t pass, const std::vector<digg::stream::StoryOutcome>& oracle,
    const PassOptions& opts, Tracer& tracer);

/// One blocking GET of the exporter's text exposition; returns the value of
/// `metric` (Prometheus name) or a negative number when absent.
[[nodiscard]] double scrape_metric(std::uint16_t port, const std::string& metric);

}  // namespace perfbench
