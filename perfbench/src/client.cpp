#include "perfbench/src/client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <variant>

#include "src/serve/client.h"

namespace perfbench {

namespace serve = digg::serve;
using digg::stream::StoryOutcome;

int connect_nonblocking(std::uint16_t port) {
  const int fd = serve::connect_loopback(port);
  if (fd < 0) throw std::runtime_error("connect to 127.0.0.1 failed");
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    ::close(fd);
    throw std::runtime_error("fcntl O_NONBLOCK failed");
  }
  return fd;
}

namespace {

bool same_verdicts(const serve::PredictReplyMsg& p, const StoryOutcome& e) {
  return p.found == 1 &&
         p.has_c45 == (e.predicted_interesting.has_value() ? 1 : 0) &&
         p.c45_yes == (e.predicted_interesting.value_or(false) ? 1 : 0) &&
         p.has_bayes == (e.bayes_interesting.has_value() ? 1 : 0) &&
         p.bayes_yes == (e.bayes_interesting.value_or(false) ? 1 : 0) &&
         p.bayes_expected_final == e.bayes_expected_final;
}

std::string kind_name(Request::Kind k) {
  switch (k) {
    case Request::Kind::kSync: return "sync";
    case Request::Kind::kPredict: return "predict@v10";
    case Request::Kind::kFinalSync: return "final sync";
    case Request::Kind::kFinalState: return "final state";
    case Request::Kind::kFinalPredict: return "final predict";
  }
  return "?";
}

/// Compares one reply with the oracle's final outcome for its story.
/// Returns an empty string on a match, else what differed.
std::string check_reply(const Request& req, const serve::Message& reply,
                        std::uint32_t story_id, std::uint32_t token,
                        const StoryOutcome& expect) {
  const std::string what = kind_name(req.kind) + " story " +
                           std::to_string(story_id) + ": ";
  if (const auto* e = std::get_if<serve::ErrorMsg>(&reply))
    return what + "error frame code " +
           std::to_string(static_cast<unsigned>(e->code));
  switch (req.kind) {
    case Request::Kind::kSync:
    case Request::Kind::kFinalSync: {
      const auto* s = std::get_if<serve::SyncReplyMsg>(&reply);
      if (s == nullptr || s->token != token) return "sync: bad reply";
      return {};
    }
    case Request::Kind::kPredict:
    case Request::Kind::kFinalPredict: {
      const auto* p = std::get_if<serve::PredictReplyMsg>(&reply);
      if (p == nullptr || p->story_id != story_id) return what + "bad reply";
      if (req.kind == Request::Kind::kPredict && p->has_c45 != 1)
        return what + "no C4.5 verdict after vote 10";
      if (!same_verdicts(*p, expect)) return what + "verdict mismatch";
      return {};
    }
    case Request::Kind::kFinalState: {
      const auto* s = std::get_if<serve::StateReplyMsg>(&reply);
      if (s == nullptr || s->story_id != story_id) return what + "bad reply";
      bool ok = s->found == 1 && s->votes == expect.final_votes &&
                s->fans1 == expect.fans1 &&
                s->cascade.size() == expect.cascade.size() &&
                s->promoted == (expect.promoted_time.has_value() ? 1 : 0) &&
                s->promoted_time == expect.promoted_time.value_or(0.0);
      for (std::size_t k = 0; ok && k < s->cascade.size(); ++k)
        ok = s->cascade[k] == expect.cascade[k];
      return ok ? std::string() : what + "state mismatch";
    }
  }
  return what + "unknown request";
}

}  // namespace

PassStats run_pass(int fd, serve::FrameDecoder& decoder, const PassPlan& plan,
                   std::uint32_t pass, const std::vector<StoryOutcome>& oracle,
                   const PassOptions& opts, Tracer& tracer) {
  constexpr std::size_t kChunk = 64 << 10;  // closed loop: bytes per write
  constexpr double kLeadS = 0.002;  // open loop: schedule origin after now
  constexpr std::size_t kScrapeEvery = 32;  // syncs between exporter samples
  PassStats st;
  const auto& reqs = plan.requests;
  const std::size_t n_events = plan.events();
  const auto tokens = static_cast<std::uint32_t>(plan.token_fields.size());
  st.attempted = n_events + reqs.size();
  std::vector<double> due(reqs.size(), 0.0);
  std::size_t stamped = 0;   // requests whose clock has started
  std::size_t answered = 0;  // replies matched so far
  std::uint32_t sync_k = 0;  // next sync token index
  std::size_t syncs_seen = 0;
  std::size_t released = 0;  // open loop: events due so far
  std::size_t off = 0;       // bytes written
  const bool open = opts.pace == Pace::kOpen;
  st.start_s = open ? now_s() + kLeadS : now_s();
  char rbuf[64 << 10];

  auto fail = [&st](std::string why) {
    ++st.failed;
    if (st.error.empty()) st.error = std::move(why);
  };

  while (answered < reqs.size()) {
    const double t = now_s();
    // 1. How far the byte stream may go now.
    std::size_t lim;
    if (open) {
      const std::size_t before = released;
      while (released < n_events &&
             st.start_s + plan.event_due_s[released] <= t)
        ++released;
      if (released > before)
        st.late_ms.push_back(
            latency_ms(st.start_s + plan.event_due_s[before], t));
      lim = released == 0 ? 0 : plan.limit_after(released - 1);
    } else {
      lim = std::min(plan.bytes.size(), off + kChunk);
    }
    // 2. Start the clock of every request whose origin event is offered.
    while (stamped < reqs.size() && reqs[stamped].origin_end <= lim) {
      due[stamped] = open ? st.start_s + plan.event_due_s[reqs[stamped].origin]
                          : t;
      ++stamped;
    }
    // 3. Write what is due.
    bool blocked = false;
    if (off < lim) {
      const double w0 = now_s();
      const auto w = ::write(fd, plan.bytes.data() + off, lim - off);
      tracer.record("client.write", w0, now_s(), static_cast<int>(pass));
      if (w > 0) {
        off += static_cast<std::size_t>(w);
        blocked = off < lim;
      } else if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        blocked = true;
      } else if (w < 0 && errno == EINTR) {
        continue;
      } else {
        fail("write failed: " + std::string(std::strerror(errno)));
        break;
      }
    }
    // 4. Wait for replies, writability or the next due time. A closed
    // loop with more to send only peeks; the other waits are bounded by
    // the stall timeout.
    enum class Wait { kPeek, kDue, kReply, kBlocked } wait = Wait::kReply;
    if (blocked)
      wait = Wait::kBlocked;
    else if (!open && off < plan.bytes.size())
      wait = Wait::kPeek;
    else if (open && released < n_events)
      wait = Wait::kDue;
    double wait_s = opts.stall_timeout_s;
    if (wait == Wait::kPeek) wait_s = 0.0;
    if (wait == Wait::kDue)
      wait_s = std::clamp(st.start_s + plan.event_due_s[released] - now_s(),
                          0.0, opts.stall_timeout_s);
    timespec ts{};
    ts.tv_sec = static_cast<time_t>(wait_s);
    ts.tv_nsec = static_cast<long>((wait_s - std::floor(wait_s)) * 1e9);
    pollfd pfd{fd, static_cast<short>(POLLIN | (blocked ? POLLOUT : 0)), 0};
    const double p0 = now_s();
    const int pr = ::ppoll(&pfd, 1, &ts, nullptr);
    const double p1 = now_s();
    if (wait == Wait::kBlocked) {
      st.write_blocked_s += p1 - p0;
      tracer.record("client.blocked", p0, p1, static_cast<int>(pass));
    } else if (wait == Wait::kDue) {
      tracer.record("client.pace_wait", p0, p1, static_cast<int>(pass));
    } else if (wait == Wait::kReply) {
      tracer.record("client.reply_wait", p0, p1, static_cast<int>(pass));
    }
    if (pr < 0 && errno != EINTR) {
      fail("poll failed");
      break;
    }
    if (answered < stamped && p1 - due[answered] > opts.stall_timeout_s) {
      fail("timeout waiting for a reply");
      break;
    }
    if (pr <= 0) continue;
    if ((pfd.revents & (POLLERR | POLLHUP)) && !(pfd.revents & POLLIN)) {
      fail("connection closed by server");
      break;
    }
    if (!(pfd.revents & POLLIN)) continue;
    // 5. Read and check every complete reply.
    const double r0 = now_s();
    bool closed = false;
    for (;;) {
      const auto n = ::read(fd, rbuf, sizeof(rbuf));
      if (n > 0) {
        decoder.feed(rbuf, static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0) closed = true;
      break;  // EAGAIN: drained for now
    }
    const double t_reply = now_s();
    serve::Message msg;
    try {
      while (answered < reqs.size() && decoder.next(msg)) {
        const Request& r = reqs[answered];
        const bool is_sync = r.kind == Request::Kind::kSync ||
                             r.kind == Request::Kind::kFinalSync;
        const std::uint32_t id =
            is_sync ? 0
                    : pass_story_id(oracle[r.story].id, pass, plan.stride);
        const std::uint32_t token = pass * tokens + sync_k;
        if (answered >= stamped) {
          fail("reply before its request was sent");
          break;
        }
        const std::string bad = check_reply(r, msg, id, token, oracle[r.story]);
        if (!bad.empty()) fail(bad);
        if (is_sync) {
          ++sync_k;
          st.fresh_ms.push_back(latency_ms(due[answered], t_reply));
          if (opts.scrape_port != 0 && ++syncs_seen % kScrapeEvery == 0)
            st.queue_depth.push_back(
                scrape_metric(opts.scrape_port, "digg_serve_queue_depth"));
        } else if (r.kind == Request::Kind::kPredict) {
          st.predict_ms.push_back(latency_ms(due[answered], t_reply));
        }
        ++answered;
      }
    } catch (const serve::ProtocolError& e) {
      fail(std::string("protocol error: ") + e.what());
      break;
    }
    tracer.record("client.read_check", r0, now_s(), static_cast<int>(pass));
    st.end_s = t_reply;
    if (closed && answered < reqs.size()) {
      fail("connection closed mid-pass");
      break;
    }
  }
  if (answered < reqs.size()) st.failed += reqs.size() - answered;
  return st;
}

double scrape_metric(std::uint16_t port, const std::string& metric) {
  const int fd = serve::connect_loopback(port);
  if (fd < 0) return -1.0;
  const std::string req =
      "GET /metrics HTTP/1.0\r\nHost: 127.0.0.1\r\n\r\n";
  std::string body;
  if (serve::write_all(fd, req.data(), req.size())) {
    char buf[16 << 10];
    for (;;) {
      const auto n = ::read(fd, buf, sizeof(buf));
      if (n <= 0) break;
      body.append(buf, static_cast<std::size_t>(n));
    }
  }
  ::close(fd);
  const std::string needle = "\n" + metric + " ";
  const auto at = body.find(needle);
  if (at == std::string::npos) return -1.0;
  return std::strtod(body.c_str() + at + needle.size(), nullptr);
}

}  // namespace perfbench
