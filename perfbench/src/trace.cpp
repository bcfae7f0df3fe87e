#include "perfbench/src/trace.h"

#include <algorithm>
#include <cstdio>
#include <map>

namespace perfbench {

double now_s() {
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double>(Clock::now() - origin).count();
}

int Tracer::open(const char* name, int pass) {
  if (!enabled_) return -1;
  const int parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back({name, now_s(), 0.0, parent, pass});
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void Tracer::close(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_s = now_s();
  // Spans close in LIFO order (Scope); tolerate out-of-order closes.
  const auto it = std::find(stack_.begin(), stack_.end(), id);
  if (it != stack_.end()) stack_.erase(it, stack_.end());
}

void Tracer::record(const char* name, double start_s, double end_s, int pass) {
  if (!enabled_) return;
  const int parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back({name, start_s, end_s, parent, pass});
}

Tracer::Ledger Tracer::ledger(const std::vector<int>& roots) const {
  Ledger out;
  const auto n = spans_.size();
  // Children's covered time per span. Children of one parent never
  // overlap (one recording thread), so their durations simply add.
  std::vector<double> child_s(n, 0.0);
  std::vector<bool> under(n, false), is_root(n, false);
  std::size_t first = n;
  for (const int r : roots) {
    const auto i = static_cast<std::size_t>(r);
    under[i] = is_root[i] = true;
    first = std::min(first, i);
    out.wall_ms += (spans_[i].end_s - spans_[i].start_s) * 1e3;
  }
  std::map<std::string, Row> rows;
  for (std::size_t i = first + 1; i < n; ++i) {
    const int p = spans_[i].parent;
    if (p < 0 || !under[static_cast<std::size_t>(p)] || under[i]) continue;
    under[i] = true;
    const double dur = spans_[i].end_s - spans_[i].start_s;
    child_s[static_cast<std::size_t>(p)] += dur;
  }
  for (std::size_t i = first + 1; i < n; ++i) {
    if (!under[i] || is_root[i]) continue;
    const double dur = spans_[i].end_s - spans_[i].start_s;
    Row& r = rows[spans_[i].name];
    r.name = spans_[i].name;
    ++r.count;
    r.total_ms += dur * 1e3;
    r.self_ms += (dur - child_s[i]) * 1e3;
  }
  for (auto& [name, row] : rows) {
    out.stages_ms += row.self_ms;
    out.rows.push_back(row);
  }
  out.residual_ms = out.wall_ms - out.stages_ms;
  std::sort(out.rows.begin(), out.rows.end(),
            [](const Row& a, const Row& b) { return a.self_ms > b.self_ms; });
  return out;
}

std::string Tracer::chrome_json() const {
  std::string out = "{\"traceEvents\":[\n";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d,\"pass\":%d}}",
                  i == 0 ? "" : ",\n", s.name, s.start_s * 1e6,
                  (s.end_s - s.start_s) * 1e6, i, s.parent, s.pass);
    out += buf;
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

std::string format_ledger(const Tracer::Ledger& ledger,
                          const std::string& title) {
  std::string out = "ledger: " + title + "\n";
  char buf[200];
  std::snprintf(buf, sizeof(buf), "  %-24s %8s %12s %12s %7s\n", "span",
                "count", "total_ms", "self_ms", "share");
  out += buf;
  const double wall = ledger.wall_ms > 0 ? ledger.wall_ms : 1.0;
  for (const auto& r : ledger.rows) {
    std::snprintf(buf, sizeof(buf), "  %-24s %8zu %12.3f %12.3f %6.2f%%\n",
                  r.name.c_str(), r.count, r.total_ms, r.self_ms,
                  100.0 * r.self_ms / wall);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "  stages %.3f ms of wall %.3f ms; residual %.3f ms (%.2f%%)\n",
                ledger.stages_ms, ledger.wall_ms, ledger.residual_ms,
                100.0 * ledger.residual_ms / wall);
  out += buf;
  return out;
}

}  // namespace perfbench
