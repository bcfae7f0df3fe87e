#pragma once
// In-memory spans recorded by the benchmark around its own calls into each
// layer of the program, written out at the end as Chrome trace JSON plus a
// ledger: each span name's self time, and the sum of those stage times
// against the wall clock of the traced window with the unexplained
// residual. A disabled Tracer records nothing and costs one branch.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds on the steady clock since an arbitrary process-wide origin.
[[nodiscard]] double now_s();

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Opens a span under the innermost open one; returns its id (or -1
  /// when disabled). `pass` tags the span with the pass it belongs to
  /// (-1 for setup and probes).
  int open(const char* name, int pass = -1);
  void close(int id);

  /// Records an already-measured interval as a closed child of the
  /// innermost open span (for intervals timed inside a loop).
  void record(const char* name, double start_s, double end_s, int pass = -1);

  struct Span {
    const char* name;
    double start_s;
    double end_s;
    int parent;
    int pass;
  };
  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// One ledger row per span name below the `roots`, with the roots' own
  /// self time reported as the residual; wall is the roots' summed
  /// duration (roots must not nest).
  struct Row {
    std::string name;
    std::size_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  struct Ledger {
    double wall_ms = 0.0;
    double stages_ms = 0.0;    // sum of self times of every non-root span
    double residual_ms = 0.0;  // wall - stages
    std::vector<Row> rows;     // by descending self time
  };
  [[nodiscard]] Ledger ledger(const std::vector<int>& roots) const;

  /// Chrome trace event JSON ("X" events, microseconds).
  [[nodiscard]] std::string chrome_json() const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span: opens on construction, closes on destruction.
class Scope {
 public:
  Scope(Tracer& t, const char* name, int pass = -1)
      : t_(t), id_(t.open(name, pass)) {}
  ~Scope() { t_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  int id_;
};

/// Renders a ledger as a fixed-width table.
[[nodiscard]] std::string format_ledger(const Tracer::Ledger& ledger,
                                        const std::string& title);

}  // namespace perfbench
