// In-memory span recorder for the traced benchmark run.
//
// A span is one call into a simulator layer, timed from the benchmark's
// own code: name, start, end, the enclosing span (parent) and the launch
// it belongs to, plus the counts the call returned. Spans stay in memory
// and are written out once, when the run ends. Untraced code passes a null
// tracer and pays only a null check per call.
#pragma once

#include <chrono>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace pb {

// Host seconds from `t0` to now.
inline double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

class Tracer {
 public:
  Tracer();

  // Open a span nested in the innermost open one; returns its id.
  int open(std::string name, int launch = -1);
  void close(int id);
  // Attach a count returned at this span's boundary.
  void count(int id, std::string key, double value);

  // Per span name: summed duration minus the time covered by child spans.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;

  // JSON dump of every span plus the per-name self times. `header` is a
  // JSON object body (without braces) placed first, e.g. "\"seed\": 1".
  // Returns false when the file cannot be written.
  bool write_json(const std::string& path, const std::string& header) const;

 private:
  using Clock = std::chrono::steady_clock;
  struct Span {
    std::string name;
    double start_s = 0;
    double end_s = 0;
    int parent = -1;
    int launch = -1;
    std::vector<std::pair<std::string, double>> counts;
  };
  [[nodiscard]] double now_s() const;

  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// Scoped span; a null tracer makes it a no-op.
class SpanGuard {
 public:
  SpanGuard(Tracer* t, std::string name, int launch = -1)
      : t_(t), id_(t ? t->open(std::move(name), launch) : -1) {}
  ~SpanGuard() {
    if (t_) t_->close(id_);
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

  void count(std::string key, double value) {
    if (t_) t_->count(id_, std::move(key), value);
  }

 private:
  Tracer* t_;
  int id_;
};

}  // namespace pb
