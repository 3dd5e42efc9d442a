#include "tracer.h"

#include <algorithm>
#include <fstream>
#include <iomanip>

namespace pb {

Tracer::Tracer() : t0_(Clock::now()) {}

double Tracer::now_s() const {
  return std::chrono::duration<double>(Clock::now() - t0_).count();
}

int Tracer::open(std::string name, int launch) {
  Span s;
  s.name = std::move(name);
  s.parent = open_.empty() ? -1 : open_.back();
  s.launch = launch;
  s.start_s = now_s();
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void Tracer::close(int id) {
  spans_[static_cast<std::size_t>(id)].end_s = now_s();
  // Spans close innermost-first (SpanGuard scoping).
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void Tracer::count(int id, std::string key, double value) {
  spans_[static_cast<std::size_t>(id)].counts.emplace_back(std::move(key),
                                                           value);
}

std::map<std::string, double> Tracer::self_seconds() const {
  // Children of one span run one after another on the benchmark's single
  // driving thread, so the covered time is the sum of their durations.
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0)
      child[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    out[spans_[i].name] +=
        std::max(0.0, spans_[i].end_s - spans_[i].start_s - child[i]);
  return out;
}

namespace {

std::string quoted(const std::string& s) {
  std::string o = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    o += c;
  }
  return o + "\"";
}

}  // namespace

bool Tracer::write_json(const std::string& path,
                        const std::string& header) const {
  std::ofstream f(path);
  if (!f) return false;
  f << std::setprecision(17) << "{" << header << ",\n\"self_s\": {";
  bool first = true;
  for (const auto& [name, s] : self_seconds()) {
    f << (first ? "" : ", ") << quoted(name) << ": " << s;
    first = false;
  }
  f << "},\n\"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << "  {\"id\": " << i << ", \"name\": " << quoted(s.name)
      << ", \"start_s\": " << s.start_s << ", \"end_s\": " << s.end_s
      << ", \"parent\": " << s.parent << ", \"launch\": " << s.launch
      << ", \"counts\": {";
    for (std::size_t c = 0; c < s.counts.size(); ++c)
      f << (c ? ", " : "") << quoted(s.counts[c].first) << ": "
        << s.counts[c].second;
    f << "}}" << (i + 1 < spans_.size() ? "," : "") << "\n";
  }
  f << "]}\n";
  return static_cast<bool>(f);
}

}  // namespace pb
