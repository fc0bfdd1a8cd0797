// In-memory span recorder for the benchmark's span run.
//
// A span is one call into a layer's public API, timed from the outside:
// (name, start, end, parent span, op id). Spans are appended to a vector
// and only aggregated when the run ends. A layer's self time is its span's
// duration minus the part its child spans cover. With recording off a
// Span costs one branch, which is what keeps the plain run comparable.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Spans {
 public:
  struct Record {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t child_ns = 0;  // time covered by direct children
    std::int32_t parent = -1;
    std::uint64_t op = 0;
  };

  /// Per-name totals over every closed span.
  struct Total {
    std::uint64_t calls = 0;
    double self_s = 0.0;
  };

  bool enabled = false;
  std::uint64_t op = 0;  // id stamped on spans opened from now on

  std::int32_t open(const char* name) {
    const auto idx = static_cast<std::int32_t>(records_.size());
    records_.push_back({name, now_ns(), 0, 0,
                        stack_.empty() ? -1 : stack_.back(), op});
    stack_.push_back(idx);
    return idx;
  }

  void close(std::int32_t idx) {
    Record& r = records_[static_cast<std::size_t>(idx)];
    r.end_ns = now_ns();
    stack_.pop_back();
    if (r.parent >= 0)
      records_[static_cast<std::size_t>(r.parent)].child_ns +=
          r.end_ns - r.start_ns;
  }

  [[nodiscard]] std::map<std::string, Total> totals() const {
    std::map<std::string, Total> out;
    for (const Record& r : records_) {
      Total& t = out[r.name];
      ++t.calls;
      t.self_s += static_cast<double>(r.end_ns - r.start_ns - r.child_ns) * 1e-9;
    }
    return out;
  }

  [[nodiscard]] std::size_t size() const { return records_.size(); }

  /// Dump every span as CSV (name,start_ns,end_ns,self_ns,parent,op);
  /// false on I/O failure.
  bool write_csv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "name,start_ns,end_ns,self_ns,parent,op\n");
    for (const Record& r : records_)
      std::fprintf(f, "%s,%lld,%lld,%lld,%d,%llu\n", r.name,
                   static_cast<long long>(r.start_ns),
                   static_cast<long long>(r.end_ns),
                   static_cast<long long>(r.end_ns - r.start_ns - r.child_ns),
                   r.parent, static_cast<unsigned long long>(r.op));
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Record> records_;
  std::vector<std::int32_t> stack_;
};

/// RAII span around one layer call; a no-op unless recording is on.
class Span {
 public:
  Span(Spans& spans, const char* name)
      : spans_(spans), idx_(spans.enabled ? spans.open(name) : -1) {}
  ~Span() {
    if (idx_ >= 0) spans_.close(idx_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Spans& spans_;
  std::int32_t idx_;
};

}  // namespace perfbench
