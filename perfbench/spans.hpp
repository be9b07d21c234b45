// Benchmark-side spans: one per call into a layer (apps generation,
// Machine/Runtime construction, run_per_node, collect, the MPI run, the
// output check). Spans stay in memory and are written once, at the end of
// the run, as Chrome trace-event JSON (opens in Perfetto / chrome://tracing).
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

class Spans {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;  // host steady clock, relative to the recorder
    int64_t end_ns = 0;
    int id = 0;
    int parent = -1;  // -1: root
  };

  /// RAII span: opens on construction, closes on destruction. The span
  /// opened last and not yet closed is the parent of the next one.
  class Scope {
   public:
    Scope(Spans* spans, std::string name) : spans_(spans) {
      if (spans_ != nullptr) index_ = spans_->open(std::move(name));
    }
    ~Scope() {
      if (spans_ != nullptr) spans_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* spans_;
    size_t index_ = 0;
  };

  const std::vector<Span>& spans() const { return spans_; }

  /// Print, per span name, the count, total time and self time (duration
  /// less the time its child spans cover).
  void print_self_times() const {
    struct Row {
      std::string name;
      int count = 0;
      int64_t total_ns = 0;
      int64_t self_ns = 0;
    };
    std::vector<Row> rows;
    std::vector<int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    for (const Span& s : spans_) {
      Row* row = nullptr;
      for (Row& r : rows) {
        if (r.name == s.name) row = &r;
      }
      if (row == nullptr) row = &rows.emplace_back(Row{s.name});
      ++row->count;
      row->total_ns += s.end_ns - s.start_ns;
      row->self_ns +=
          s.end_ns - s.start_ns - child_ns[static_cast<size_t>(s.id)];
    }
    std::printf("  %-28s %6s %12s %12s\n", "span", "count", "total s",
                "self s");
    for (const Row& r : rows) {
      std::printf("  %-28s %6d %12.6f %12.6f\n", r.name.c_str(), r.count,
                  r.total_ns * 1e-9, r.self_ns * 1e-9);
    }
  }

  /// Write all spans as one Chrome trace-event JSON document. `meta` is
  /// stored verbatim (it must be a JSON object) under "otherData".
  bool write_chrome_json(const std::string& path,
                         const std::string& meta) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"otherData\":%s,",
                 meta.c_str());
    std::fprintf(f, "\"traceEvents\":[");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,"
                   "\"parent\":%d}}",
                   i == 0 ? "" : ",", s.name.c_str(), s.start_ns * 1e-3,
                   (s.end_ns - s.start_ns) * 1e-3, s.id, s.parent);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  size_t open(std::string name) {
    Span s;
    s.name = std::move(name);
    s.start_ns = now_ns();
    s.id = static_cast<int>(spans_.size());
    s.parent = open_.empty() ? -1 : spans_[open_.back()].id;
    spans_.push_back(std::move(s));
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  void close(size_t index) {
    spans_[index].end_ns = now_ns();
    if (!open_.empty() && open_.back() == index) open_.pop_back();
  }

  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<size_t> open_;  // indices of the spans still open
};

}  // namespace perfbench
