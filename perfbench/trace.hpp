// In-memory span recorder for the benchmark's traced run. Spans are kept in
// one buffer per thread (ranks 0..P-1, plus the main thread) and
// written once at exit as Chrome trace-event JSON, which Perfetto
// (ui.perfetto.dev) and chrome://tracing open directly.
//
// Every span is recorded by the benchmark around its own call into a layer
// of the program; nothing here reaches inside the program. A span carries a
// unique id, its parent's id (-1 for roots; a rank's body span names the
// main thread's Machine::run span as its parent), the operation id shared by the
// ranks' spans of one multiply or solve, and free-form JSON args.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  /// `threads` buffers: slots 0..threads-2 are ranks, the last is the main thread.
  explicit Tracer(int threads)
      : origin_(std::chrono::steady_clock::now()),
        bufs_(static_cast<std::size_t>(threads)),
        stacks_(static_cast<std::size_t>(threads)) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] int main_tid() const { return static_cast<int>(bufs_.size()) - 1; }

  /// Opens a span on thread slot `tid`; only that thread may touch the slot.
  /// `parent` < 0 means "the innermost span open on this thread".
  std::int64_t open(int tid, std::string name, const char* cat, std::int64_t op,
                    std::int64_t parent = -1) {
    auto& buf = bufs_[static_cast<std::size_t>(tid)];
    auto& stack = stacks_[static_cast<std::size_t>(tid)];
    const std::int64_t id = (static_cast<std::int64_t>(tid) << 40) |
                            static_cast<std::int64_t>(buf.size());
    if (parent < 0 && !stack.empty()) parent = buf[static_cast<std::size_t>(stack.back())].id;
    buf.push_back(Span{std::move(name), cat, id, parent, op, now_us(), 0.0, {}});
    stack.push_back(buf.size() - 1);
    return id;
  }

  /// Closes the innermost open span of `tid`, attaching `args` (a JSON
  /// object body without braces, e.g. "\"bytes\":12").
  void close(int tid, std::string args = {}) {
    auto& buf = bufs_[static_cast<std::size_t>(tid)];
    auto& stack = stacks_[static_cast<std::size_t>(tid)];
    Span& s = buf[static_cast<std::size_t>(stack.back())];
    stack.pop_back();
    s.dur_us = now_us() - s.ts_us;
    s.args = std::move(args);
  }

  [[nodiscard]] std::size_t span_count() const {
    std::size_t n = 0;
    for (const auto& b : bufs_) n += b.size();
    return n;
  }

  /// Writes every recorded span; returns false when the file cannot be written.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    bool first = true;
    auto sep = [&] {
      if (!first) std::fprintf(f, ",\n");
      first = false;
    };
    for (int t = 0; t <= main_tid(); ++t) {
      sep();
      std::fprintf(f,
                   "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":%d,"
                   "\"args\":{\"name\":\"%s%d\"}}",
                   t, t == main_tid() ? "main" : "rank ", t == main_tid() ? 0 : t);
      for (const auto& s : bufs_[static_cast<std::size_t>(t)]) {
        sep();
        std::fprintf(f,
                     "{\"ph\":\"X\",\"name\":\"%s\",\"cat\":\"%s\",\"pid\":1,\"tid\":%d,"
                     "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,\"parent\":%lld,"
                     "\"op\":%lld%s%s}}",
                     s.name.c_str(), s.cat, t, s.ts_us, s.dur_us, static_cast<long long>(s.id),
                     static_cast<long long>(s.parent), static_cast<long long>(s.op),
                     s.args.empty() ? "" : ",", s.args.c_str());
      }
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    std::string name;
    const char* cat;
    std::int64_t id;
    std::int64_t parent;
    std::int64_t op;
    double ts_us;
    double dur_us;
    std::string args;
  };

  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - origin_)
        .count();
  }

  std::chrono::steady_clock::time_point origin_;
  std::vector<std::vector<Span>> bufs_;
  std::vector<std::vector<std::size_t>> stacks_;
};

/// RAII span that does nothing when `tracer` is null (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, int tid, std::string name, const char* cat, std::int64_t op,
             std::int64_t parent = -1)
      : tracer_(tracer), tid_(tid) {
    if (tracer_ != nullptr) id_ = tracer_->open(tid_, std::move(name), cat, op, parent);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->close(tid_, std::move(args_));
  }
  /// Args attached when the span closes (JSON object body without braces).
  void set_args(std::string args) { args_ = std::move(args); }
  [[nodiscard]] bool on() const { return tracer_ != nullptr; }
  /// This span's id (-1 when tracing is off), for parents on other threads.
  [[nodiscard]] std::int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int tid_;
  std::int64_t id_ = -1;
  std::string args_;
};

}  // namespace perfbench
