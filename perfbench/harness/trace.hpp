#pragma once
// In-memory span recorder for the benchmark's traced runs.
//
// A span wraps one call the benchmark makes into a library layer: a name, a
// start, an end, the span that was open when it began (its parent), and up
// to kMaxAttrs named counters recorded at the same boundary (updates,
// iterations, mutations, ...), so per-layer ratios are measured where the
// work happens. Spans stay in memory and are written out once, when the run
// ends. With tracing off every Scope is a no-op apart from one branch, so the
// untraced run executes the same benchmark code.

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds since `origin`.
[[nodiscard]] inline std::int64_t ns_since(Clock::time_point origin) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin)
      .count();
}

struct Span {
  static constexpr std::size_t kMaxAttrs = 8;
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = -1;  // -1 while open
  std::int32_t parent = -1;  // index into the span vector, -1 for a root
  std::uint8_t num_attrs = 0;
  std::array<std::pair<const char*, double>, kMaxAttrs> attrs{};

  [[nodiscard]] double ms() const { return (end_ns - start_ns) * 1e-6; }
  [[nodiscard]] double ns() const { return static_cast<double>(end_ns - start_ns); }
  /// The attribute's value, or `fallback` when the span does not carry it.
  [[nodiscard]] double attr(std::string_view key, double fallback = 0.0) const;
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {
    if (on_) spans_.reserve(1 << 16);
  }
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// RAII handle on one open span; closes it on destruction.
  class Scope {
   public:
    Scope(Scope&& o) noexcept : t_(o.t_), idx_(o.idx_) { o.t_ = nullptr; }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    Scope& operator=(Scope&&) = delete;
    ~Scope() { end(); }

    /// Records a counter on the span (ignored when tracing is off or the
    /// span already carries kMaxAttrs counters).
    void set(const char* key, double value);
    /// Closes the span early (idempotent).
    void end();

   private:
    friend class Tracer;
    Scope(Tracer* t, std::int32_t idx) : t_(t), idx_(idx) {}
    Tracer* t_;
    std::int32_t idx_;
  };

  /// Opens a span named `name` (a string literal: only the pointer is kept)
  /// as a child of the innermost open span.
  [[nodiscard]] Scope span(const char* name);

  [[nodiscard]] bool on() const { return on_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Closed spans named `name`, in start order.
  [[nodiscard]] std::vector<const Span*> named(std::string_view name) const;

  /// Writes every span as one JSON object per line. Returns false when the
  /// file cannot be written.
  bool write_jsonl(const std::string& path) const;

 private:
  bool on_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::int32_t open_ = -1;  // innermost open span
};

}  // namespace perfbench
