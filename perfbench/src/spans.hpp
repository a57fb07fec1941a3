// In-memory spans for the traced run: name, start, end, parent.  Each
// thread appends to its own buffer (no lock on the recording path); spans
// are read back only between phases, after the pool has joined the work.
// A span opened on a pool thread names its parent explicitly, because the
// span that dispatched the work is open on another thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

/// Opens a span for the lifetime of the object.
class SpanScope {
 public:
  /// Parent: the innermost span open on this thread (0 = none).
  explicit SpanScope(const char* name);
  /// Parent given explicitly (work handed to a pool thread).
  SpanScope(const char* name, std::uint64_t parent);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  std::uint64_t id_;
  std::uint64_t prev_open_;
};

/// The innermost span open on the calling thread (0 = none): the parent
/// to hand to spans opened on pool threads.
std::uint64_t current_span();

/// Aggregate of every span with one name.  Self time is the span's
/// duration minus the union of the intervals its child spans cover.
struct LayerTime {
  std::size_t calls = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

/// Totals per span name over everything recorded since the last clear.
std::map<std::string, LayerTime> summarize_spans();

/// Writes the recorded spans as JSONL, one object per span (times in µs
/// from the first span).  Returns false when the file cannot be written.
bool write_spans(const std::string& path);

}  // namespace perfbench
