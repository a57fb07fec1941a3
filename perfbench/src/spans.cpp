#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {

namespace {

struct Span {
  const char* name;
  std::uint64_t parent;
  std::int64_t t0_ns;
  std::int64_t t1_ns;
};

/// One thread's spans.  Owned by the registry, so a pool thread that exits
/// (par::set_thread_count recreates the pool) leaves its spans behind.
struct ThreadBuffer {
  std::uint32_t slot;
  std::vector<Span> spans;
  std::uint64_t open = 0;  ///< innermost open span on this thread
};

std::mutex registry_mu;
std::vector<std::unique_ptr<ThreadBuffer>> registry;  // guarded by registry_mu

ThreadBuffer& local_buffer() {
  thread_local ThreadBuffer* buf = [] {
    std::lock_guard<std::mutex> lock(registry_mu);
    registry.push_back(std::make_unique<ThreadBuffer>());
    registry.back()->slot = static_cast<std::uint32_t>(registry.size() - 1);
    registry.back()->spans.reserve(1 << 16);
    return registry.back().get();
  }();
  return *buf;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Span ids: (thread slot + 1) << 40 | (index + 1); 0 means "no span".
std::uint64_t make_id(std::uint32_t slot, std::size_t index) {
  return (static_cast<std::uint64_t>(slot) + 1) << 40 |
         (static_cast<std::uint64_t>(index) + 1);
}

struct Flat {
  std::uint64_t id;
  const Span* span;
};

std::vector<Flat> flatten() {
  std::lock_guard<std::mutex> lock(registry_mu);
  std::vector<Flat> all;
  for (const auto& buf : registry)
    for (std::size_t i = 0; i < buf->spans.size(); ++i)
      all.push_back({make_id(buf->slot, i), &buf->spans[i]});
  return all;
}

}  // namespace

SpanScope::SpanScope(const char* name) : SpanScope(name, local_buffer().open) {}

SpanScope::SpanScope(const char* name, std::uint64_t parent) {
  ThreadBuffer& buf = local_buffer();
  id_ = make_id(buf.slot, buf.spans.size());
  buf.spans.push_back({name, parent, now_ns(), 0});
  prev_open_ = buf.open;
  buf.open = id_;
}

SpanScope::~SpanScope() {
  ThreadBuffer& buf = local_buffer();
  const std::size_t index = (id_ & ((std::uint64_t{1} << 40) - 1)) - 1;
  buf.spans[index].t1_ns = now_ns();
  buf.open = prev_open_;
}

std::uint64_t current_span() { return local_buffer().open; }

std::map<std::string, LayerTime> summarize_spans() {
  const std::vector<Flat> all = flatten();
  std::unordered_map<std::uint64_t, std::vector<std::pair<std::int64_t,
                                                          std::int64_t>>>
      children;
  for (const Flat& f : all)
    if (f.span->parent != 0)
      children[f.span->parent].emplace_back(f.span->t0_ns, f.span->t1_ns);

  std::map<std::string, LayerTime> out;
  for (const Flat& f : all) {
    const Span& s = *f.span;
    const std::int64_t dur = s.t1_ns - s.t0_ns;
    std::int64_t covered = 0;
    if (auto it = children.find(f.id); it != children.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      std::int64_t cur0 = 0, cur1 = -1;
      for (auto [a, b] : iv) {
        a = std::max(a, s.t0_ns);
        b = std::min(b, s.t1_ns);
        if (b <= a) continue;
        if (a > cur1) {
          if (cur1 > cur0) covered += cur1 - cur0;
          cur0 = a;
          cur1 = b;
        } else {
          cur1 = std::max(cur1, b);
        }
      }
      if (cur1 > cur0) covered += cur1 - cur0;
    }
    LayerTime& lt = out[s.name];
    ++lt.calls;
    lt.total_s += static_cast<double>(dur) * 1e-9;
    lt.self_s += static_cast<double>(dur - covered) * 1e-9;
  }
  return out;
}

bool write_spans(const std::string& path) {
  const std::vector<Flat> all = flatten();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::int64_t origin = INT64_MAX;
  for (const Flat& fl : all) origin = std::min(origin, fl.span->t0_ns);
  for (const Flat& fl : all)
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                 "\"start_us\":%.3f,\"end_us\":%.3f}\n",
                 fl.span->name, static_cast<unsigned long long>(fl.id),
                 static_cast<unsigned long long>(fl.span->parent),
                 static_cast<double>(fl.span->t0_ns - origin) * 1e-3,
                 static_cast<double>(fl.span->t1_ns - origin) * 1e-3);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
