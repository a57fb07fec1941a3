#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "obs/json.hpp"

namespace rftc::obs {

namespace {

/// Atomic min/max via CAS loops (no std::atomic<double>::fetch_min yet).
void atomic_min(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v < cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v > cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

int Histogram::bucket_for(double v) {
  if (!(v > 0.0)) return 0;  // nonpositive and NaN
  int exp = 0;
  const double frac = std::frexp(v, &exp);  // v = frac * 2^exp, frac in [.5,1)
  if (exp <= kMinExp) return 1;
  if (exp > kMaxExp) return kBucketCount - 1;
  const int sub = std::min(kSubBuckets - 1,
                           static_cast<int>((frac - 0.5) * 2.0 * kSubBuckets));
  return 1 + (exp - 1 - kMinExp) * kSubBuckets + sub;
}

double Histogram::bucket_mid(int bucket) {
  if (bucket <= 0) return 0.0;
  const int geo = bucket - 1;
  const int exp = kMinExp + geo / kSubBuckets;  // bucket spans [2^exp, 2^(exp+1))
  const int sub = geo % kSubBuckets;
  const double lo = std::ldexp(1.0, exp);
  const double width = lo / kSubBuckets;
  return lo + width * (static_cast<double>(sub) + 0.5);
}

void Histogram::observe(double v) {
  const std::uint64_t n = count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  if (n == 0) {
    // First sample initialises min/max; racy first observers fall through
    // to the CAS path below, so the result is still exact.
    min_.store(v, std::memory_order_relaxed);
    max_.store(v, std::memory_order_relaxed);
  } else {
    atomic_min(min_, v);
    atomic_max(max_, v);
  }
  buckets_[static_cast<std::size_t>(bucket_for(v))].fetch_add(
      1, std::memory_order_relaxed);
}

double Histogram::min() const {
  return count() == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
}

double Histogram::max() const {
  return count() == 0 ? 0.0 : max_.load(std::memory_order_relaxed);
}

double Histogram::mean() const {
  const std::uint64_t n = count();
  return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

double Histogram::quantile(double q) const {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the q-th sample (1-based, nearest-rank definition).
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(n)));
  const std::uint64_t target = std::max<std::uint64_t>(rank, 1);
  std::uint64_t cum = 0;
  for (int b = 0; b < kBucketCount; ++b) {
    cum += buckets_[static_cast<std::size_t>(b)].load(
        std::memory_order_relaxed);
    if (cum >= target) {
      const double est = b == 0 ? std::min(0.0, min()) : bucket_mid(b);
      return std::clamp(est, min(), max());
    }
  }
  return max();
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot s;
  s.count = count();
  s.sum = sum();
  s.min = min();
  s.max = max();
  s.p50 = quantile(0.50);
  s.p95 = quantile(0.95);
  s.p99 = quantile(0.99);
  return s;
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(0.0, std::memory_order_relaxed);
  max_.store(0.0, std::memory_order_relaxed);
}

Registry& Registry::global() {
  static Registry* r = new Registry;  // leaked: usable from atexit handlers
  return *r;
}

Counter& Registry::counter(std::string_view name) {
  std::lock_guard lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end())
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end())
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name) {
  std::lock_guard lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end())
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  return *it->second;
}

std::string Registry::to_json() const {
  std::lock_guard lock(mu_);
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) out += ',';
    first = false;
    out += json::quote(name) + ':' + std::to_string(c->value());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) out += ',';
    first = false;
    out += json::quote(name) + ':' + json::number(g->value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out += ',';
    first = false;
    const Histogram::Snapshot s = h->snapshot();
    out += json::quote(name) + ":{\"count\":" + std::to_string(s.count) +
           ",\"sum\":" + json::number(s.sum) +
           ",\"min\":" + json::number(s.min) +
           ",\"max\":" + json::number(s.max) +
           ",\"p50\":" + json::number(s.p50) +
           ",\"p95\":" + json::number(s.p95) +
           ",\"p99\":" + json::number(s.p99) + '}';
  }
  out += "}}";
  return out;
}

void Registry::write_text(std::FILE* out) const {
  std::lock_guard lock(mu_);
  std::fprintf(out, "-- rftc::obs metrics --\n");
  for (const auto& [name, c] : counters_)
    std::fprintf(out, "counter   %-40s %llu\n", name.c_str(),
                 static_cast<unsigned long long>(c->value()));
  for (const auto& [name, g] : gauges_)
    std::fprintf(out, "gauge     %-40s %g\n", name.c_str(), g->value());
  for (const auto& [name, h] : histograms_) {
    const Histogram::Snapshot s = h->snapshot();
    std::fprintf(out,
                 "histogram %-40s count %llu mean %g p50 %g p95 %g p99 %g "
                 "max %g\n",
                 name.c_str(), static_cast<unsigned long long>(s.count),
                 s.count ? s.sum / static_cast<double>(s.count) : 0.0, s.p50,
                 s.p95, s.p99, s.max);
  }
}

void Registry::visit_unlocked(void (*fn)(void* ctx, const char* name,
                                         const Counter* counter,
                                         const Gauge* gauge,
                                         const Histogram* histogram),
                              void* ctx) const {
  for (const auto& [name, c] : counters_)
    fn(ctx, name.c_str(), c.get(), nullptr, nullptr);
  for (const auto& [name, g] : gauges_)
    fn(ctx, name.c_str(), nullptr, g.get(), nullptr);
  for (const auto& [name, h] : histograms_)
    fn(ctx, name.c_str(), nullptr, nullptr, h.get());
}

void Registry::reset_values() {
  std::lock_guard lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

}  // namespace rftc::obs
