#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <system_error>

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

double tv_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

rusage usage(int who) {
  rusage ru{};
  ::getrusage(who, &ru);
  return ru;
}

/// JSON string literal (the values here are plain ASCII identifiers and
/// paths; quote and backslash are the only characters that need escaping).
std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

double cpu_s() {
  const rusage self = usage(RUSAGE_SELF);
  const rusage kids = usage(RUSAGE_CHILDREN);
  return tv_s(self.ru_utime) + tv_s(self.ru_stime) + tv_s(kids.ru_utime) +
         tv_s(kids.ru_stime);
}

double peak_rss_mib() {
  const long kib = std::max(usage(RUSAGE_SELF).ru_maxrss,
                            usage(RUSAGE_CHILDREN).ru_maxrss);
  return static_cast<double>(kib) / 1024.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

ScratchDir::ScratchDir(const std::string& parent) {
  std::filesystem::create_directories(parent);
  std::string tmpl = parent + "/run-XXXXXX";
  if (::mkdtemp(tmpl.data()) == nullptr)
    throw std::runtime_error("perfbench: mkdtemp failed under " + parent);
  path_ = std::filesystem::absolute(tmpl).string();
}

ScratchDir::~ScratchDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

Digest& Digest::add(const void* data, std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h_ ^= p[i];
    h_ *= 0x100000001b3ULL;
  }
  return *this;
}

Digest& Digest::add(const analysis::AttackOutcome& out) {
  add(static_cast<std::uint64_t>(out.kind));
  for (std::size_t i = 0; i < out.checkpoints.size(); ++i) {
    add(static_cast<std::uint64_t>(out.checkpoints[i]));
    add(static_cast<std::uint64_t>(out.success[i]));
    add(out.mean_rank[i]);
    add(out.peak_corr[i]);
  }
  return *this;
}

Digest& Digest::add(const analysis::TvlaResult& res) {
  add(res.max_abs_t);
  add(static_cast<std::uint64_t>(res.leaking_samples));
  add(static_cast<std::uint64_t>(res.worst_sample));
  for (const double t : res.t_values) add(t);
  return *this;
}

void Result::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  }
}

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics.push_back({name, {value, unit}});
}

void print_result(const Result& r) {
  std::string info = "{";
  for (const auto& [k, v] : r.info) {
    if (info.size() > 1) info += ",";
    info += quoted(k) + ":" + quoted(v);
  }
  info += "}";
  std::string counts = "{";
  for (const auto& [k, v] : r.counts) {
    if (counts.size() > 1) counts += ",";
    counts += quoted(k) + ":" + std::to_string(v);
  }
  counts += "}";
  std::printf("{\"provenance\":%s,\"counts\":%s}\n", info.c_str(),
              counts.c_str());

  std::string metrics = "{";
  for (const auto& [name, vu] : r.metrics) {
    if (metrics.size() > 1) metrics += ",";
    char num[64];
    // %.17g keeps every digit of the double; JSON has no NaN/inf.
    std::snprintf(num, sizeof num, "%.17g",
                  std::isfinite(vu.first) ? vu.first : 0.0);
    metrics += quoted(name) + ":{\"value\":" + num +
               ",\"unit\":" + quoted(vu.second) + "}";
  }
  metrics += "}";
  std::printf(
      "{\"correct\":%s,\"attempted\":%zu,\"failed\":%zu,\"metrics\":%s}\n",
      r.failed == 0 ? "true" : "false", r.attempted, r.failed,
      metrics.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
