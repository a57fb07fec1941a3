#include "dist/protocol.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <set>
#include <sstream>
#include <stdexcept>

#include "obs/json.hpp"
#include "util/crc32.hpp"

namespace rftc::dist {

namespace {

using obs::json::Value;

/// Bytes per read(2) call in read_file.
constexpr std::size_t kReadChunk = std::size_t{1} << 20;

[[noreturn]] void bad(const std::string& what) {
  throw std::runtime_error("rftc::dist: " + what);
}

/// Required object member, with kind checking baked in.
const Value& member(const Value& obj, const char* key) {
  const Value* v = obj.find(key);
  if (v == nullptr) bad(std::string("missing field \"") + key + "\"");
  return *v;
}

/// `v` as an unsigned integer no larger than `max`: a JSON number that is
/// integral and in range, so the conversion below is exact and defined.
std::uint64_t as_uint(const Value& v, const std::string& what,
                      std::uint64_t max = UINT64_MAX) {
  // 2^64 as a double; UINT64_MAX itself rounds up to it.
  constexpr double kTwo64 = 18446744073709551616.0;
  if (!v.is_number() || !(v.num >= 0.0) || v.num >= kTwo64 ||
      std::floor(v.num) != v.num || static_cast<std::uint64_t>(v.num) > max)
    bad(what + " must be an integer in [0, " + std::to_string(max) + "]");
  return static_cast<std::uint64_t>(v.num);
}

std::uint64_t member_u64(const Value& obj, const char* key,
                         std::uint64_t max = UINT64_MAX) {
  return as_uint(member(obj, key), key, max);
}

std::string member_str(const Value& obj, const char* key) {
  const Value& v = member(obj, key);
  if (!v.is_string()) bad(std::string(key) + " must be a string");
  return v.str;
}

void check_schema(const Value& obj) {
  if (member_u64(obj, "dist_schema") != kDistSchema)
    bad("unsupported dist_schema");
}

std::string size_list_json(const std::vector<std::size_t>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) out += ",";
    out += std::to_string(v[i]);
  }
  return out + "]";
}

std::string int_list_json(const std::vector<int>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) out += ",";
    out += std::to_string(v[i]);
  }
  return out + "]";
}

std::string spec_json_body(const CampaignSpec& spec) {
  std::ostringstream out;
  out << "\"kind\":" << obs::json::quote(campaign_kind_name(spec.kind))
      << ",\"name\":" << obs::json::quote(spec.name);
  if (spec.kind == CampaignKind::kAttack) {
    out << ",\"store\":" << obs::json::quote(spec.store)
        << ",\"key\":" << obs::json::quote(spec.key_hex) << ",\"leakage\":"
        << obs::json::quote(spec.leakage == aes::LeakageModel::kLastRoundHd
                                ? "last_round_hd"
                                : "first_round_hw")
        << ",\"downsample\":" << spec.downsample
        << ",\"bytes\":" << int_list_json(spec.byte_positions)
        << ",\"checkpoints\":" << size_list_json(spec.checkpoints);
  } else {
    out << ",\"fixed\":" << obs::json::quote(spec.fixed_store)
        << ",\"random\":" << obs::json::quote(spec.random_store);
  }
  return out.str();
}

CampaignSpec spec_from_value(const Value& obj) {
  CampaignSpec spec;
  const std::string kind = member_str(obj, "kind");
  if (kind == "attack")
    spec.kind = CampaignKind::kAttack;
  else if (kind == "tvla")
    spec.kind = CampaignKind::kTvla;
  else
    bad("unknown campaign kind \"" + kind + "\"");
  spec.name = member_str(obj, "name");
  if (spec.kind == CampaignKind::kAttack) {
    spec.store = member_str(obj, "store");
    spec.key_hex = member_str(obj, "key");
    const std::string leakage = member_str(obj, "leakage");
    if (leakage == "last_round_hd")
      spec.leakage = aes::LeakageModel::kLastRoundHd;
    else if (leakage == "first_round_hw")
      spec.leakage = aes::LeakageModel::kFirstRoundHw;
    else
      bad("unknown leakage model \"" + leakage + "\"");
    spec.downsample = static_cast<std::size_t>(member_u64(obj, "downsample"));
    const Value& bytes = member(obj, "bytes");
    if (!bytes.is_array()) bad("bytes must be an array");
    for (const Value& b : bytes.array)
      spec.byte_positions.push_back(
          static_cast<int>(as_uint(b, "byte positions", 15)));
    const Value& cps = member(obj, "checkpoints");
    if (!cps.is_array()) bad("checkpoints must be an array");
    for (const Value& c : cps.array)
      spec.checkpoints.push_back(
          static_cast<std::size_t>(as_uint(c, "checkpoints")));
  } else {
    spec.fixed_store = member_str(obj, "fixed");
    spec.random_store = member_str(obj, "random");
  }
  return spec;
}

}  // namespace

std::string campaign_kind_name(CampaignKind kind) {
  return kind == CampaignKind::kAttack ? "attack" : "tvla";
}

analysis::AttackParams CampaignSpec::attack_params() const {
  analysis::AttackParams params;
  params.kind = analysis::AttackKind::kCpa;
  params.leakage = leakage;
  params.byte_positions = byte_positions;
  params.downsample = downsample;
  params.checkpoints = checkpoints;
  return params;
}

aes::Block CampaignSpec::key() const { return parse_key_hex(key_hex); }

std::vector<ShardRange> plan_shards(
    std::size_t total, std::size_t shards,
    const std::vector<std::size_t>& required_cuts) {
  if (total == 0) throw std::invalid_argument("plan_shards: empty campaign");
  if (shards == 0) throw std::invalid_argument("plan_shards: zero shards");
  std::set<std::size_t> cuts = {0, total};
  for (std::size_t i = 1; i < shards; ++i) cuts.insert(i * total / shards);
  for (const std::size_t c : required_cuts)
    if (c > 0 && c < total) cuts.insert(c);
  std::vector<ShardRange> out;
  std::size_t prev = 0;
  bool first = true;
  for (const std::size_t c : cuts) {
    if (first) {
      first = false;
      prev = c;
      continue;
    }
    if (c == prev) continue;  // an even split collided with a cut
    out.push_back({out.size(), prev, c});
    prev = c;
  }
  return out;
}

std::string campaign_to_json(const CampaignSpec& spec) {
  std::ostringstream out;
  out << "{\"dist_schema\":" << kDistSchema << "," << spec_json_body(spec)
      << "}\n";
  return out.str();
}

CampaignSpec campaign_from_json(std::string_view text) {
  const Value v = obs::json::parse(text);
  check_schema(v);
  return spec_from_value(v);
}

std::string task_to_json(const ShardTask& task) {
  std::ostringstream out;
  out << "{\"dist_schema\":" << kDistSchema
      << ",\"shard\":" << task.shard.index << ",\"t0\":" << task.shard.t0
      << ",\"t1\":" << task.shard.t1
      << ",\"acc\":" << obs::json::quote(task.acc_path)
      << ",\"done\":" << obs::json::quote(task.done_path) << ",\"spec\":{"
      << spec_json_body(task.spec) << "}}\n";
  return out.str();
}

ShardTask task_from_json(std::string_view text) {
  const Value v = obs::json::parse(text);
  check_schema(v);
  ShardTask task;
  task.shard.index = static_cast<std::size_t>(member_u64(v, "shard"));
  task.shard.t0 = static_cast<std::size_t>(member_u64(v, "t0"));
  task.shard.t1 = static_cast<std::size_t>(member_u64(v, "t1"));
  if (task.shard.t0 >= task.shard.t1) bad("task range is empty");
  task.acc_path = member_str(v, "acc");
  task.done_path = member_str(v, "done");
  const Value& spec = member(v, "spec");
  if (!spec.is_object()) bad("spec must be an object");
  task.spec = spec_from_value(spec);
  return task;
}

std::string done_to_json(const ShardDone& done) {
  std::ostringstream out;
  out << "{\"dist_schema\":" << kDistSchema
      << ",\"shard\":" << done.shard.index << ",\"t0\":" << done.shard.t0
      << ",\"t1\":" << done.shard.t1 << ",\"acc_bytes\":" << done.acc_bytes
      << ",\"acc_crc32\":" << done.acc_crc << ",\"status\":\"done\"}\n";
  return out.str();
}

ShardDone done_from_json(std::string_view text) {
  const Value v = obs::json::parse(text);
  check_schema(v);
  if (member_str(v, "status") != "done") bad("shard not done");
  ShardDone done;
  done.shard.index = static_cast<std::size_t>(member_u64(v, "shard"));
  done.shard.t0 = static_cast<std::size_t>(member_u64(v, "t0"));
  done.shard.t1 = static_cast<std::size_t>(member_u64(v, "t1"));
  done.acc_bytes = member_u64(v, "acc_bytes");
  done.acc_crc = static_cast<std::uint32_t>(
      member_u64(v, "acc_crc32", UINT32_MAX));
  return done;
}

bool shard_complete(const ShardRange& shard, const std::string& acc_path,
                    const std::string& done_path, std::string& acc) {
  try {
    const ShardDone done = done_from_json(read_file(done_path));
    if (done.shard.index != shard.index || done.shard.t0 != shard.t0 ||
        done.shard.t1 != shard.t1)
      return false;
    read_file(acc_path, acc);
    return acc.size() == done.acc_bytes &&
           util::crc32(acc.data(), acc.size()) == done.acc_crc;
  } catch (const std::exception&) {
    return false;
  }
}

bool shard_complete(const ShardRange& shard, const std::string& acc_path,
                    const std::string& done_path) {
  std::string acc;
  return shard_complete(shard, acc_path, done_path, acc);
}

std::string shard_stem(const std::string& dir, std::size_t index) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "shard_%04zu", index);
  return dir + "/shards/" + buf;
}

void read_file(const std::string& path, std::string& out) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) bad("cannot read " + path + ": " + std::strerror(errno));
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    bad("cannot stat " + path + ": " + std::strerror(err));
  }
  // Every file this protocol reads is published by rename and never
  // changes after, so its fstat size is its size: read that many bytes in
  // place (an early end of file just shortens the result).
  out.resize(static_cast<std::size_t>(st.st_size));
  std::size_t len = 0;
  while (len < out.size()) {
    const ssize_t got = ::read(fd, out.data() + len,
                               std::min(out.size() - len, kReadChunk));
    if (got < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      bad("read failed on " + path + ": " + std::strerror(err));
    }
    if (got == 0) break;
    len += static_cast<std::size_t>(got);
  }
  ::close(fd);
  out.resize(len);
}

std::string read_file(const std::string& path) {
  std::string out;
  read_file(path, out);
  return out;
}

void write_file_atomic(const std::string& path, std::string_view data) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);
  if (fd < 0) bad("cannot create " + tmp + ": " + std::strerror(errno));
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t w = ::write(fd, data.data() + off, data.size() - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      bad("write failed on " + tmp + ": " + std::strerror(err));
    }
    off += static_cast<std::size_t>(w);
  }
  if (::fsync(fd) != 0) {
    const int err = errno;
    ::close(fd);
    bad("fsync failed on " + tmp + ": " + std::strerror(err));
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0)
    bad("rename " + tmp + " -> " + path + " failed: " + std::strerror(errno));
  // The rename itself must survive a crash: fsync the parent directory.
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
}

namespace {

int hex_nibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

aes::Block parse_key_hex(std::string_view hex) {
  if (hex.size() != 32)
    throw std::invalid_argument("key must be exactly 32 hex chars");
  aes::Block key{};
  for (std::size_t i = 0; i < 16; ++i) {
    const int hi = hex_nibble(hex[2 * i]);
    const int lo = hex_nibble(hex[2 * i + 1]);
    if (hi < 0 || lo < 0)
      throw std::invalid_argument("key contains a non-hex character");
    key[i] = static_cast<std::uint8_t>(hi << 4 | lo);
  }
  return key;
}

std::string key_to_hex(const aes::Block& key) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  out.reserve(32);
  for (const std::uint8_t b : key) {
    out.push_back(digits[b >> 4]);
    out.push_back(digits[b & 0xf]);
  }
  return out;
}

}  // namespace rftc::dist
