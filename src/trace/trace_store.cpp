#include "trace/trace_store.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "util/crc32.hpp"
#include "util/env.hpp"

namespace rftc::trace {

namespace {

constexpr char kMagic[8] = {'R', 'T', 'S', 'T', 'O', 'R', 'E', '1'};
constexpr std::size_t kHeaderBytes = 64;
constexpr std::size_t kChunkHeaderBytes = 16;
/// Header n_traces/n_chunks value while a writer is still appending; a
/// reader seeing it knows the file was never finalized.
constexpr std::uint64_t kOpenSentinel = ~std::uint64_t{0};

void put_u32(unsigned char* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<unsigned char>(v >> (8 * i));
}
void put_u64(unsigned char* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<unsigned char>(v >> (8 * i));
}
std::uint32_t get_u32(const unsigned char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t{p[i]} << (8 * i);
  return v;
}
std::uint64_t get_u64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t{p[i]} << (8 * i);
  return v;
}

[[noreturn]] void fail(const std::string& what, const std::string& path) {
  throw std::runtime_error("TraceStore: " + what + " (" + path + ")");
}

void write_all(int fd, const void* data, std::size_t len,
               const std::string& path) {
  const char* p = static_cast<const char*>(data);
  while (len > 0) {
    const ssize_t n = ::write(fd, p, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail("write failed: " + std::string(std::strerror(errno)), path);
    }
    p += n;
    len -= static_cast<std::size_t>(n);
  }
}

std::size_t bytes_per_trace(std::size_t n_samples) {
  return 32 + 4 * n_samples;
}

std::uint64_t chunk_bytes(std::size_t count, std::size_t n_samples) {
  return kChunkHeaderBytes +
         static_cast<std::uint64_t>(count) * bytes_per_trace(n_samples);
}

/// 64-byte header image; crc covers the first 48 bytes.
void encode_header(unsigned char (&h)[kHeaderBytes], std::size_t n_samples,
                   std::uint64_t n_traces, std::size_t chunk_traces,
                   std::uint64_t n_chunks) {
  std::memset(h, 0, sizeof h);
  std::memcpy(h, kMagic, sizeof kMagic);
  put_u32(h + 8, kStoreSchema);
  put_u64(h + 16, n_samples);
  put_u64(h + 24, n_traces);
  put_u64(h + 32, chunk_traces);
  put_u64(h + 40, n_chunks);
  put_u32(h + 48, util::crc32(h, 48));
}

}  // namespace

std::size_t default_chunk_traces() {
  return env::read_count("RFTC_TRACE_CHUNK", 1024);
}

// ---------------------------------------------------------------- writer --

TraceStoreWriter::TraceStoreWriter(const std::string& path,
                                   std::size_t n_samples,
                                   std::size_t chunk_traces)
    : path_(path), n_samples_(n_samples), chunk_traces_(chunk_traces) {
  if (n_samples == 0)
    throw std::invalid_argument("TraceStoreWriter: zero samples");
  if (chunk_traces == 0)
    throw std::invalid_argument("TraceStoreWriter: zero chunk size");
  fd_ = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd_ < 0)
    fail("cannot create: " + std::string(std::strerror(errno)), path_);
  unsigned char h[kHeaderBytes];
  encode_header(h, n_samples_, kOpenSentinel, chunk_traces_, kOpenSentinel);
  write_all(fd_, h, sizeof h, path_);
  pend_data_.reserve(chunk_traces_ * n_samples_);
  pend_pt_.reserve(chunk_traces_);
  pend_ct_.reserve(chunk_traces_);
}

TraceStoreWriter::~TraceStoreWriter() {
  try {
    finalize();
  } catch (...) {
    // Destructor path: the file stays unfinalized (open sentinel in the
    // header) and readers will reject it — never terminate for I/O.
  }
  if (fd_ >= 0) ::close(fd_);
}

void TraceStoreWriter::add(std::span<const float> trace,
                           const aes::Block& plaintext,
                           const aes::Block& ciphertext) {
  if (finalized_)
    throw std::logic_error("TraceStoreWriter: add after finalize");
  if (trace.size() != n_samples_)
    throw std::invalid_argument("TraceStoreWriter: sample count mismatch");
  pend_data_.insert(pend_data_.end(), trace.begin(), trace.end());
  pend_pt_.push_back(plaintext);
  pend_ct_.push_back(ciphertext);
  ++n_traces_;
  if (pend_pt_.size() == chunk_traces_) flush_chunk();
}

void TraceStoreWriter::append(const TraceSet& set) {
  for (std::size_t i = 0; i < set.size(); ++i)
    add(set.trace(i), set.plaintext(i), set.ciphertext(i));
}

void TraceStoreWriter::flush_chunk() {
  const std::size_t count = pend_pt_.size();
  if (count == 0) return;
  std::uint32_t crc = 0;
  crc = util::crc32_update(crc, pend_pt_.data(), 16 * count);
  crc = util::crc32_update(crc, pend_ct_.data(), 16 * count);
  crc = util::crc32_update(crc, pend_data_.data(),
                           pend_data_.size() * sizeof(float));
  unsigned char ch[kChunkHeaderBytes] = {};
  put_u64(ch, count);
  put_u32(ch + 8, crc);
  write_all(fd_, ch, sizeof ch, path_);
  write_all(fd_, pend_pt_.data(), 16 * count, path_);
  write_all(fd_, pend_ct_.data(), 16 * count, path_);
  write_all(fd_, pend_data_.data(), pend_data_.size() * sizeof(float), path_);
  pend_data_.clear();
  pend_pt_.clear();
  pend_ct_.clear();
  ++n_chunks_;
}

void TraceStoreWriter::finalize() {
  if (finalized_) return;
  flush_chunk();
  // Durability ordering: every chunk byte must be on disk BEFORE the header
  // stops saying "unfinalized".  Patching first would let the filesystem
  // persist the finalized header ahead of the chunk writes, so a crash in
  // that window leaves a header whose counts a resuming coordinator would
  // trust while the payload behind it is unsynced garbage.
  if (::fsync(fd_) != 0)
    fail("chunk fsync failed: " + std::string(std::strerror(errno)), path_);
  unsigned char h[kHeaderBytes];
  encode_header(h, n_samples_, n_traces_, chunk_traces_, n_chunks_);
  if (::pwrite(fd_, h, sizeof h, 0) != static_cast<ssize_t>(sizeof h))
    fail("header patch failed: " + std::string(std::strerror(errno)), path_);
  if (::fsync(fd_) != 0)
    fail("fsync failed: " + std::string(std::strerror(errno)), path_);
  finalized_ = true;
}

// ----------------------------------------------------------------- chunk --

TraceChunk::TraceChunk(TraceChunk&& other) noexcept { *this = std::move(other); }

TraceChunk& TraceChunk::operator=(TraceChunk&& other) noexcept {
  if (this != &other) {
    if (map_ != nullptr) ::munmap(map_, map_len_);
    map_ = std::exchange(other.map_, nullptr);
    map_len_ = std::exchange(other.map_len_, 0);
    count_ = other.count_;
    samples_ = other.samples_;
    first_ = other.first_;
    stored_crc_ = other.stored_crc_;
    payload_ = other.payload_;
    payload_len_ = other.payload_len_;
    plaintexts_ = other.plaintexts_;
    ciphertexts_ = other.ciphertexts_;
    traces_ = other.traces_;
  }
  return *this;
}

TraceChunk::~TraceChunk() {
  if (map_ != nullptr) ::munmap(map_, map_len_);
}

bool TraceChunk::crc_ok() const {
  return util::crc32(payload_, payload_len_) == stored_crc_;
}

std::uint32_t TraceChunk::computed_crc() const {
  return util::crc32(payload_, payload_len_);
}

// ----------------------------------------------------------------- store --

TraceStore::TraceStore(const std::string& path) : path_(path) {
  fd_ = ::open(path.c_str(), O_RDONLY);
  if (fd_ < 0) fail("cannot open: " + std::string(std::strerror(errno)), path_);
  struct stat st {};
  if (::fstat(fd_, &st) != 0) {
    ::close(fd_);
    fail("stat failed", path_);
  }
  file_bytes_ = static_cast<std::uint64_t>(st.st_size);
  unsigned char h[kHeaderBytes];
  if (file_bytes_ < kHeaderBytes ||
      ::pread(fd_, h, sizeof h, 0) != static_cast<ssize_t>(sizeof h)) {
    ::close(fd_);
    fail("file shorter than the 64-byte header", path_);
  }
  const auto reject = [&](const std::string& why) {
    ::close(fd_);
    fd_ = -1;
    fail(why, path_);
  };
  if (std::memcmp(h, kMagic, sizeof kMagic) != 0) reject("bad magic");
  if (get_u32(h + 8) != kStoreSchema)
    reject("unsupported schema " + std::to_string(get_u32(h + 8)));
  if (get_u32(h + 48) != util::crc32(h, 48)) reject("header CRC mismatch");
  const std::uint64_t n_samples = get_u64(h + 16);
  const std::uint64_t n_traces = get_u64(h + 24);
  const std::uint64_t chunk_traces = get_u64(h + 32);
  const std::uint64_t n_chunks = get_u64(h + 40);
  if (n_traces == kOpenSentinel || n_chunks == kOpenSentinel)
    reject("store was never finalized");
  if (n_samples == 0 || chunk_traces == 0) reject("corrupt header counts");
  // Reject implausible headers before any size arithmetic can overflow.
  if (n_samples > (std::uint64_t{1} << 32) ||
      chunk_traces > (std::uint64_t{1} << 32) ||
      n_traces > (std::uint64_t{1} << 60) / bytes_per_trace(n_samples))
    reject("implausible header sizes");
  const std::uint64_t want_chunks =
      n_traces == 0 ? 0 : (n_traces + chunk_traces - 1) / chunk_traces;
  if (n_chunks != want_chunks) reject("chunk count contradicts trace count");
  std::uint64_t want_bytes = kHeaderBytes;
  if (n_chunks > 0) {
    const std::uint64_t tail = n_traces - (n_chunks - 1) * chunk_traces;
    want_bytes += (n_chunks - 1) * chunk_bytes(chunk_traces, n_samples) +
                  chunk_bytes(tail, n_samples);
  }
  if (file_bytes_ != want_bytes)
    reject("file size " + std::to_string(file_bytes_) + " != expected " +
           std::to_string(want_bytes) + " (truncated or trailing garbage)");
  n_samples_ = n_samples;
  n_traces_ = n_traces;
  chunk_traces_ = chunk_traces;
  n_chunks_ = n_chunks;
}

TraceStore::~TraceStore() {
  if (fd_ >= 0) ::close(fd_);
}

TraceStore::TraceStore(TraceStore&& other) noexcept { *this = std::move(other); }

TraceStore& TraceStore::operator=(TraceStore&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    path_ = std::move(other.path_);
    fd_ = std::exchange(other.fd_, -1);
    file_bytes_ = other.file_bytes_;
    n_samples_ = other.n_samples_;
    n_traces_ = other.n_traces_;
    chunk_traces_ = other.chunk_traces_;
    n_chunks_ = other.n_chunks_;
  }
  return *this;
}

std::uint64_t TraceStore::chunk_offset(std::size_t i) const {
  return kHeaderBytes +
         static_cast<std::uint64_t>(i) * chunk_bytes(chunk_traces_, n_samples_);
}

std::size_t TraceStore::chunk_count_at(std::size_t i) const {
  return i + 1 < n_chunks_ ? chunk_traces_
                           : n_traces_ - (n_chunks_ - 1) * chunk_traces_;
}

TraceChunk TraceStore::chunk(std::size_t i) const {
  if (i >= n_chunks_)
    throw std::out_of_range("TraceStore::chunk: index " + std::to_string(i) +
                            " of " + std::to_string(n_chunks_));
  const std::uint64_t offset = chunk_offset(i);
  const std::size_t count = chunk_count_at(i);
  const std::uint64_t len = chunk_bytes(count, n_samples_);

  const auto page = static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
  const std::uint64_t map_start = offset & ~(page - 1);
  const std::size_t map_len = static_cast<std::size_t>(offset - map_start + len);
  void* map = ::mmap(nullptr, map_len, PROT_READ, MAP_PRIVATE, fd_,
                     static_cast<off_t>(map_start));
  if (map == MAP_FAILED)
    fail("mmap failed: " + std::string(std::strerror(errno)), path_);
  // The consumers walk chunks front to back; tell the pager.
  ::madvise(map, map_len, MADV_SEQUENTIAL);

  TraceChunk c;
  c.map_ = map;
  c.map_len_ = map_len;
  const auto* base =
      static_cast<const unsigned char*>(map) + (offset - map_start);
  const std::uint64_t stored_count = get_u64(base);
  if (stored_count != count)
    throw std::runtime_error("TraceStore: chunk " + std::to_string(i) +
                             " count " + std::to_string(stored_count) +
                             " contradicts header (" + path_ + ")");
  c.stored_crc_ = get_u32(base + 8);
  c.count_ = count;
  c.samples_ = n_samples_;
  c.first_ = i * chunk_traces_;
  c.payload_ = base + kChunkHeaderBytes;
  c.payload_len_ = static_cast<std::size_t>(len - kChunkHeaderBytes);
  c.plaintexts_ = c.payload_;
  c.ciphertexts_ = c.payload_ + 16 * count;
  c.traces_ = reinterpret_cast<const float*>(c.payload_ + 32 * count);
  return c;
}

void TraceStore::for_range(
    std::size_t t0, std::size_t t1,
    const std::function<void(const TraceChunk&, std::size_t, std::size_t)>&
        fn) const {
  t1 = std::min(t1, n_traces_);
  if (t0 >= t1) return;
  for (std::size_t c = chunk_of(t0); c < n_chunks_; ++c) {
    // One mapped window at a time; it unmaps at the end of each iteration.
    const TraceChunk chunk_win = chunk(c);
    const std::size_t b = std::max(t0, chunk_win.first());
    const std::size_t e = std::min(t1, chunk_win.first() + chunk_win.count());
    if (b >= e) break;
    fn(chunk_win, b - chunk_win.first(), e - chunk_win.first());
  }
}

StoreVerifyResult TraceStore::verify() const {
  StoreVerifyResult res;
  try {
    for (std::size_t i = 0; i < n_chunks_; ++i) {
      const TraceChunk c = chunk(i);
      ++res.chunks_checked;
      if (c.crc_ok()) continue;
      // Record and keep scanning: corruption rarely stops at one chunk,
      // and the caller wants the full damage map in a single pass.
      res.failures.push_back({i, chunk_offset(i), c.stored_crc(),
                              c.computed_crc()});
      if (res.error.empty())
        res.error = "chunk " + std::to_string(i) + " CRC mismatch";
    }
  } catch (const std::exception& e) {
    res.error = e.what();
    return res;
  }
  res.ok = res.failures.empty();
  return res;
}

}  // namespace rftc::trace
