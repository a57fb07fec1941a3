// rftc::trace v2 — a chunked, durable, seekable trace store.
//
// TraceSet keeps a whole campaign in RAM; paper-scale campaigns (hundreds
// of thousands to millions of traces) do not fit.  The store turns the
// corpus into an on-disk artifact that producers append to chunk-by-chunk
// and consumers read back through memory-mapped, zero-copy chunk windows —
// so a campaign of N traces runs in O(chunk) resident memory while staying
// bit-identical to the in-RAM path (the trace bytes, and therefore every
// accumulator fed from them, are exactly the same).
//
// File layout (little-endian, .rtst):
//
//   header (64 bytes):
//     magic[8]      "RTSTORE1"
//     u32 schema    (kStoreSchema)
//     u32 reserved
//     u64 n_samples     samples per trace
//     u64 n_traces      total traces (patched by finalize)
//     u64 chunk_traces  traces per chunk; every chunk except the last is
//                       exactly this long, so chunk offsets are computable
//     u64 n_chunks      (patched by finalize)
//     u32 header_crc    CRC-32 of the 48 bytes above
//     u8  pad[12]
//
//   chunk, repeated n_chunks times:
//     u64 count         traces in this chunk
//     u32 payload_crc   CRC-32 of the payload below
//     u32 reserved
//     payload:
//       plaintexts   16*count bytes
//       ciphertexts  16*count bytes
//       traces       4*n_samples*count bytes (float32)
//
// Every section size is a multiple of 4, so the float matrix of a mapped
// chunk is always 4-byte aligned.  An unfinalized file (writer crashed
// before finalize()) has n_traces/n_chunks still at the open-sentinel and
// is rejected by TraceStore with a distinct error.
//
// RFTC_TRACE_CHUNK=<n> sets the default traces-per-chunk (default 1024 —
// ~2 MB of float data at the simulator's 500-sample window).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "aes/aes128.hpp"
#include "trace/trace_set.hpp"

namespace rftc::trace {

/// Store schema version (the header "schema" field).
inline constexpr std::uint32_t kStoreSchema = 1;

/// Traces per chunk: RFTC_TRACE_CHUNK if set and positive, else 1024.
std::size_t default_chunk_traces();

/// Appends a campaign to `path` chunk-by-chunk.  Traces buffer into one
/// pending chunk (O(chunk) memory) and flush whenever it fills; finalize()
/// flushes the short tail chunk and patches the header counts.  Any I/O
/// failure throws std::runtime_error.
class TraceStoreWriter {
 public:
  TraceStoreWriter(const std::string& path, std::size_t n_samples,
                   std::size_t chunk_traces = default_chunk_traces());
  ~TraceStoreWriter();
  TraceStoreWriter(const TraceStoreWriter&) = delete;
  TraceStoreWriter& operator=(const TraceStoreWriter&) = delete;

  /// Appends one trace (buffered; flushes a full chunk automatically).
  void add(std::span<const float> trace, const aes::Block& plaintext,
           const aes::Block& ciphertext);

  /// Appends every trace of `set` in order (any size; re-chunked to the
  /// writer's chunk_traces).
  void append(const TraceSet& set);

  /// Flushes the pending tail chunk and patches the header.  Idempotent;
  /// no add()/append() is allowed afterwards.
  void finalize();

  std::size_t size() const { return n_traces_; }
  std::size_t samples() const { return n_samples_; }
  std::size_t chunk_traces() const { return chunk_traces_; }
  std::size_t chunks_written() const { return n_chunks_; }
  const std::string& path() const { return path_; }

 private:
  void flush_chunk();

  std::string path_;
  std::size_t n_samples_;
  std::size_t chunk_traces_;
  std::size_t n_traces_ = 0;
  std::size_t n_chunks_ = 0;
  bool finalized_ = false;
  int fd_ = -1;
  // Pending chunk (at most chunk_traces_ entries).
  std::vector<float> pend_data_;
  std::vector<aes::Block> pend_pt_, pend_ct_;
};

/// One memory-mapped chunk window: zero-copy views into the file.  Movable,
/// non-copyable; unmaps on destruction, so at most O(chunk) of the corpus
/// is addressable per live TraceChunk.
class TraceChunk {
 public:
  TraceChunk(TraceChunk&& other) noexcept;
  TraceChunk& operator=(TraceChunk&& other) noexcept;
  TraceChunk(const TraceChunk&) = delete;
  TraceChunk& operator=(const TraceChunk&) = delete;
  ~TraceChunk();

  /// Traces in this chunk / samples per trace / global index of trace 0.
  std::size_t count() const { return count_; }
  std::size_t samples() const { return samples_; }
  std::size_t first() const { return first_; }

  std::span<const float> trace(std::size_t k) const {
    return {traces_ + k * samples_, samples_};
  }
  const aes::Block& plaintext(std::size_t k) const {
    return *reinterpret_cast<const aes::Block*>(plaintexts_ + 16 * k);
  }
  const aes::Block& ciphertext(std::size_t k) const {
    return *reinterpret_cast<const aes::Block*>(ciphertexts_ + 16 * k);
  }

  /// Recomputes the payload CRC-32 against the stored one.
  bool crc_ok() const;

  /// CRC-32 recorded in the chunk header at write time.
  std::uint32_t stored_crc() const { return stored_crc_; }
  /// CRC-32 of the payload as it reads back now (a fresh full-payload scan).
  std::uint32_t computed_crc() const;

 private:
  friend class TraceStore;
  TraceChunk() = default;

  void* map_ = nullptr;
  std::size_t map_len_ = 0;
  std::size_t count_ = 0;
  std::size_t samples_ = 0;
  std::size_t first_ = 0;
  std::uint32_t stored_crc_ = 0;
  const unsigned char* payload_ = nullptr;
  std::size_t payload_len_ = 0;
  const unsigned char* plaintexts_ = nullptr;
  const unsigned char* ciphertexts_ = nullptr;
  const float* traces_ = nullptr;
};

/// One chunk whose payload failed its CRC check: enough detail to locate
/// the corruption with dd/xxd (chunk index and absolute byte offset of the
/// chunk header) and to see how far the payload drifted (stored vs
/// recomputed CRC-32).
struct StoreChunkFailure {
  std::size_t chunk = 0;
  std::uint64_t byte_offset = 0;  ///< chunk header offset within the file
  std::uint32_t expected_crc = 0;  ///< CRC-32 recorded at write time
  std::uint32_t actual_crc = 0;    ///< CRC-32 of the payload as read back
};

/// Outcome of TraceStore::verify().  The scan keeps going past CRC
/// mismatches so a multi-chunk corruption is reported in one pass;
/// `failures` lists every bad chunk while `error` keeps the first-failure
/// summary for legacy one-line consumers.  A structural error (truncated
/// file, contradicting chunk header) still stops the scan — nothing past
/// it can be trusted.
struct StoreVerifyResult {
  bool ok = false;
  std::size_t chunks_checked = 0;
  std::string error;  // empty when ok
  std::vector<StoreChunkFailure> failures;
};

/// Read side: validates the header (magic, schema, CRC, exact file size)
/// on open and hands out mapped chunk windows.  Random chunk access is
/// O(1) because every non-final chunk has exactly chunk_traces() traces.
class TraceStore {
 public:
  explicit TraceStore(const std::string& path);
  ~TraceStore();
  TraceStore(TraceStore&& other) noexcept;
  TraceStore& operator=(TraceStore&& other) noexcept;
  TraceStore(const TraceStore&) = delete;
  TraceStore& operator=(const TraceStore&) = delete;

  std::size_t size() const { return n_traces_; }
  std::size_t samples() const { return n_samples_; }
  std::size_t chunk_traces() const { return chunk_traces_; }
  std::size_t chunk_count() const { return n_chunks_; }
  std::uint64_t file_bytes() const { return file_bytes_; }
  const std::string& path() const { return path_; }

  /// Maps chunk `i` (throws std::out_of_range / std::runtime_error when
  /// the chunk header contradicts the file header).
  TraceChunk chunk(std::size_t i) const;

  /// Chunk index containing global trace `t`.
  std::size_t chunk_of(std::size_t t) const { return t / chunk_traces_; }

  /// Walks the chunks overlapping global trace range [t0, t1) in order and
  /// calls `fn(chunk, k0, k1)` with the chunk-local index range covering the
  /// intersection — at most one chunk is mapped at a time.  This is the
  /// shard-iteration primitive of the distributed campaign engine: a worker
  /// owns [t0, t1) and never touches bytes outside its shard's chunks.
  /// `t1` is clamped to size(); an empty intersection calls nothing.
  void for_range(std::size_t t0, std::size_t t1,
                 const std::function<void(const TraceChunk&, std::size_t,
                                          std::size_t)>& fn) const;

  /// Walks every chunk and checks its payload CRC; never throws.
  StoreVerifyResult verify() const;

 private:
  std::uint64_t chunk_offset(std::size_t i) const;
  std::size_t chunk_count_at(std::size_t i) const;

  std::string path_;
  int fd_ = -1;
  std::uint64_t file_bytes_ = 0;
  std::size_t n_samples_ = 0;
  std::size_t n_traces_ = 0;
  std::size_t chunk_traces_ = 0;
  std::size_t n_chunks_ = 0;
};

/// The two populations of a store-backed TVLA campaign.
struct StoredTvlaCapture {
  TraceStore fixed;
  TraceStore random;
};

}  // namespace rftc::trace
