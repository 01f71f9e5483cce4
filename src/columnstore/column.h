// Compressed columns — the "Virtuoso column store" storage layer.
//
// Section 3.4 of the paper runs BFS as a SQL transitive query on OpenLink
// Virtuoso, whose profile is dominated by "column store random access and
// decompression". This module provides the matching storage primitives:
// u32 columns stored in fixed-size blocks, each block encoded with the
// cheapest of
//   * RLE        — run-length (constant or few-valued blocks),
//   * DELTA_FOR  — delta + frame-of-reference bit-packing (sorted or
//                  clustered data, e.g. the edge table's `from` column),
//   * FOR        — frame-of-reference bit-packing (small-range data),
//   * PLAIN      — raw values (incompressible blocks).
// Reads decode whole blocks into caller vectors (vectored execution).

#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/result.h"

namespace gly::columnstore {

/// Values per block (Virtuoso-like vector size).
inline constexpr uint32_t kBlockSize = 2048;

/// Block encodings.
enum class Encoding : uint8_t { kPlain = 0, kRle = 1, kFor = 2, kDeltaFor = 3 };

/// Packs `values` (each < 2^width) at `width` bits each into `out`.
void BitPack(const uint32_t* values, size_t count, uint32_t width,
             std::vector<uint64_t>* out);

/// Unpacks `count` `width`-bit values from `packed`.
void BitUnpack(const uint64_t* packed, size_t count, uint32_t width,
               uint32_t* out);

/// Number of bits needed to represent `v` (0 -> 0 bits).
uint32_t BitsFor(uint32_t v);

/// An immutable compressed u32 column.
class Column {
 public:
  /// Encodes `values` into a column, choosing per block the smallest of the
  /// supported encodings.
  static Column Encode(const std::vector<uint32_t>& values);

  uint64_t size() const { return size_; }

  /// Compressed footprint in bytes (data + block directory).
  uint64_t compressed_bytes() const;

  /// Uncompressed footprint (size * 4).
  uint64_t raw_bytes() const { return size_ * sizeof(uint32_t); }

  /// Decodes the block containing `row` into `out` (kBlockSize values max);
  /// returns the row index of the block's first value. `out` is resized to
  /// the block's value count. Counts one block decode in `decodes`.
  uint64_t DecodeBlockContaining(uint64_t row, std::vector<uint32_t>* out) const;

  /// Reads rows [begin, end) into `out` (block-at-a-time decode).
  void ReadRange(uint64_t begin, uint64_t end, std::vector<uint32_t>* out) const;

  /// Total block decodes performed (profiling; mutable counter).
  uint64_t block_decodes() const {
    return decodes_.n.load(std::memory_order_relaxed);
  }

  /// Per-encoding block counts, indexed by Encoding.
  const std::vector<uint32_t>& encoding_histogram() const {
    return encoding_counts_;
  }

 private:
  struct BlockMeta {
    uint64_t data_offset = 0;  // index into data_ (u64 words)
    uint32_t count = 0;
    uint32_t base = 0;         // FOR base / RLE value / delta start
    Encoding encoding = Encoding::kPlain;
    uint8_t width = 0;         // packed bit width
  };

  static BlockMeta EncodeBlock(const uint32_t* values, uint32_t count,
                               std::vector<uint64_t>* data);

  uint64_t size_ = 0;
  std::vector<BlockMeta> blocks_;
  std::vector<uint64_t> data_;
  std::vector<uint32_t> encoding_counts_ = std::vector<uint32_t>(4, 0);
  // Partition threads of TransitiveCount decode blocks of one column
  // concurrently, so the count is a relaxed atomic; moving a column
  // carries it along.
  struct DecodeCount {
    std::atomic<uint64_t> n{0};
    DecodeCount() = default;
    DecodeCount(DecodeCount&& other) noexcept
        : n(other.n.load(std::memory_order_relaxed)) {}
    DecodeCount& operator=(DecodeCount&& other) noexcept {
      n.store(other.n.load(std::memory_order_relaxed),
              std::memory_order_relaxed);
      return *this;
    }
  };
  mutable DecodeCount decodes_;
};

}  // namespace gly::columnstore
