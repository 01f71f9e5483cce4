// CRC32C (Castagnoli) checksum, shared by checkpoint serialization, the
// MapReduce spill files and the validator's output checksums.

#pragma once

#include <cstddef>
#include <cstdint>

namespace gly {

/// CRC32 (Castagnoli polynomial, bitwise) over a byte buffer.
uint32_t Crc32c(const void* data, size_t len);

/// Incremental form: start from kCrc32cInit, fold buffers with
/// Crc32cUpdate, then Crc32cFinalize. Equivalent to one-shot Crc32c over
/// the concatenation.
inline constexpr uint32_t kCrc32cInit = 0xFFFFFFFFu;
uint32_t Crc32cUpdate(uint32_t state, const void* data, size_t len);
inline uint32_t Crc32cFinalize(uint32_t state) { return state ^ 0xFFFFFFFFu; }

}  // namespace gly
