#include "columnstore/column.h"

#include <algorithm>
#include <cassert>

namespace gly::columnstore {

uint32_t BitsFor(uint32_t v) {
  uint32_t bits = 0;
  while (v != 0) {
    ++bits;
    v >>= 1;
  }
  return bits;
}

void BitPack(const uint32_t* values, size_t count, uint32_t width,
             std::vector<uint64_t>* out) {
  out->assign((count * width + 63) / 64, 0);
  if (width == 0) return;
  for (size_t i = 0; i < count; ++i) {
    uint64_t bit = i * width;
    size_t word = bit / 64;
    uint32_t shift = bit % 64;
    (*out)[word] |= static_cast<uint64_t>(values[i]) << shift;
    if (shift + width > 64) {
      (*out)[word + 1] |= static_cast<uint64_t>(values[i]) >> (64 - shift);
    }
  }
}

void BitUnpack(const uint64_t* packed, size_t count, uint32_t width,
               uint32_t* out) {
  if (width == 0) {
    std::fill(out, out + count, 0);
    return;
  }
  const uint64_t mask = width >= 32 ? ~0u : ((1ULL << width) - 1);
  for (size_t i = 0; i < count; ++i) {
    uint64_t bit = i * width;
    size_t word = bit / 64;
    uint32_t shift = bit % 64;
    uint64_t v = packed[word] >> shift;
    if (shift + width > 64) {
      v |= packed[word + 1] << (64 - shift);
    }
    out[i] = static_cast<uint32_t>(v & mask);
  }
}

Column::BlockMeta Column::EncodeBlock(const uint32_t* values, uint32_t count,
                                      std::vector<uint64_t>* data) {
  BlockMeta meta;
  meta.count = count;
  meta.data_offset = data->size();

  uint32_t min_v = values[0];
  uint32_t max_v = values[0];
  bool sorted = true;
  bool constant = true;
  for (uint32_t i = 0; i < count; ++i) {
    min_v = std::min(min_v, values[i]);
    max_v = std::max(max_v, values[i]);
    if (i > 0) {
      if (values[i] < values[i - 1]) sorted = false;
      if (values[i] != values[0]) constant = false;
    }
  }

  if (constant) {
    meta.encoding = Encoding::kRle;
    meta.base = values[0];
    meta.width = 0;
    return meta;  // no payload
  }

  // Candidate widths.
  const uint32_t for_width = BitsFor(max_v - min_v);
  uint32_t delta_width = 0;
  if (sorted) {
    uint32_t max_delta = 0;
    for (uint32_t i = 1; i < count; ++i) {
      max_delta = std::max(max_delta, values[i] - values[i - 1]);
    }
    delta_width = BitsFor(max_delta);
  }

  std::vector<uint32_t> transformed(count);
  if (sorted && delta_width < for_width) {
    meta.encoding = Encoding::kDeltaFor;
    meta.base = values[0];
    meta.width = static_cast<uint8_t>(delta_width);
    transformed[0] = 0;
    for (uint32_t i = 1; i < count; ++i) {
      transformed[i] = values[i] - values[i - 1];
    }
  } else if (for_width < 32) {
    meta.encoding = Encoding::kFor;
    meta.base = min_v;
    meta.width = static_cast<uint8_t>(for_width);
    for (uint32_t i = 0; i < count; ++i) transformed[i] = values[i] - min_v;
  } else {
    meta.encoding = Encoding::kPlain;
    meta.base = 0;
    meta.width = 32;
    std::copy(values, values + count, transformed.begin());
  }
  std::vector<uint64_t> packed;
  BitPack(transformed.data(), count, meta.width, &packed);
  data->insert(data->end(), packed.begin(), packed.end());
  return meta;
}

Column Column::Encode(const std::vector<uint32_t>& values) {
  Column col;
  col.size_ = values.size();
  for (uint64_t begin = 0; begin < values.size(); begin += kBlockSize) {
    uint32_t count = static_cast<uint32_t>(
        std::min<uint64_t>(kBlockSize, values.size() - begin));
    BlockMeta meta = EncodeBlock(values.data() + begin, count, &col.data_);
    ++col.encoding_counts_[static_cast<size_t>(meta.encoding)];
    col.blocks_.push_back(meta);
  }
  return col;
}

uint64_t Column::compressed_bytes() const {
  return data_.size() * sizeof(uint64_t) + blocks_.size() * sizeof(BlockMeta);
}

uint64_t Column::DecodeBlockContaining(uint64_t row,
                                       std::vector<uint32_t>* out) const {
  assert(row < size_);
  const uint64_t block_idx = row / kBlockSize;
  const BlockMeta& meta = blocks_[block_idx];
  out->resize(meta.count);
  decodes_.n.fetch_add(1, std::memory_order_relaxed);
  switch (meta.encoding) {
    case Encoding::kRle:
      std::fill(out->begin(), out->end(), meta.base);
      break;
    case Encoding::kFor:
      BitUnpack(data_.data() + meta.data_offset, meta.count, meta.width,
                out->data());
      for (uint32_t& v : *out) v += meta.base;
      break;
    case Encoding::kDeltaFor: {
      BitUnpack(data_.data() + meta.data_offset, meta.count, meta.width,
                out->data());
      uint32_t acc = meta.base;
      for (uint32_t i = 0; i < meta.count; ++i) {
        acc += (*out)[i];
        (*out)[i] = acc;
      }
      break;
    }
    case Encoding::kPlain:
      BitUnpack(data_.data() + meta.data_offset, meta.count, meta.width,
                out->data());
      break;
  }
  return block_idx * kBlockSize;
}

void Column::ReadRange(uint64_t begin, uint64_t end,
                       std::vector<uint32_t>* out) const {
  out->clear();
  if (begin >= end) return;
  out->reserve(end - begin);
  std::vector<uint32_t> block;
  uint64_t row = begin;
  while (row < end) {
    uint64_t block_start = DecodeBlockContaining(row, &block);
    uint64_t offset = row - block_start;
    uint64_t take = std::min<uint64_t>(block.size() - offset, end - row);
    out->insert(out->end(), block.begin() + offset,
                block.begin() + offset + take);
    row += take;
  }
}

}  // namespace gly::columnstore
