// Batch block layout: how a batch of variable-length sequences is cut into token chunks and
// per-KV-group data blocks (paper §4.1). Shared vocabulary between the planner (which
// assigns blocks) and the runtime (which sizes buffers and interprets block references).
#ifndef DCP_RUNTIME_LAYOUT_H_
#define DCP_RUNTIME_LAYOUT_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/types.h"

namespace dcp {

struct BatchLayout {
  std::vector<int64_t> seqlens;
  int64_t block_size = 1024;  // Tokens per chunk (the paper's hyper-parameter B).
  int num_groups = 2;         // KV head groups (GQA: 8 query heads, 2 KV groups).
  int heads_per_group = 4;    // Query heads served by one KV group.
  int head_dim = 128;
  int bytes_per_element = 2;  // bf16 on the wire, matching the paper's training dtype.

  bool operator==(const BatchLayout&) const = default;

  int num_sequences() const { return static_cast<int>(seqlens.size()); }

  int NumChunks(SeqId s) const {
    return static_cast<int>(CeilDiv(seqlens[static_cast<size_t>(s)], block_size));
  }
  int64_t ChunkBegin(SeqId /*s*/, ChunkId c) const {
    return static_cast<int64_t>(c) * block_size;
  }
  int64_t ChunkEnd(SeqId s, ChunkId c) const {
    return std::min(seqlens[static_cast<size_t>(s)], ChunkBegin(s, c) + block_size);
  }
  int64_t ChunkLen(SeqId s, ChunkId c) const { return ChunkEnd(s, c) - ChunkBegin(s, c); }

  int TotalChunks() const {
    int total = 0;
    for (SeqId s = 0; s < num_sequences(); ++s) {
      total += NumChunks(s);
    }
    return total;
  }

  // Dense index over (sequence, chunk) pairs.
  int GlobalChunkId(SeqId s, ChunkId c) const {
    int base = 0;
    for (SeqId i = 0; i < s; ++i) {
      base += NumChunks(i);
    }
    return base + c;
  }

  int64_t TotalTokens() const {
    int64_t total = 0;
    for (int64_t len : seqlens) {
      total += len;
    }
    return total;
  }

  // --- Wire sizes (bytes, in the training dtype) of the per-group data blocks. ---
  Bytes QBlockBytes(int64_t chunk_len) const {
    return static_cast<Bytes>(heads_per_group) * chunk_len * head_dim * bytes_per_element;
  }
  Bytes KvBlockBytes(int64_t chunk_len) const {
    return static_cast<Bytes>(2) * chunk_len * head_dim * bytes_per_element;
  }
  Bytes OBlockBytes(int64_t chunk_len) const { return QBlockBytes(chunk_len); }
  // Partial-output accumulator: unnormalized output plus per-(head, token) m and l stats.
  Bytes AccBlockBytes(int64_t chunk_len) const {
    return QBlockBytes(chunk_len) +
           static_cast<Bytes>(heads_per_group) * chunk_len * 2 * bytes_per_element;
  }
  // All data blocks of one token chunk, every group and tensor (Q, K, V, O): the placement
  // unit's total footprint.
  Bytes TokenChunkBytes(int64_t chunk_len) const {
    return static_cast<Bytes>(num_groups) *
           (QBlockBytes(chunk_len) + KvBlockBytes(chunk_len) + OBlockBytes(chunk_len));
  }

  int num_query_heads() const { return num_groups * heads_per_group; }
};

}  // namespace dcp

#endif  // DCP_RUNTIME_LAYOUT_H_
