// Computed per-sequence attention masks.
//
// Every supported mask is represented as at most two disjoint half-open kv ranges per query
// token (the paper's executor limitation, §5 "Blockwise Attention"). Those ranges are
// closed-form functions of the query position, so a mask stores only its parameters and
// computes ranges on demand: O(1) point queries, and pair counting and block
// classification in time proportional to the mask's breakpoints inside a tile, not to the
// tile's size.
#ifndef DCP_MASKS_MASK_H_
#define DCP_MASKS_MASK_H_

#include <cstdint>
#include <vector>

#include "masks/mask_spec.h"

namespace dcp {

// Two disjoint, sorted, half-open ranges of kv indices a query token attends to.
// An unused range is encoded as begin == end == 0.
struct RangePair {
  int64_t begin0 = 0;
  int64_t end0 = 0;
  int64_t begin1 = 0;
  int64_t end1 = 0;

  bool Contains(int64_t k) const {
    return (k >= begin0 && k < end0) || (k >= begin1 && k < end1);
  }
};

// Builds a normalized RangePair from up to two raw ranges (merges overlaps, drops empties,
// sorts). Raw ranges may be unsorted or overlapping.
RangePair NormalizeRanges(int64_t b0, int64_t e0, int64_t b1, int64_t e1);

enum class BlockCoverage {
  kEmpty,    // No (q, k) pair in the tile is attended: block never constructed.
  kPartial,  // Some pairs masked: kernel applies the range mask.
  kFull,     // Dense tile: kernel can skip mask checks.
};

// The mask of one sequence as a descriptor: the kind, its MaskSpec parameters, the length
// and, for the shared question mask, the question length and answer boundaries. Nothing is
// stored per token.
class SequenceMask {
 public:
  // Builds the mask for `info` under `spec`. O(1) time and memory (O(#answers) for the
  // shared question mask).
  static SequenceMask Build(const MaskSpec& spec, const SequenceInfo& info);

  int64_t length() const { return length_; }
  MaskKind kind() const { return spec_.kind; }

  // The kv ranges query token q attends to. O(1) (O(log #answers) for shared question).
  RangePair ranges(int64_t q) const;

  // Point query: does token q attend to kv position k?
  bool Attends(int64_t q, int64_t k) const { return ranges(q).Contains(k); }

  // Number of attended (q, k) pairs in the tile [qb, qe) x [kb, ke), in closed form over
  // the pieces of [qb, qe) between the mask's breakpoints (O(1) for causal and lambda,
  // O(#answers) for shared question, O((ke - kb) / icl_block_tokens) for blockwise).
  int64_t CountPairs(int64_t qb, int64_t qe, int64_t kb, int64_t ke) const;

  // Classification of the tile plus its pair count.
  BlockCoverage Classify(int64_t qb, int64_t qe, int64_t kb, int64_t ke,
                         int64_t* pairs_out) const;

  // Total attended pairs over the whole sequence.
  int64_t TotalPairs() const { return CountPairs(0, length_, 0, length_); }

  // FLOPs ratio of this mask relative to a causal mask of the same length
  // (the paper's "mask sparsity" metric in Fig. 19; causal == 1.0).
  double SparsityVsCausal() const;

 private:
  SequenceMask(const MaskSpec& spec, int64_t length);

  // First query token of the causal_blockwise test blocks (length_ if there are none).
  int64_t TestBegin() const;
  int64_t CountBlockwise(int64_t qb, int64_t qe, int64_t kb, int64_t ke) const;
  int64_t CountSharedQuestion(int64_t qb, int64_t qe, int64_t kb, int64_t ke) const;

  MaskSpec spec_;
  int64_t length_ = 0;
  // kSharedQuestion: the question is [0, question_len_); answer i is
  // [answer_ends_[i - 1] (question_len_ for i == 0), answer_ends_[i]).
  int64_t question_len_ = 0;
  std::vector<int64_t> answer_ends_;
};

// Convenience: build masks for a whole batch of sequence lengths.
std::vector<SequenceMask> BuildBatchMasks(const MaskSpec& spec,
                                          const std::vector<int64_t>& seqlens);

}  // namespace dcp

#endif  // DCP_MASKS_MASK_H_
