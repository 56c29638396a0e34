// Mask specifications: the four attention patterns evaluated in the paper (§2.4, Fig. 6),
// plus the parameters the evaluation fixes for each (§7.1 "Attention Masks").
//
// Every mask here is "causal at heart": a query token q may only attend to kv positions
// <= q; the sparse masks then restrict that further. Each mask lowers to at most two
// contiguous kv ranges per query token, which is exactly the representation the paper's
// executor supports.
#ifndef DCP_MASKS_MASK_SPEC_H_
#define DCP_MASKS_MASK_SPEC_H_

#include <cstdint>
#include <string>
#include <vector>

namespace dcp {

enum class MaskKind {
  kCausal,           // Fig. 6a: full lower-triangular.
  kLambda,           // Fig. 6b: attention sink + sliding window.
  kCausalBlockwise,  // Fig. 6c: block sink + block sliding window + global test block.
  kSharedQuestion,   // Fig. 6d: shared prefix question, causal answers attending the question.
};

std::string MaskKindName(MaskKind kind);
const std::vector<MaskKind>& AllMaskKinds();

// Per-sequence composition metadata. For most masks only `length` matters; the shared
// question mask also needs the question/answer split (available from the dataset, as in
// the paper's mask_fn interface).
struct SequenceInfo {
  int64_t length = 0;
  int64_t question_len = 0;             // kSharedQuestion only.
  std::vector<int64_t> answer_lens;     // kSharedQuestion only; sums to length - question_len.
};

struct MaskSpec {
  MaskKind kind = MaskKind::kCausal;

  // kLambda parameters (paper: 64 sink tokens, window 4096).
  int64_t sink_tokens = 64;
  int64_t window_tokens = 4096;

  // kCausalBlockwise parameters (paper: block 256, window 2 blocks, 1 sink block, 1 test
  // block that attends to all previous tokens).
  int64_t icl_block_tokens = 256;
  int64_t window_blocks = 2;
  int64_t sink_blocks = 1;
  int64_t test_blocks = 1;

  // kSharedQuestion parameters (paper: 1 question, 4 answers, each answer 20% of the
  // sequence length; the question takes the remainder).
  int num_answers = 4;
  double answer_fraction = 0.2;

  bool operator==(const MaskSpec&) const = default;

  static MaskSpec Causal();
  static MaskSpec Lambda(int64_t sink = 64, int64_t window = 4096);
  static MaskSpec CausalBlockwise(int64_t block = 256, int64_t window_blocks = 2,
                                  int64_t sink_blocks = 1, int64_t test_blocks = 1);
  static MaskSpec SharedQuestion(int num_answers = 4, double answer_fraction = 0.2);
  static MaskSpec ForKind(MaskKind kind);
};

// Fills in per-sequence composition for a mask kind (e.g. the question/answer split for the
// shared question mask) given the raw sequence length.
SequenceInfo MakeSequenceInfo(const MaskSpec& spec, int64_t length);

}  // namespace dcp

#endif  // DCP_MASKS_MASK_SPEC_H_
