#include "masks/mask.h"

#include <algorithm>

#include "common/check.h"
#include "common/types.h"

namespace dcp {

RangePair NormalizeRanges(int64_t b0, int64_t e0, int64_t b1, int64_t e1) {
  // Drop empty ranges.
  if (e0 <= b0) {
    b0 = b1;
    e0 = e1;
    b1 = 0;
    e1 = 0;
  }
  if (e1 <= b1) {
    b1 = 0;
    e1 = 0;
  }
  RangePair out;
  if (e0 <= b0) {
    return out;  // both empty
  }
  if (e1 > b1 && b1 < b0) {
    std::swap(b0, b1);
    std::swap(e0, e1);
  }
  // Merge if overlapping or adjacent.
  if (e1 > b1 && b1 <= e0) {
    e0 = std::max(e0, e1);
    b1 = 0;
    e1 = 0;
  }
  out.begin0 = b0;
  out.end0 = e0;
  out.begin1 = b1;
  out.end1 = e1;
  return out;
}

namespace {

constexpr int64_t kUnbounded = int64_t{1} << 60;

// A range endpoint as a function of the query token: clamp(q + offset, lo, hi), lo <= hi.
// Every mask endpoint is one of these (slope 0 or 1) within a piece of the query range.
struct Ramp {
  int64_t offset = 0;
  int64_t lo = 0;
  int64_t hi = 0;

  int64_t At(int64_t q) const { return std::clamp(q + offset, lo, hi); }
  // Whether At(q + 1) == At(q) + 1.
  bool RisesAt(int64_t q) const { return q + offset >= lo && q + offset < hi; }
};

Ramp Constant(int64_t value) { return {0, value, value}; }
// q + offset, capped at hi.
Ramp Diagonal(int64_t offset, int64_t hi = kUnbounded) { return {offset, -kUnbounded, hi}; }

const Ramp kZero = Constant(0);
const Ramp kCausalEnd = Diagonal(1);  // q + 1

// Sum over i in [0, n) of max(0, v0 + slope * i), slope in {-1, 0, 1}.
int64_t SumPositive(int64_t v0, int64_t slope, int64_t n) {
  if (slope == 0) {
    return v0 > 0 ? v0 * n : 0;
  }
  if (slope > 0) {
    const int64_t first = std::max<int64_t>(0, 1 - v0);  // First index with a positive term.
    if (first >= n) {
      return 0;
    }
    const int64_t m = n - first;
    return m * (v0 + first) + m * (m - 1) / 2;
  }
  const int64_t m = std::clamp<int64_t>(v0, 0, n);  // Terms v0 - i > 0 for i < v0.
  return m * v0 - m * (m - 1) / 2;
}

// Sum over q in [qb, qe) of |[begin(q), end(q)) ∩ [kb, ke)|. Clipping to the tile keeps
// both endpoints ramps, so the overlap is affine between their (at most four) breakpoints
// and each piece sums as an arithmetic series.
int64_t SumOverlap(int64_t qb, int64_t qe, Ramp begin, Ramp end, int64_t kb, int64_t ke) {
  end.lo = std::min(end.lo, ke);
  end.hi = std::min(end.hi, ke);
  begin.lo = std::max(begin.lo, kb);
  begin.hi = std::max(begin.hi, kb);
  const int64_t breaks[] = {end.lo - end.offset, end.hi - end.offset,
                            begin.lo - begin.offset, begin.hi - begin.offset};
  int64_t total = 0;
  for (int64_t a = qb; a < qe;) {
    int64_t b = qe;
    for (const int64_t x : breaks) {
      if (x > a && x < b) {
        b = x;
      }
    }
    const int64_t slope = (end.RisesAt(a) ? 1 : 0) - (begin.RisesAt(a) ? 1 : 0);
    total += SumPositive(end.At(a) - begin.At(a), slope, b - a);
    a = b;
  }
  return total;
}

// Window begin of causal_blockwise query block j.
int64_t BlockWindowBegin(const MaskSpec& spec, int64_t j) {
  return std::max<int64_t>(0, (j - spec.window_blocks + 1) * spec.icl_block_tokens);
}

}  // namespace

SequenceMask::SequenceMask(const MaskSpec& spec, int64_t length)
    : spec_(spec), length_(length), question_len_(length) {}

SequenceMask SequenceMask::Build(const MaskSpec& spec, const SequenceInfo& info) {
  const int64_t length = info.length;
  DCP_CHECK_GT(length, 0);
  // Parameters past the sequence's extent are clamped to it, which leaves every range
  // unchanged and keeps all the arithmetic on them far from overflow, whatever a caller
  // sends.
  MaskSpec clamped = spec;
  switch (spec.kind) {
    case MaskKind::kCausal:
      return SequenceMask(spec, length);
    case MaskKind::kLambda:
      clamped.sink_tokens = std::clamp<int64_t>(spec.sink_tokens, 0, length);
      clamped.window_tokens = std::clamp<int64_t>(spec.window_tokens, 0, length);
      return SequenceMask(clamped, length);
    case MaskKind::kCausalBlockwise: {
      DCP_CHECK_GT(spec.icl_block_tokens, 0);
      clamped.icl_block_tokens = std::min(spec.icl_block_tokens, length);
      const int64_t blocks = CeilDiv(length, clamped.icl_block_tokens);
      clamped.window_blocks = std::clamp<int64_t>(spec.window_blocks, 0, blocks);
      clamped.sink_blocks = std::clamp<int64_t>(spec.sink_blocks, 0, blocks);
      clamped.test_blocks = std::clamp<int64_t>(spec.test_blocks, 0, blocks);
      return SequenceMask(clamped, length);
    }
    case MaskKind::kSharedQuestion: {
      // Without answers the mask is plain causal: the question spans the sequence.
      SequenceMask mask(spec, length);
      if (info.answer_lens.empty()) {
        return mask;
      }
      mask.question_len_ = info.question_len;
      int64_t pos = info.question_len;
      for (const int64_t alen : info.answer_lens) {
        pos += alen;
        mask.answer_ends_.push_back(pos);
      }
      DCP_CHECK_EQ(pos, length);
      return mask;
    }
  }
  return SequenceMask(MaskSpec::Causal(), length);
}

int64_t SequenceMask::TestBegin() const {
  const int64_t bt = spec_.icl_block_tokens;
  const int64_t first_test_block = CeilDiv(length_, bt) - spec_.test_blocks;
  return std::clamp<int64_t>(first_test_block * bt, 0, length_);
}

RangePair SequenceMask::ranges(int64_t q) const {
  switch (spec_.kind) {
    case MaskKind::kCausal:
      break;
    case MaskKind::kLambda:
      return NormalizeRanges(0, std::min(spec_.sink_tokens, q + 1),
                             std::max<int64_t>(0, q + 1 - spec_.window_tokens), q + 1);
    case MaskKind::kCausalBlockwise: {
      if (q >= TestBegin()) {
        break;  // Test blocks attend to everything before them (plus themselves, causally).
      }
      const int64_t bt = spec_.icl_block_tokens;
      return NormalizeRanges(0, std::min(spec_.sink_blocks * bt, q + 1),
                             BlockWindowBegin(spec_, q / bt), q + 1);
    }
    case MaskKind::kSharedQuestion: {
      if (q < question_len_) {
        break;  // Question region: plain causal.
      }
      // Each answer attends the question plus itself causally; not the other answers.
      const auto it = std::upper_bound(answer_ends_.begin(), answer_ends_.end(), q);
      const int64_t answer_begin = it == answer_ends_.begin() ? question_len_ : *(it - 1);
      return NormalizeRanges(0, question_len_, answer_begin, q + 1);
    }
  }
  return NormalizeRanges(0, q + 1, 0, 0);
}

int64_t SequenceMask::CountPairs(int64_t qb, int64_t qe, int64_t kb, int64_t ke) const {
  DCP_CHECK(qb >= 0 && qe <= length() && qb <= qe);
  // Every range lies inside [0, length): kv positions outside it never count.
  kb = std::clamp<int64_t>(kb, 0, length_);
  ke = std::clamp<int64_t>(ke, 0, length_);
  if (qb == qe || kb >= ke) {
    return 0;
  }
  switch (spec_.kind) {
    case MaskKind::kCausal:
      break;
    case MaskKind::kLambda: {
      // |sink ∪ window| = |sink| + |window| - |sink ∩ window|.
      const Ramp sink_end = Diagonal(1, spec_.sink_tokens);
      const Ramp window_begin{1 - spec_.window_tokens, 0, kUnbounded};
      return SumOverlap(qb, qe, kZero, sink_end, kb, ke) +
             SumOverlap(qb, qe, window_begin, kCausalEnd, kb, ke) -
             SumOverlap(qb, qe, window_begin, sink_end, kb, ke);
    }
    case MaskKind::kCausalBlockwise:
      return CountBlockwise(qb, qe, kb, ke);
    case MaskKind::kSharedQuestion:
      return CountSharedQuestion(qb, qe, kb, ke);
  }
  return SumOverlap(qb, qe, kZero, kCausalEnd, kb, ke);
}

int64_t SequenceMask::CountBlockwise(int64_t qb, int64_t qe, int64_t kb, int64_t ke) const {
  const int64_t bt = spec_.icl_block_tokens;
  const int64_t test_begin = std::clamp(TestBegin(), qb, qe);
  const Ramp sink_end = Diagonal(1, spec_.sink_blocks * bt);
  int64_t pairs = SumOverlap(test_begin, qe, kZero, kCausalEnd, kb, ke) +
                  SumOverlap(qb, test_begin, kZero, sink_end, kb, ke);
  // The window [begin(j), q + 1) of query block j adds |window| - |sink ∩ window|. Within
  // the tile a begin(j) at or before kb counts as kb, and one at or after ke counts nothing,
  // so the blocks on either side merge into one piece; each block in between is its own.
  for (int64_t a = qb; a < test_begin;) {
    const int64_t j = a / bt;
    const int64_t window_begin = BlockWindowBegin(spec_, j);
    int64_t b = (j + 1) * bt;
    if (window_begin <= kb) {
      b = (kb / bt + spec_.window_blocks) * bt;  // First block whose window starts past kb.
    } else if (window_begin >= ke) {
      b = test_begin;
    }
    b = std::min(b, test_begin);
    const Ramp begin = Constant(window_begin);
    pairs += SumOverlap(a, b, begin, kCausalEnd, kb, ke) -
             SumOverlap(a, b, begin, sink_end, kb, ke);
    a = b;
  }
  return pairs;
}

int64_t SequenceMask::CountSharedQuestion(int64_t qb, int64_t qe, int64_t kb,
                                          int64_t ke) const {
  const int64_t question_end = std::clamp(question_len_, qb, qe);
  int64_t pairs = SumOverlap(qb, question_end, kZero, kCausalEnd, kb, ke);
  // An answer's two ranges, the question and its own causal prefix, are disjoint.
  const Ramp question = Constant(question_len_);
  int64_t answer_begin = question_len_;
  for (const int64_t answer_end : answer_ends_) {
    const int64_t a = std::max(qb, answer_begin);
    const int64_t b = std::min(qe, answer_end);
    if (a < b) {
      pairs += SumOverlap(a, b, kZero, question, kb, ke) +
               SumOverlap(a, b, Constant(answer_begin), kCausalEnd, kb, ke);
    }
    answer_begin = answer_end;
  }
  return pairs;
}

BlockCoverage SequenceMask::Classify(int64_t qb, int64_t qe, int64_t kb, int64_t ke,
                                     int64_t* pairs_out) const {
  const int64_t pairs = CountPairs(qb, qe, kb, ke);
  if (pairs_out != nullptr) {
    *pairs_out = pairs;
  }
  if (pairs == 0) {
    return BlockCoverage::kEmpty;
  }
  if (pairs == (qe - qb) * (ke - kb)) {
    return BlockCoverage::kFull;
  }
  return BlockCoverage::kPartial;
}

double SequenceMask::SparsityVsCausal() const {
  const int64_t n = length();
  const double causal_pairs = 0.5 * static_cast<double>(n) * static_cast<double>(n + 1);
  return static_cast<double>(TotalPairs()) / causal_pairs;
}

std::vector<SequenceMask> BuildBatchMasks(const MaskSpec& spec,
                                          const std::vector<int64_t>& seqlens) {
  std::vector<SequenceMask> masks;
  masks.reserve(seqlens.size());
  for (int64_t len : seqlens) {
    masks.push_back(SequenceMask::Build(spec, MakeSequenceInfo(spec, len)));
  }
  return masks;
}

}  // namespace dcp
