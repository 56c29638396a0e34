#include "masks/mask.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

namespace dcp {
namespace {

// Brute-force predicates restating each mask's definition independently of the computed
// ranges, used as oracles.
bool CausalAttends(int64_t q, int64_t k) { return k <= q; }

bool LambdaAttends(const MaskSpec& spec, int64_t q, int64_t k) {
  if (k > q) {
    return false;
  }
  return k < spec.sink_tokens || k > q - spec.window_tokens;
}

bool BlockwiseAttends(const MaskSpec& spec, int64_t len, int64_t q, int64_t k) {
  if (k > q) {
    return false;
  }
  const int64_t bt = spec.icl_block_tokens;
  const int64_t num_blocks = (len + bt - 1) / bt;
  const int64_t qb = q / bt;
  if (qb >= num_blocks - spec.test_blocks) {
    return true;
  }
  const int64_t kb = k / bt;
  return kb < spec.sink_blocks || kb > qb - spec.window_blocks;
}

bool SharedQuestionAttends(const SequenceInfo& info, int64_t q, int64_t k) {
  if (k > q) {
    return false;
  }
  const int64_t qlen = info.question_len;
  if (q < qlen) {
    return true;  // Question region: causal, k <= q < qlen.
  }
  if (k < qlen) {
    return true;  // Everyone attends the question.
  }
  // Same answer?
  int64_t pos = qlen;
  for (int64_t alen : info.answer_lens) {
    const int64_t end = pos + alen;
    if (q >= pos && q < end) {
      return k >= pos && k < end;
    }
    pos = end;
  }
  return false;
}

bool OracleAttends(const MaskSpec& spec, const SequenceInfo& info, int64_t q, int64_t k) {
  switch (spec.kind) {
    case MaskKind::kCausal:
      return CausalAttends(q, k);
    case MaskKind::kLambda:
      return LambdaAttends(spec, q, k);
    case MaskKind::kCausalBlockwise:
      return BlockwiseAttends(spec, info.length, q, k);
    case MaskKind::kSharedQuestion:
      return info.answer_lens.empty() ? CausalAttends(q, k)
                                      : SharedQuestionAttends(info, q, k);
  }
  return false;
}

// Brute-force pair counts of one sequence: a 2-D prefix sum over the oracle, so every
// tile's count is O(1) to look up.
class PairOracle {
 public:
  PairOracle(const MaskSpec& spec, const SequenceInfo& info)
      : n_(info.length), prefix_(static_cast<size_t>((n_ + 1) * (n_ + 1)), 0) {
    for (int64_t q = 0; q < n_; ++q) {
      for (int64_t k = 0; k < n_; ++k) {
        At(q + 1, k + 1) = At(q, k + 1) + At(q + 1, k) - At(q, k) +
                           (OracleAttends(spec, info, q, k) ? 1 : 0);
      }
    }
  }

  int64_t Count(int64_t qb, int64_t qe, int64_t kb, int64_t ke) const {
    return At(qe, ke) - At(qb, ke) - At(qe, kb) + At(qb, kb);
  }

 private:
  int64_t& At(int64_t q, int64_t k) { return prefix_[static_cast<size_t>(q * (n_ + 1) + k)]; }
  int64_t At(int64_t q, int64_t k) const {
    return prefix_[static_cast<size_t>(q * (n_ + 1) + k)];
  }

  int64_t n_;
  std::vector<int64_t> prefix_;
};

BlockCoverage ExpectedCoverage(int64_t pairs, int64_t area) {
  if (pairs == 0) {
    return BlockCoverage::kEmpty;
  }
  return pairs == area ? BlockCoverage::kFull : BlockCoverage::kPartial;
}

// One mask configuration of the differential tests: a kind plus small parameters that put
// every breakpoint (sink end, window start, ICL and test blocks, answers) inside short
// sequences, and the edge values of each parameter.
struct MaskCase {
  std::string name;
  MaskSpec spec;
};

std::vector<MaskCase> MaskCases() {
  return {
      {"Causal", MaskSpec::Causal()},
      {"Lambda_sink3_window7", MaskSpec::Lambda(3, 7)},
      {"Lambda_sink0", MaskSpec::Lambda(0, 7)},
      {"Lambda_window1", MaskSpec::Lambda(2, 1)},
      {"Lambda_windowCoversAll", MaskSpec::Lambda(3, 200)},
      {"Lambda_sinkCoversAll", MaskSpec::Lambda(200, 5)},
      {"Blockwise_block5", MaskSpec::CausalBlockwise(5, 2, 1, 1)},
      {"Blockwise_sink0", MaskSpec::CausalBlockwise(5, 2, 0, 1)},
      {"Blockwise_test0", MaskSpec::CausalBlockwise(5, 2, 1, 0)},
      {"Blockwise_block1", MaskSpec::CausalBlockwise(1, 3, 2, 1)},
      {"Blockwise_window0", MaskSpec::CausalBlockwise(4, 0, 1, 1)},
      {"Blockwise_block7_window3_sink2_test2", MaskSpec::CausalBlockwise(7, 3, 2, 2)},
      {"Blockwise_blockCoversAll", MaskSpec::CausalBlockwise(200, 2, 1, 1)},
      // Parameters far past any length must neither overflow nor change the ranges.
      {"Lambda_huge", MaskSpec::Lambda(int64_t{1} << 62, int64_t{1} << 62)},
      {"Blockwise_huge", MaskSpec::CausalBlockwise(5, int64_t{1} << 62, int64_t{1} << 62,
                                                   int64_t{1} << 62)},
      {"Blockwise_hugeBlock", MaskSpec::CausalBlockwise(int64_t{1} << 62, 2, 1, 1)},
      // Short lengths collapse the default split to causal (no room for 4 answers).
      {"SharedQuestion_4x20pct", MaskSpec::SharedQuestion(4, 0.2)},
      {"SharedQuestion_1x50pct", MaskSpec::SharedQuestion(1, 0.5)},
      {"SharedQuestion_3x30pct", MaskSpec::SharedQuestion(3, 0.3)},
  };
}

constexpr int64_t kMaxDifferentialLength = 96;

class MaskDifferentialTest : public ::testing::TestWithParam<MaskCase> {};

TEST_P(MaskDifferentialTest, PointQueriesMatchBruteForceDefinition) {
  const MaskSpec& spec = GetParam().spec;
  for (int64_t len = 1; len <= kMaxDifferentialLength; ++len) {
    const SequenceInfo info = MakeSequenceInfo(spec, len);
    const SequenceMask mask = SequenceMask::Build(spec, info);
    ASSERT_EQ(mask.length(), len);
    ASSERT_EQ(mask.kind(), spec.kind);
    for (int64_t q = 0; q < len; ++q) {
      for (int64_t k = 0; k < len; ++k) {
        ASSERT_EQ(mask.Attends(q, k), OracleAttends(spec, info, q, k))
            << "q=" << q << " k=" << k << " len=" << len;
      }
    }
  }
}

TEST_P(MaskDifferentialTest, WholeSequenceCountsMatchBruteForce) {
  const MaskSpec& spec = GetParam().spec;
  for (int64_t len = 1; len <= kMaxDifferentialLength; ++len) {
    const SequenceInfo info = MakeSequenceInfo(spec, len);
    const SequenceMask mask = SequenceMask::Build(spec, info);
    const int64_t expect = PairOracle(spec, info).Count(0, len, 0, len);
    ASSERT_EQ(mask.TotalPairs(), expect) << "len=" << len;
    // kv positions outside the sequence never count.
    ASSERT_EQ(mask.CountPairs(0, len, -3, len + 5), expect) << "len=" << len;
    const double causal_pairs = 0.5 * static_cast<double>(len) * static_cast<double>(len + 1);
    ASSERT_DOUBLE_EQ(mask.SparsityVsCausal(), static_cast<double>(expect) / causal_pairs)
        << "len=" << len;
  }
}

// Checks one tile's count and coverage against the oracle; returns false on a mismatch.
::testing::AssertionResult TileMatches(const SequenceMask& mask, const PairOracle& oracle,
                                       int64_t qb, int64_t qe, int64_t kb, int64_t ke) {
  const int64_t expect = oracle.Count(qb, qe, kb, ke);
  int64_t pairs = -1;
  const BlockCoverage coverage = mask.Classify(qb, qe, kb, ke, &pairs);
  if (pairs == expect && (qe == qb || ke == kb ||
                          coverage == ExpectedCoverage(expect, (qe - qb) * (ke - kb)))) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "len=" << mask.length() << " tile q[" << qb << "," << qe << ") k[" << kb << ","
         << ke << "): pairs " << pairs << " expected " << expect;
}

// Every (qb, qe, kb, ke), empty tiles included. The sweep is O(len^4) per length, so it
// stops at kMaxEveryTileLength; the block-grid sweep below covers the longer lengths.
constexpr int64_t kMaxEveryTileLength = 24;

TEST_P(MaskDifferentialTest, EveryTileMatchesBruteForce) {
  const MaskSpec& spec = GetParam().spec;
  for (int64_t len = 1; len <= kMaxEveryTileLength; ++len) {
    const SequenceInfo info = MakeSequenceInfo(spec, len);
    const SequenceMask mask = SequenceMask::Build(spec, info);
    const PairOracle oracle(spec, info);
    for (int64_t qb = 0; qb <= len; ++qb) {
      for (int64_t qe = qb; qe <= len; ++qe) {
        for (int64_t kb = 0; kb <= len; ++kb) {
          for (int64_t ke = kb; ke <= len; ++ke) {
            ASSERT_TRUE(TileMatches(mask, oracle, qb, qe, kb, ke));
          }
        }
      }
    }
  }
}

// Every tile block generation can ask for: all (q chunk, kv chunk) pairs of every block
// size 1..len, ragged last chunks included, over every length 1..96.
TEST_P(MaskDifferentialTest, EveryBlockGridTileMatchesBruteForce) {
  const MaskSpec& spec = GetParam().spec;
  for (int64_t len = 1; len <= kMaxDifferentialLength; ++len) {
    const SequenceInfo info = MakeSequenceInfo(spec, len);
    const SequenceMask mask = SequenceMask::Build(spec, info);
    const PairOracle oracle(spec, info);
    for (int64_t block = 1; block <= len; ++block) {
      for (int64_t qb = 0; qb < len; qb += block) {
        for (int64_t kb = 0; kb < len; kb += block) {
          ASSERT_TRUE(TileMatches(mask, oracle, qb, std::min(len, qb + block), kb,
                                  std::min(len, kb + block)));
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, MaskDifferentialTest, ::testing::ValuesIn(MaskCases()),
                         [](const ::testing::TestParamInfo<MaskCase>& info) {
                           return info.param.name;
                         });

// Long sequences at the paper's mask parameters: random tiles of a 131072-token sequence
// at block sizes 1024 and 2048, counted row by row from the oracle.
TEST(MaskLongSequence, RandomTilesMatchBruteForce) {
  constexpr int64_t kLen = 131072;
  std::mt19937_64 rng(12);
  for (const MaskKind kind : AllMaskKinds()) {
    const MaskSpec spec = MaskSpec::ForKind(kind);
    const SequenceInfo info = MakeSequenceInfo(spec, kLen);
    const SequenceMask mask = SequenceMask::Build(spec, info);
    for (const int64_t block : {int64_t{1024}, int64_t{2048}}) {
      const int64_t chunks = kLen / block;
      std::uniform_int_distribution<int64_t> chunk_dist(0, chunks - 1);
      std::uniform_int_distribution<int64_t> lag_dist(0, 4);
      for (int tile = 0; tile < 4; ++tile) {
        // Near-diagonal tiles hold the breakpoints; the last q chunk holds the test block.
        const int64_t qc = tile == 0 ? chunks - 1 : chunk_dist(rng);
        const int64_t kc = std::max<int64_t>(0, qc - lag_dist(rng));
        const int64_t qb = qc * block;
        const int64_t kb = kc * block;
        int64_t expect = 0;
        for (int64_t q = qb; q < qb + block; ++q) {
          for (int64_t k = kb; k < kb + block; ++k) {
            expect += OracleAttends(spec, info, q, k) ? 1 : 0;
          }
        }
        int64_t pairs = -1;
        const BlockCoverage coverage =
            mask.Classify(qb, qb + block, kb, kb + block, &pairs);
        EXPECT_EQ(pairs, expect) << MaskKindName(kind) << " block " << block << " q chunk "
                                 << qc << " kv chunk " << kc;
        EXPECT_EQ(coverage, ExpectedCoverage(expect, block * block));
      }
    }
  }
}

TEST(NormalizeRanges, MergesOverlappingAndSortsAndDropsEmpty) {
  RangePair r = NormalizeRanges(5, 9, 0, 3);
  EXPECT_EQ(r.begin0, 0);
  EXPECT_EQ(r.end0, 3);
  EXPECT_EQ(r.begin1, 5);
  EXPECT_EQ(r.end1, 9);

  r = NormalizeRanges(0, 5, 3, 9);  // Overlap: merge.
  EXPECT_EQ(r.begin0, 0);
  EXPECT_EQ(r.end0, 9);
  EXPECT_EQ(r.begin1, r.end1);

  r = NormalizeRanges(4, 4, 2, 6);  // First empty.
  EXPECT_EQ(r.begin0, 2);
  EXPECT_EQ(r.end0, 6);

  r = NormalizeRanges(0, 3, 3, 7);  // Adjacent: merge.
  EXPECT_EQ(r.begin0, 0);
  EXPECT_EQ(r.end0, 7);
}

TEST(MaskSparsity, CausalIsOneAndSparseMasksAreBelowOne) {
  const int64_t len = 512;
  const SequenceMask causal =
      SequenceMask::Build(MaskSpec::Causal(), MakeSequenceInfo(MaskSpec::Causal(), len));
  EXPECT_NEAR(causal.SparsityVsCausal(), 1.0, 1e-12);

  MaskSpec lambda = MaskSpec::Lambda(/*sink=*/8, /*window=*/32);
  const SequenceMask lambda_mask =
      SequenceMask::Build(lambda, MakeSequenceInfo(lambda, len));
  EXPECT_LT(lambda_mask.SparsityVsCausal(), 0.35);

  MaskSpec sq = MaskSpec::SharedQuestion();
  const SequenceMask sq_mask = SequenceMask::Build(sq, MakeSequenceInfo(sq, len));
  EXPECT_LT(sq_mask.SparsityVsCausal(), 1.0);
  EXPECT_GT(sq_mask.SparsityVsCausal(), 0.3);
}

TEST(SharedQuestionInfo, SplitsLengthIntoQuestionAndAnswers) {
  MaskSpec spec = MaskSpec::SharedQuestion(4, 0.2);
  SequenceInfo info = MakeSequenceInfo(spec, 1000);
  EXPECT_EQ(info.answer_lens.size(), 4u);
  EXPECT_EQ(info.answer_lens[0], 200);
  EXPECT_EQ(info.question_len, 200);
  // Degenerate tiny sequence still valid.
  info = MakeSequenceInfo(spec, 3);
  int64_t total = info.question_len;
  for (int64_t a : info.answer_lens) {
    total += a;
  }
  EXPECT_EQ(total, 3);
}

}  // namespace
}  // namespace dcp
