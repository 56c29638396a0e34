// The persistent plan store and the hardened (de)serialization under it: randomized
// binary round-trips, corruption injection (bit flips, truncation at every boundary —
// error Status, never a crash, never a silently corrupt plan), cross-process warm start
// (a second Engine on the same path serves store hits bit-identical to fresh PlanBatch),
// and the dcpctl bundle export/import path.
#include "core/plan_store.h"

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "common/rng.h"
#include "core/engine.h"
#include "core/planner.h"
#include "tests/plan_test_util.h"

namespace fs = std::filesystem;

namespace dcp {
namespace {

using plan_test::GeneratedCase;
using plan_test::GenerateCase;
using plan_test::MakeOptions;
using plan_test::SmallMaskSpec;
using plan_test::Timeless;

class PlanStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("dcp_plan_store_" +
            std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string StorePath(const char* sub = "store") const {
    return (dir_ / sub).string();
  }

  fs::path dir_;
};

struct PlannedCase {
  GeneratedCase c;
  ClusterSpec cluster;
  MaskSpec spec;
  PlannerOptions options;
  BatchPlan plan;
};

PlannedCase PlanRandomCase(Rng& rng) {
  PlannedCase p;
  p.c = GenerateCase(rng);
  p.cluster.num_nodes = p.c.num_nodes;
  p.cluster.devices_per_node = p.c.devices_per_node;
  p.spec = SmallMaskSpec(p.c.mask_kind);
  p.options = MakeOptions(p.c);
  std::vector<SequenceMask> masks = BuildBatchMasks(p.spec, p.c.seqlens);
  p.plan = PlanBatch(p.c.seqlens, masks, p.cluster, p.options);
  return p;
}

TEST(Crc32, MatchesTheIeeeCheckValueAtEveryLengthSplit) {
  // The standard CRC-32 check value pins the polynomial, reflection, and the final
  // inversion — guarding the slicing-by-8 kernel against any drift from the byte-wise
  // definition (which would silently invalidate every existing plan record).
  const std::string check = "123456789";
  EXPECT_EQ(Crc32(check), 0xCBF43926u);
  // Incremental updates across every split point, exercising both the 8-byte kernel
  // and the byte-at-a-time tail, must agree with the one-shot value.
  std::string longer;
  for (int i = 0; i < 100; ++i) {
    longer += static_cast<char>(i * 37 + 11);
  }
  const uint32_t whole = Crc32(longer);
  for (size_t split = 0; split <= longer.size(); ++split) {
    uint32_t crc = Crc32Update(0, longer.data(), split);
    crc = Crc32Update(crc, longer.data() + split, longer.size() - split);
    EXPECT_EQ(crc, whole) << "split at " << split;
  }
}

TEST(PlanBinaryCodec, RandomizedPlansRoundTripBitIdentical) {
  Rng rng(20260728);
  for (int iteration = 0; iteration < 6; ++iteration) {
    SCOPED_TRACE("iteration " + std::to_string(iteration));
    const PlannedCase p = PlanRandomCase(rng);
    const std::string bytes = SerializePlanBinary(p.plan);
    StatusOr<BatchPlan> restored = DeserializePlanBinary(bytes);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    // Member-wise identical, and the binary form itself re-serializes byte-identically.
    EXPECT_EQ(restored.value(), p.plan);
    EXPECT_EQ(SerializePlanBinary(restored.value()), bytes);
  }
}

TEST(PlanBinaryCodec, EveryTruncationFailsCleanly) {
  Rng rng(7);
  const PlannedCase p = PlanRandomCase(rng);
  const std::string bytes = SerializePlanBinary(p.plan);
  ASSERT_GT(bytes.size(), 64u);
  for (size_t len = 0; len < bytes.size(); ++len) {
    StatusOr<BatchPlan> truncated = DeserializePlanBinary(
        std::string_view(bytes).substr(0, len));
    ASSERT_FALSE(truncated.ok()) << "prefix of " << len << " bytes was accepted";
    ASSERT_EQ(truncated.status().code(), StatusCode::kDataLoss);
  }
  // Trailing garbage is rejected too.
  EXPECT_FALSE(DeserializePlanBinary(bytes + "x").ok());
}

TEST(PlanBinaryCodec, CorruptCountsAndEnumsAreRejectedWithoutAllocating) {
  Rng rng(8);
  const PlannedCase p = PlanRandomCase(rng);
  std::string bytes = SerializePlanBinary(p.plan);
  // Bad magic.
  {
    std::string bad = bytes;
    bad[0] = 'X';
    EXPECT_FALSE(DeserializePlanBinary(bad).ok());
  }
  // Bad version.
  {
    std::string bad = bytes;
    bad[4] = 0x7F;
    EXPECT_FALSE(DeserializePlanBinary(bad).ok());
  }
  // A hand-crafted stream whose sequence count claims 2^32 - 1 entries: must be
  // rejected by the count-vs-remaining-payload bound, not by an OOM.
  {
    std::string bad("DCPB", 4);
    bad += std::string("\x01\x00\x00\x00", 4);  // Version 1.
    auto zig = [&bad](int64_t v) {
      uint64_t u = (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
      while (u >= 0x80) {
        bad.push_back(static_cast<char>(0x80 | (u & 0x7F)));
        u >>= 7;
      }
      bad.push_back(static_cast<char>(u));
    };
    zig(16);  // block_size
    zig(2);   // num_groups
    zig(2);   // heads_per_group
    zig(8);   // head_dim
    zig(2);   // bytes_per_element
    bad += std::string("\xFF\xFF\xFF\xFF\x0F", 5);  // Varint 0xFFFFFFFF sequence count.
    StatusOr<BatchPlan> parsed = DeserializePlanBinary(bad);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), StatusCode::kDataLoss);
  }
  // A varint whose 10th byte carries payload bits past bit 63 is an encoding error,
  // not a silent truncation: craft one as the first field (block_size).
  {
    std::string bad("DCPB", 4);
    bad += std::string("\x01\x00\x00\x00", 4);  // Version 1.
    bad += std::string(9, '\x80');
    bad += '\x7E';  // 10th byte with overflowing payload bits.
    StatusOr<BatchPlan> parsed = DeserializePlanBinary(bad);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), StatusCode::kDataLoss);
  }
}

TEST_F(PlanStoreTest, RecordSurvivesRoundTripAndRejectsEveryBitFlip) {
  Rng rng(11);
  const PlannedCase p = PlanRandomCase(rng);
  const PlanSignature sig =
      ComputePlanSignature(p.c.seqlens, p.spec, p.cluster, p.options);
  const std::string record = PlanStore::EncodeRecord(sig, p.plan);

  StatusOr<std::pair<PlanSignature, BatchPlan>> decoded = PlanStore::DecodeRecord(record);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().first, sig);
  EXPECT_EQ(decoded.value().second, p.plan);

  // Every single-bit flip anywhere in the record — header, sections, payload, or the
  // CRC trailer itself — must be caught (the checksum covers everything else, and the
  // trailer flip breaks the checksum comparison). One flip per byte covers the record;
  // all 8 bit positions are cycled through as the offset advances.
  for (size_t byte = 0; byte < record.size(); ++byte) {
    std::string corrupt = record;
    corrupt[byte] = static_cast<char>(corrupt[byte] ^ (1 << (byte % 8)));
    StatusOr<std::pair<PlanSignature, BatchPlan>> flipped =
        PlanStore::DecodeRecord(corrupt);
    ASSERT_FALSE(flipped.ok()) << "bit flip at byte " << byte << " was accepted";
    ASSERT_EQ(flipped.status().code(), StatusCode::kDataLoss);
  }

  // Truncation at every byte boundary fails cleanly.
  for (size_t len = 0; len < record.size(); len += 1) {
    ASSERT_FALSE(PlanStore::DecodeRecord(std::string_view(record).substr(0, len)).ok())
        << "truncation to " << len << " bytes was accepted";
  }
}

TEST_F(PlanStoreTest, UnknownSectionsAreSkippedForForwardCompatibility) {
  Rng rng(12);
  const PlannedCase p = PlanRandomCase(rng);
  const PlanSignature sig =
      ComputePlanSignature(p.c.seqlens, p.spec, p.cluster, p.options);
  const std::string record = PlanStore::EncodeRecord(sig, p.plan);

  // Rebuild the record with an extra unknown section ahead of the plan section: header
  // (28 bytes) + unknown section + original sections (everything up to the CRC trailer)
  // + fresh CRC.
  std::string extended = record.substr(0, 28);
  const uint32_t unknown_tag = 0x7E57;
  const std::string unknown_payload = "future-section";
  for (int i = 0; i < 4; ++i) {
    extended.push_back(static_cast<char>((unknown_tag >> (8 * i)) & 0xFF));
  }
  const uint64_t unknown_len = unknown_payload.size();
  for (int i = 0; i < 8; ++i) {
    extended.push_back(static_cast<char>((unknown_len >> (8 * i)) & 0xFF));
  }
  extended += unknown_payload;
  extended += record.substr(28, record.size() - 28 - 4);
  const uint32_t crc = Crc32(extended);
  for (int i = 0; i < 4; ++i) {
    extended.push_back(static_cast<char>((crc >> (8 * i)) & 0xFF));
  }

  StatusOr<std::pair<PlanSignature, BatchPlan>> decoded =
      PlanStore::DecodeRecord(extended);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().second, p.plan);
}

TEST_F(PlanStoreTest, PutLoadContainsAndReopen) {
  Rng rng(13);
  const PlannedCase p = PlanRandomCase(rng);
  const PlanSignature sig =
      ComputePlanSignature(p.c.seqlens, p.spec, p.cluster, p.options);

  {
    StatusOr<std::unique_ptr<PlanStore>> store = PlanStore::Open(StorePath());
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_FALSE(store.value()->Contains(sig));
    StatusOr<BatchPlan> missing = store.value()->Load(sig);
    EXPECT_FALSE(missing.ok());
    EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
    ASSERT_TRUE(store.value()->Put(sig, p.plan).ok());
    EXPECT_TRUE(store.value()->Contains(sig));
  }
  // A fresh store on the same directory (fresh process in miniature) indexes and serves
  // the record.
  StatusOr<std::unique_ptr<PlanStore>> reopened = PlanStore::Open(StorePath());
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened.value()->Signatures().size(), 1u);
  ASSERT_TRUE(reopened.value()->Contains(sig));
  StatusOr<BatchPlan> loaded = reopened.value()->Load(sig);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value(), p.plan);
  EXPECT_EQ(reopened.value()->stats().hits, 1);

  // Storing under the zero signature is rejected (it is the "no signature" sentinel).
  EXPECT_FALSE(reopened.value()->Put(PlanSignature{}, p.plan).ok());
}

TEST_F(PlanStoreTest, CorruptRecordOnDiskIsCountedSkippedAndReplannedAround) {
  Rng rng(14);
  const PlannedCase p = PlanRandomCase(rng);
  const PlanSignature sig =
      ComputePlanSignature(p.c.seqlens, p.spec, p.cluster, p.options);
  {
    StatusOr<std::unique_ptr<PlanStore>> store = PlanStore::Open(StorePath());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.value()->Put(sig, p.plan).ok());
  }
  // Flip one byte in the middle of the record file.
  const fs::path record_path =
      fs::path(StorePath()) / (sig.ToHex() + ".dcpplan");
  ASSERT_TRUE(fs::exists(record_path));
  {
    std::fstream f(record_path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(0, std::ios::end);
    const std::streamoff size = f.tellg();
    f.seekp(size / 2);
    char c = 0;
    f.seekg(size / 2);
    f.read(&c, 1);
    f.seekp(size / 2);
    c = static_cast<char>(c ^ 0x40);
    f.write(&c, 1);
  }

  StatusOr<std::unique_ptr<PlanStore>> store = PlanStore::Open(StorePath());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store.value()->Contains(sig));
  StatusOr<BatchPlan> loaded = store.value()->Load(sig);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(store.value()->stats().corrupt_skipped, 1);
  // The bad record is dropped from the index; a rewrite heals it.
  EXPECT_FALSE(store.value()->Contains(sig));
  ASSERT_TRUE(store.value()->Put(sig, p.plan).ok());
  EXPECT_TRUE(store.value()->Load(sig).ok());
}

TEST_F(PlanStoreTest, MismatchedSignatureFilenameIsRejected) {
  Rng rng(15);
  const PlannedCase p = PlanRandomCase(rng);
  const PlanSignature sig =
      ComputePlanSignature(p.c.seqlens, p.spec, p.cluster, p.options);
  PlanSignature other = sig;
  other.lo ^= 0xDEADBEEFULL;
  {
    StatusOr<std::unique_ptr<PlanStore>> store = PlanStore::Open(StorePath());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.value()->Put(sig, p.plan).ok());
  }
  // Rename the record to another signature's filename: the embedded signature no longer
  // matches the key, so serving it would hand back the wrong plan.
  fs::rename(fs::path(StorePath()) / (sig.ToHex() + ".dcpplan"),
             fs::path(StorePath()) / (other.ToHex() + ".dcpplan"));
  StatusOr<std::unique_ptr<PlanStore>> store = PlanStore::Open(StorePath());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store.value()->Contains(other));
  StatusOr<BatchPlan> loaded = store.value()->Load(other);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(store.value()->stats().corrupt_skipped, 1);
}

TEST_F(PlanStoreTest, SecondEngineOnSamePathServesStoreHitsBitIdenticalToFreshPlans) {
  Rng rng(16);
  const GeneratedCase c = GenerateCase(rng);
  ClusterSpec cluster;
  cluster.num_nodes = 2;
  cluster.devices_per_node = 2;
  const MaskSpec spec = SmallMaskSpec(c.mask_kind);

  EngineOptions engine_options;
  engine_options.planner = MakeOptions(c);
  engine_options.planner_threads = 1;
  engine_options.plan_store_path = StorePath();

  BatchPlan first_canonical;
  {
    Engine writer(cluster, engine_options);
    ASSERT_TRUE(writer.store_status().ok()) << writer.store_status().ToString();
    StatusOr<PlanHandle> handle = writer.Plan(c.seqlens, spec);
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    first_canonical = Timeless(handle.value()->plan);
    const PlanCacheStats stats = writer.cache_stats();
    EXPECT_EQ(stats.store_writes, 1);
    EXPECT_EQ(stats.store_hits, 0);
  }

  // Fresh engine, fresh in-memory cache, same store path: the plan comes from disk
  // (counted as a store hit) and matches a freshly computed PlanBatch bit for bit.
  Engine reader(cluster, engine_options);
  StatusOr<PlanHandle> warm = reader.Plan(c.seqlens, spec);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  {
    const PlanCacheStats stats = reader.cache_stats();
    EXPECT_EQ(stats.store_hits, 1);
    EXPECT_EQ(stats.store_writes, 0);
    EXPECT_EQ(stats.misses, 1);
  }
  EXPECT_EQ(Timeless(warm.value()->plan), first_canonical);

  std::vector<SequenceMask> masks = BuildBatchMasks(spec, c.seqlens);
  BatchPlan fresh = PlanBatch(c.seqlens, masks, cluster, engine_options.planner);
  EXPECT_EQ(Timeless(warm.value()->plan), Timeless(fresh));

  // The store-served handle carries usable masks (derived, not persisted).
  ASSERT_EQ(warm.value()->masks.size(), c.seqlens.size());
  for (size_t s = 0; s < c.seqlens.size(); ++s) {
    EXPECT_EQ(warm.value()->masks[s].length(), c.seqlens[s]);
  }

  // Replanning the same signature is now an in-memory hit, not another disk read.
  StatusOr<PlanHandle> again = reader.Plan(c.seqlens, spec);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().get(), warm.value().get());
  EXPECT_EQ(reader.cache_stats().store_hits, 1);
  EXPECT_EQ(reader.cache_stats().hits, 1);
}

TEST_F(PlanStoreTest, EngineSkipsCorruptStoreRecordAndRecovers) {
  Rng rng(17);
  const GeneratedCase c = GenerateCase(rng);
  ClusterSpec cluster;
  cluster.num_nodes = 1;
  cluster.devices_per_node = 2;
  const MaskSpec spec = SmallMaskSpec(c.mask_kind);

  EngineOptions engine_options;
  engine_options.planner = MakeOptions(c);
  engine_options.planner_threads = 1;
  engine_options.plan_store_path = StorePath();

  BatchPlan canonical;
  {
    Engine writer(cluster, engine_options);
    StatusOr<PlanHandle> handle = writer.Plan(c.seqlens, spec);
    ASSERT_TRUE(handle.ok());
    canonical = Timeless(handle.value()->plan);
  }
  // Truncate the record to simulate a torn write under an old (pre-atomic) writer.
  const PlanSignature sig = ComputePlanSignature(c.seqlens, spec, cluster,
                                                 engine_options.planner);
  const fs::path record_path = fs::path(StorePath()) / (sig.ToHex() + ".dcpplan");
  ASSERT_TRUE(fs::exists(record_path));
  fs::resize_file(record_path, fs::file_size(record_path) / 2);

  Engine reader(cluster, engine_options);
  StatusOr<PlanHandle> replanned = reader.Plan(c.seqlens, spec);
  ASSERT_TRUE(replanned.ok()) << replanned.status().ToString();
  const PlanCacheStats stats = reader.cache_stats();
  EXPECT_EQ(stats.store_corrupt_skipped, 1);
  EXPECT_EQ(stats.store_hits, 0);
  // The replanned result is correct and was written back, healing the store.
  EXPECT_EQ(Timeless(replanned.value()->plan), canonical);
  EXPECT_EQ(stats.store_writes, 1);

  Engine healed(cluster, engine_options);
  StatusOr<PlanHandle> warm = healed.Plan(c.seqlens, spec);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(healed.cache_stats().store_hits, 1);
  EXPECT_EQ(Timeless(warm.value()->plan), canonical);
}

TEST_F(PlanStoreTest, BundleExportImportMovesRecordsBetweenStores) {
  Rng rng(18);
  const PlannedCase a = PlanRandomCase(rng);
  const PlannedCase b = PlanRandomCase(rng);
  const PlanSignature sig_a =
      ComputePlanSignature(a.c.seqlens, a.spec, a.cluster, a.options);
  const PlanSignature sig_b =
      ComputePlanSignature(b.c.seqlens, b.spec, b.cluster, b.options);
  ASSERT_FALSE(sig_a == sig_b);

  const std::string bundle = (dir_ / "plans.bundle").string();
  {
    StatusOr<std::unique_ptr<PlanStore>> src = PlanStore::Open(StorePath("src"));
    ASSERT_TRUE(src.ok());
    ASSERT_TRUE(src.value()->Put(sig_a, a.plan).ok());
    ASSERT_TRUE(src.value()->Put(sig_b, b.plan).ok());
    StatusOr<int> exported = src.value()->ExportBundle(bundle);
    ASSERT_TRUE(exported.ok()) << exported.status().ToString();
    EXPECT_EQ(exported.value(), 2);
  }

  StatusOr<std::unique_ptr<PlanStore>> dst = PlanStore::Open(StorePath("dst"));
  ASSERT_TRUE(dst.ok());
  StatusOr<int> imported = dst.value()->ImportBundle(bundle);
  ASSERT_TRUE(imported.ok()) << imported.status().ToString();
  EXPECT_EQ(imported.value(), 2);
  StatusOr<BatchPlan> loaded_a = dst.value()->Load(sig_a);
  StatusOr<BatchPlan> loaded_b = dst.value()->Load(sig_b);
  ASSERT_TRUE(loaded_a.ok());
  ASSERT_TRUE(loaded_b.ok());
  EXPECT_EQ(loaded_a.value(), a.plan);
  EXPECT_EQ(loaded_b.value(), b.plan);

  // A truncated bundle is a clean DATA_LOSS error.
  fs::resize_file(bundle, fs::file_size(bundle) - 5);
  StatusOr<std::unique_ptr<PlanStore>> dst2 = PlanStore::Open(StorePath("dst2"));
  ASSERT_TRUE(dst2.ok());
  StatusOr<int> truncated = dst2.value()->ImportBundle(bundle);
  EXPECT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.status().code(), StatusCode::kDataLoss);
}

}  // namespace
}  // namespace dcp
