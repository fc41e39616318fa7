#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "rsyncx/checksum.h"
#include "rsyncx/delta.h"
#include "rsyncx/md5.h"
#include "rsyncx/patch.h"
#include "rsyncx/session.h"
#include "rsyncx/signature.h"
#include "util/blob.h"
#include "util/rng.h"

namespace droute::rsyncx {
namespace {

using util::Blob;

Blob blob_of(std::uint64_t seed, std::size_t size) {
  util::Rng rng(seed);
  return util::make_random_blob(rng, size);
}

// ------------------------------------------------------- rolling checksum ----

TEST(RollingChecksum, RollMatchesRecompute) {
  const Blob data = blob_of(1, 4096);
  constexpr std::size_t kWindow = 512;
  RollingChecksum rolling(
      std::span<const std::uint8_t>(data).subspan(0, kWindow));
  for (std::size_t i = 0; i + kWindow < data.size(); ++i) {
    rolling.roll(data[i], data[i + kWindow]);
    const std::uint32_t direct =
        weak_checksum(std::span(data).subspan(i + 1, kWindow));
    ASSERT_EQ(rolling.digest(), direct) << "offset " << i;
  }
}

TEST(RollingChecksum, SensitiveToContent) {
  Blob a = blob_of(2, 700);
  Blob b = a;
  b[350] ^= 0xff;
  EXPECT_NE(weak_checksum(a), weak_checksum(b));
}

TEST(RollingChecksum, WindowSizeTracked) {
  const Blob data = blob_of(3, 128);
  RollingChecksum rc{std::span<const std::uint8_t>(data)};
  EXPECT_EQ(rc.window_size(), 128u);
}

// ------------------------------------------------------------------- md5 ----

TEST(Md5, Rfc1321TestVectors) {
  auto hex = [](const std::string& s) {
    return to_hex(Md5::hash(std::span(
        reinterpret_cast<const std::uint8_t*>(s.data()), s.size())));
  };
  EXPECT_EQ(hex(""), "d41d8cd98f00b204e9800998ecf8427e");
  EXPECT_EQ(hex("a"), "0cc175b9c0f1b6a831c399e269772661");
  EXPECT_EQ(hex("abc"), "900150983cd24fb0d6963f7d28e17f72");
  EXPECT_EQ(hex("message digest"), "f96b697d7cb7938d525a2f31aaf161d0");
  EXPECT_EQ(hex("abcdefghijklmnopqrstuvwxyz"),
            "c3fcd3d76192e4007dfb496cca67e13b");
  EXPECT_EQ(
      hex("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"),
      "d174ab98d277d9f5a5611c2c9f419d9f");
  EXPECT_EQ(hex("1234567890123456789012345678901234567890123456789012345678"
                "9012345678901234567890"),
            "57edf4a22be3c955ac49da2e2107b67a");
}

TEST(Md5, StreamingEqualsOneShot) {
  const Blob data = blob_of(4, 100000);
  for (std::size_t piece : {1u, 7u, 64u, 1000u, 4096u}) {
    Md5 streaming;
    for (std::size_t off = 0; off < data.size(); off += piece) {
      const std::size_t take = std::min(piece, data.size() - off);
      streaming.update(std::span(data).subspan(off, take));
    }
    EXPECT_EQ(streaming.finalize(), Md5::hash(data)) << "piece=" << piece;
  }
}

TEST(Md5, PaddingBoundaries) {
  // Lengths around the 56-byte padding threshold and the 64-byte block.
  for (std::size_t size : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    const Blob data = blob_of(5, size);
    Md5 streaming;
    streaming.update(data);
    EXPECT_EQ(streaming.finalize(), Md5::hash(data)) << "size=" << size;
  }
}

TEST(Md5, MillionAs) {
  // RFC 1321's reference suite, and FIPS 180's long-message convention.
  const std::vector<std::uint8_t> data(1000000, 'a');
  EXPECT_EQ(to_hex(Md5::hash(data)), "7707d6ae4e027c70eea2a935c2296f21");
}

TEST(Md5, UnalignedInputEqualsAlignedCopy) {
  // Lengths one either side of every block multiple up to 4 KiB, read from
  // an odd address.
  const Blob source = blob_of(9, 4096 + 2);
  for (std::size_t block = 0; block <= 4096; block += 64) {
    for (std::size_t n = block == 0 ? 0 : block - 1; n <= block + 1; ++n) {
      const std::span<const std::uint8_t> unaligned(source.data() + 1, n);
      const Blob aligned(unaligned.begin(), unaligned.end());
      ASSERT_EQ(Md5::hash(unaligned), Md5::hash(aligned)) << "n=" << n;
    }
  }
}

TEST(Md5, RandomPiecesEqualOneShot) {
  const Blob data = blob_of(10, 1 << 20);
  util::Rng rng(11);
  Md5 streaming;
  for (std::size_t off = 0; off < data.size();) {
    const auto piece = static_cast<std::size_t>(rng.uniform_int(1, 4096));
    const std::size_t take = std::min(piece, data.size() - off);
    streaming.update(std::span(data).subspan(off, take));
    off += take;
  }
  EXPECT_EQ(streaming.finalize(), Md5::hash(data));
}

// -------------------------------------------------------------- signature ----

TEST(Signature, BlockCountAndTail) {
  const Blob basis = blob_of(6, 10 * 700 + 123);
  const Signature sig = compute_signature(basis, 700);
  EXPECT_EQ(sig.blocks.size(), 11u);
  EXPECT_EQ(sig.basis_size, basis.size());
  EXPECT_EQ(sig.block_size, 700u);
}

TEST(Signature, RecommendedBlockSizeClampsAndScales) {
  EXPECT_EQ(recommended_block_size(0), 700u);
  EXPECT_EQ(recommended_block_size(1000), 700u);          // floor
  EXPECT_EQ(recommended_block_size(100 * 1000 * 1000) % 8, 0u);
  EXPECT_GE(recommended_block_size(100 * 1000 * 1000), 700u);
  EXPECT_LE(recommended_block_size(1ull << 60), 128u * 1024);  // ceiling
}

TEST(Signature, WireBytesAccounting) {
  const Blob basis = blob_of(7, 7000);
  const Signature sig = compute_signature(basis, 700);
  EXPECT_EQ(sig.wire_bytes(), 16 + 10 * 24u);
}

TEST(SignatureIndex, FindsOwnBlocks) {
  const Blob basis = blob_of(8, 7000);
  const Signature sig = compute_signature(basis, 700);
  const SignatureIndex index(sig);
  for (const BlockSignature& block : sig.blocks) {
    const auto candidates = index.candidates(block.weak);
    EXPECT_FALSE(candidates.empty());
  }
  EXPECT_TRUE(index.candidates(0xdeadbeef).empty() ||
              !index.candidates(0xdeadbeef).empty());  // just must not crash
}

// ------------------------------------------------------------------ delta ----

TEST(Delta, IdenticalFileIsAllCopies) {
  const Blob file = blob_of(9, 50000);
  const Signature sig = compute_signature(file, 700);
  const SignatureIndex index(sig);
  const Delta delta = compute_delta(file, index);
  EXPECT_EQ(delta.literal_bytes(), 0u);
  EXPECT_EQ(delta.copied_bytes(), file.size());
  // Contiguous runs merge: an identical file should be a single Copy op.
  EXPECT_EQ(delta.ops.size(), 1u);
}

TEST(Delta, EmptyBasisIsOneLiteral) {
  // The paper's benchmark case: files are deleted before each run, so rsync
  // degenerates to a full-content send.
  const Blob file = blob_of(10, 30000);
  Signature empty;
  empty.block_size = 700;
  empty.basis_size = 0;
  const SignatureIndex index(empty);
  const Delta delta = compute_delta(file, index);
  EXPECT_EQ(delta.copied_bytes(), 0u);
  EXPECT_EQ(delta.literal_bytes(), file.size());
  EXPECT_EQ(delta.ops.size(), 1u);
  EXPECT_GE(delta.wire_bytes(), file.size());
}

TEST(Delta, WireBytesReflectLiterals) {
  const Blob file = blob_of(11, 10000);
  Signature empty;
  empty.block_size = 700;
  const SignatureIndex index(empty);
  const Delta delta = compute_delta(file, index);
  EXPECT_EQ(delta.wire_bytes(), 24 + 8 + file.size());
}

// Property suite: random edits against a random basis always reconstruct.
struct MutationCase {
  std::uint64_t seed;
  std::size_t basis_size;
  int edits;
};

class DeltaPatchProperty : public ::testing::TestWithParam<MutationCase> {};

TEST_P(DeltaPatchProperty, RoundTripReconstructsExactly) {
  const auto& param = GetParam();
  util::Rng rng(param.seed);
  Blob basis = util::make_random_blob(rng, param.basis_size);
  Blob target = basis;

  for (int edit = 0; edit < param.edits; ++edit) {
    const int kind = static_cast<int>(rng.uniform_int(0, 2));
    const std::size_t pos = target.empty()
                                ? 0
                                : static_cast<std::size_t>(rng.uniform_int(
                                      0, static_cast<std::int64_t>(
                                             target.size() - 1)));
    const std::size_t span = static_cast<std::size_t>(rng.uniform_int(1, 900));
    switch (kind) {
      case 0: {  // overwrite
        for (std::size_t i = pos; i < std::min(target.size(), pos + span); ++i)
          target[i] = static_cast<std::uint8_t>(rng.next_u64());
        break;
      }
      case 1: {  // insert
        Blob chunk = util::make_random_blob(rng, span);
        target.insert(target.begin() + static_cast<std::ptrdiff_t>(pos),
                      chunk.begin(), chunk.end());
        break;
      }
      default: {  // delete
        const std::size_t end = std::min(target.size(), pos + span);
        target.erase(target.begin() + static_cast<std::ptrdiff_t>(pos),
                     target.begin() + static_cast<std::ptrdiff_t>(end));
        break;
      }
    }
  }

  const std::uint32_t block = recommended_block_size(basis.size());
  auto rebuilt = round_trip(basis, target, block);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.error().message;
  EXPECT_EQ(rebuilt.value(), target);
}

INSTANTIATE_TEST_SUITE_P(
    RandomMutations, DeltaPatchProperty,
    ::testing::Values(MutationCase{101, 0, 3}, MutationCase{102, 1, 2},
                      MutationCase{103, 699, 4}, MutationCase{104, 700, 4},
                      MutationCase{105, 701, 4}, MutationCase{106, 5000, 1},
                      MutationCase{107, 5000, 10}, MutationCase{108, 50000, 5},
                      MutationCase{109, 50000, 25},
                      MutationCase{110, 200000, 8},
                      MutationCase{111, 200000, 40},
                      MutationCase{112, 1 << 20, 12}));

TEST(Delta, MostlyUnchangedFileSendsFewLiterals) {
  util::Rng rng(200);
  Blob basis = util::make_random_blob(rng, 1 << 20);
  Blob target = basis;
  target[123456] ^= 0x5a;  // single-byte edit
  const std::uint32_t block = recommended_block_size(basis.size());
  const Signature sig = compute_signature(basis, block);
  const SignatureIndex index(sig);
  const Delta delta = compute_delta(target, index);
  // One damaged block worth of literals at most (plus alignment slack).
  EXPECT_LE(delta.literal_bytes(), 2ull * block);
  EXPECT_GE(delta.copied_bytes(), target.size() - 2ull * block);
}

// ------------------------------------------------------------------ patch ----

TEST(Patch, RejectsOutOfRangeCopy) {
  Delta delta;
  delta.block_size = 700;
  delta.target_size = 700;
  delta.ops.emplace_back(CopyOp{99, 700});
  const Blob basis = blob_of(12, 1400);
  EXPECT_FALSE(apply_delta(basis, delta).ok());
}

TEST(Patch, RejectsCopyRunPastBasisEnd) {
  Delta delta;
  delta.block_size = 700;
  delta.target_size = 1400;
  delta.ops.emplace_back(CopyOp{1, 1400});  // block 1 + 1400 > basis end
  const Blob basis = blob_of(13, 1400);
  EXPECT_FALSE(apply_delta(basis, delta).ok());
}

TEST(Patch, RejectsSizeMismatch) {
  Delta delta;
  delta.block_size = 700;
  delta.target_size = 10;
  delta.ops.emplace_back(LiteralOp{Blob(5, 0xab)});
  EXPECT_FALSE(apply_delta({}, delta).ok());
}

TEST(Patch, RejectsZeroBlockSize) {
  Delta delta;
  delta.block_size = 0;
  EXPECT_FALSE(apply_delta({}, delta).ok());
}

// ---------------------------------------------------------------- session ----

TEST(Session, NoBasisPlanIsFullLiteral) {
  const Blob target = blob_of(14, 100000);
  const SessionPlan plan = plan_session(target, std::nullopt);
  EXPECT_EQ(plan.delta.literal_bytes(), target.size());
  EXPECT_EQ(plan.delta.copied_bytes(), 0u);
  EXPECT_GT(plan.forward_wire_bytes, target.size());
  EXPECT_LT(plan.reverse_wire_bytes, 1000u);  // empty signature + framing

  auto rebuilt = execute_plan(plan, std::nullopt);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(rebuilt.value(), target);
}

TEST(Session, WarmBasisShrinksForwardBytes) {
  util::Rng rng(15);
  Blob basis = util::make_random_blob(rng, 500000);
  Blob target = basis;
  target[1000] ^= 1;
  const SessionPlan plan =
      plan_session(target, std::span<const std::uint8_t>(basis));
  EXPECT_LT(plan.forward_wire_bytes, target.size() / 10);
  EXPECT_GT(plan.reverse_wire_bytes, 1000u);  // real signature crossed back

  auto rebuilt = execute_plan(plan, std::span<const std::uint8_t>(basis));
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(rebuilt.value(), target);
}

TEST(Session, CpuCostsScaleWithBytes) {
  const Blob small = blob_of(16, 10000);
  const Blob large = blob_of(17, 1000000);
  const auto plan_small = plan_session(small, std::nullopt);
  const auto plan_large = plan_session(large, std::nullopt);
  EXPECT_GT(plan_large.sender_cpu_s, plan_small.sender_cpu_s * 50);
}

}  // namespace
}  // namespace droute::rsyncx
