// FrameSet (src/vstd/frame_set.h) against SpecSet<PagePtr> as the oracle:
// random writes with live snapshots, canonical shapes, ascending
// iteration, the bitmap forms, and keys of every alignment and range.

#include "src/vstd/frame_set.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "src/vstd/arena.h"
#include "src/vstd/spec_set.h"

namespace atmo {
namespace {

std::uint64_t Next(std::uint64_t* state) {
  std::uint64_t x = *state;
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return *state = x;
}

std::vector<PagePtr> Elements(const FrameSet& s) {
  return std::vector<PagePtr>(s.begin(), s.end());
}
std::vector<PagePtr> Elements(const SpecSet<PagePtr>& s) {
  return std::vector<PagePtr>(s.begin(), s.end());
}

// The frames of a bitmap that marks `members`, `words` long.
std::vector<std::uint64_t> BitmapOf(const std::vector<PagePtr>& members, std::size_t words) {
  std::vector<std::uint64_t> bits(words, 0);
  for (PagePtr p : members) {
    const std::uint64_t frame = p / kPageSize4K;
    bits[frame / 64] |= std::uint64_t{1} << (frame % 64);
  }
  return bits;
}

// A key drawn mostly from a 16K-frame machine, sometimes 2M- or 1G-aligned
// or far beyond it.
PagePtr RandomKey(std::uint64_t* rng) {
  const std::uint64_t r = Next(rng);
  switch (r % 16) {
    case 0:
      return (r >> 8) % 64 * kPageSize2M;
    case 1:
      return (r >> 8) % 8 * kPageSize1G;
    case 2:
      return ((r >> 8) % (std::uint64_t{1} << 40)) * kPageSize4K;  // far beyond the machine
    default:
      return (r >> 8) % 16384 * kPageSize4K;
  }
}

void ExpectSame(const FrameSet& got, const SpecSet<PagePtr>& want) {
  ASSERT_EQ(got.size(), want.size());
  ASSERT_EQ(Elements(got), Elements(want));
  for (PagePtr p : want) {
    ASSERT_TRUE(got.contains(p)) << std::hex << p;
  }
}

TEST(FrameSetTest, RandomWritesAgreeWithSpecSetAndLeaveSnapshotsUnchanged) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    std::uint64_t rng = 0x9e3779b97f4a7c15ULL * seed;
    FrameSet set;
    SpecSet<PagePtr> oracle;
    std::vector<std::pair<FrameSet, SpecSet<PagePtr>>> snapshots;
    std::vector<PagePtr> touched;
    for (int step = 0; step < 4000; ++step) {
      // Erase from the keys seen so far half the time, so sets shrink too.
      PagePtr key = RandomKey(&rng);
      const bool erase = !touched.empty() && Next(&rng) % 2 == 0;
      if (erase) {
        key = touched[Next(&rng) % touched.size()];
        set.erase(key);
        oracle.erase(key);
      } else {
        set.add(key);
        oracle.add(key);
        touched.push_back(key);
      }
      ASSERT_EQ(set.contains(key), oracle.contains(key));
      ASSERT_EQ(set.size(), oracle.size());
      if (step % 97 == 0) {
        snapshots.emplace_back(set, oracle);
        ASSERT_TRUE(snapshots.back().first.SharesRepWith(set));
      }
    }
    ExpectSame(set, oracle);
    for (const auto& [snap, want] : snapshots) {
      ExpectSame(snap, want);
      // Equality is a set equality: a set rebuilt key by key matches.
      FrameSet rebuilt;
      for (PagePtr p : want) {
        rebuilt.add(p);
      }
      EXPECT_TRUE(rebuilt == snap);
      EXPECT_EQ(snap == set, want == oracle);
    }
  }
}

TEST(FrameSetTest, EmptiedLeafEqualsSetThatNeverHadIt) {
  FrameSet never;
  never.add(0x3000);
  never.add(5 * kPageSize2M);  // frames 3 and 2560: one leaf under the root
  never.add(9000 * kPageSize4K);

  FrameSet emptied = never;
  emptied.add(4096 * 7 * kPageSize4K);  // a leaf of its own
  EXPECT_FALSE(emptied == never);
  emptied.erase(4096 * 7 * kPageSize4K);
  EXPECT_FALSE(emptied.SharesRepWith(never));  // the root was copied
  EXPECT_TRUE(emptied == never);

  // A key beyond the tree's range grows its height; erasing it shrinks the
  // tree back, below a root that is still shared with another set.
  FrameSet grown = never;
  grown.add(3 * kPageSize1G);
  grown.add(std::uint64_t{1} << 50);
  const FrameSet kept = grown;
  grown.erase(std::uint64_t{1} << 50);
  grown.erase(3 * kPageSize1G);
  EXPECT_TRUE(grown == never);
  EXPECT_EQ(kept.size(), 5u);
  EXPECT_TRUE(kept.contains(std::uint64_t{1} << 50));

  // Emptied to nothing equals the empty set.
  FrameSet drained = never;
  drained.erase(0x3000);
  drained.erase(5 * kPageSize2M);
  drained.erase(9000 * kPageSize4K);
  EXPECT_TRUE(drained == FrameSet{});
  EXPECT_TRUE(drained.empty());
  EXPECT_EQ(never.size(), 3u);
}

TEST(FrameSetTest, IteratesInAscendingOrder) {
  std::uint64_t rng = 77;
  FrameSet set;
  SpecSet<PagePtr> oracle;
  for (int i = 0; i < 3000; ++i) {
    const PagePtr key = RandomKey(&rng);
    set.add(key);
    oracle.add(key);
  }
  const std::vector<PagePtr> got = Elements(set);
  for (std::size_t i = 1; i < got.size(); ++i) {
    ASSERT_LT(got[i - 1], got[i]);
  }
  EXPECT_EQ(got, Elements(oracle));
  EXPECT_TRUE(FrameSet{}.begin() == FrameSet{}.end());
}

TEST(FrameSetTest, BuildsFromAndComparesWithBitmap) {
  std::uint64_t rng = 5;
  SpecSet<PagePtr> oracle;
  for (int i = 0; i < 2000; ++i) {
    oracle.add((Next(&rng) % 16384) * kPageSize4K);
  }
  const std::vector<PagePtr> members = Elements(oracle);
  const std::vector<std::uint64_t> bits = BitmapOf(members, 16384 / 64);

  const FrameSet built = FrameSet::FromBitmap(bits);
  ExpectSame(built, oracle);
  FrameSet added;
  for (PagePtr p : members) {
    added.add(p);
  }
  EXPECT_TRUE(built == added);
  EXPECT_TRUE(built.EqualsBitmap(bits));
  EXPECT_TRUE(added.EqualsBitmap(bits));

  // A bitmap longer than the set's range: its extra words are zero.
  std::vector<std::uint64_t> longer = bits;
  longer.resize(1 << 14, 0);
  EXPECT_TRUE(built.EqualsBitmap(longer));
  EXPECT_TRUE(FrameSet::FromBitmap(longer) == built);
  longer.back() = 1;
  EXPECT_FALSE(built.EqualsBitmap(longer));

  // One bit more or less, anywhere, is a difference.
  std::vector<std::uint64_t> flipped = bits;
  flipped[100] ^= std::uint64_t{1} << 9;
  EXPECT_FALSE(built.EqualsBitmap(flipped));

  // A member beyond a shorter bitmap is a difference.
  FrameSet beyond = built;
  beyond.add(kPageSize1G);
  EXPECT_FALSE(beyond.EqualsBitmap(bits));
  EXPECT_FALSE(beyond.EqualsBitmap(std::vector<std::uint64_t>{}));

  // The all-zero bitmap is the empty set, at any length.
  EXPECT_TRUE(FrameSet::FromBitmap(std::vector<std::uint64_t>(300, 0)) == FrameSet{});
  EXPECT_TRUE(FrameSet{}.EqualsBitmap(std::vector<std::uint64_t>(300, 0)));
  EXPECT_FALSE(FrameSet{}.EqualsBitmap(bits));
}

TEST(FrameSetTest, KeysOfEveryAlignmentAndRange) {
  const std::vector<PagePtr> keys = {
      0,
      kPageSize4K,
      kPageSize2M,
      7 * kPageSize2M,
      kPageSize1G,
      5 * kPageSize1G,
      (std::uint64_t{1} << 51) * kPageSize4K,  // the top of the 52-bit frame space
      ((std::uint64_t{1} << 52) - 1) * kPageSize4K,
  };
  FrameSet set;
  SpecSet<PagePtr> oracle;
  for (PagePtr p : keys) {
    set.add(p);
    oracle.add(p);
  }
  ExpectSame(set, oracle);
  EXPECT_FALSE(set.contains(kPageSize2M + 1));  // not 4K-aligned: never a member
  EXPECT_FALSE(set.contains(2 * kPageSize1G));
  std::vector<std::uint64_t> bits(2 * kPageSize1G / kPageSize4K / 64, 0);
  bits[0] = 0b11;
  EXPECT_FALSE(set.EqualsBitmap(bits));  // the members beyond it
  for (PagePtr p : keys) {
    set.erase(p);
    oracle.erase(p);
    ExpectSame(set, oracle);
  }
  EXPECT_TRUE(set == FrameSet{});
}

TEST(FrameSetTest, WriteCopiesOneNodePerLevelAndNothingWhenUnchanged) {
  FrameSet base;
  for (std::uint64_t frame = 0; frame < 16384; frame += 3) {
    base.add(frame * kPageSize4K);  // height 1: a root over four leaves
  }
  auto arena = std::make_shared<SpecArena>();
  {
    ArenaScope scope(arena);
    FrameSet copy = base;
    copy.add(1 * kPageSize4K);
    EXPECT_EQ(arena->stats().allocs, 2u);  // the root and one leaf
    copy.add(4 * kPageSize4K);  // the same leaf, now this set's alone
    copy.add(0);                // already a member
    copy.erase(2 * kPageSize4K);  // not a member
    EXPECT_EQ(arena->stats().allocs, 2u);
    copy.add(9001 * kPageSize4K);  // another leaf under the opened root
    EXPECT_EQ(arena->stats().allocs, 3u);
    EXPECT_EQ(base.size() + 3, copy.size());
    EXPECT_FALSE(base.contains(kPageSize4K));
  }
  EXPECT_EQ(arena->live(), 0u);  // the copy's nodes were released
}

}  // namespace
}  // namespace atmo
