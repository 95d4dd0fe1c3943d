// Base-utility tests: arena, rng, strings, hashing, clocks.
#include <gtest/gtest.h>

#include <set>

#include "src/base/arena.h"
#include "src/base/clock.h"
#include "src/base/hash.h"
#include "src/base/rng.h"
#include "src/base/string_util.h"

namespace {

TEST(Arena, AlignmentHonored) {
  lxfi::Arena arena(1 << 20);
  void* a = arena.Allocate(10, 16);
  void* b = arena.Allocate(10, 4096);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(a) % 16, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(b) % 4096, 0u);
  EXPECT_TRUE(arena.Contains(a));
  EXPECT_TRUE(arena.Contains(b));
}

TEST(Arena, ExhaustionReturnsNull) {
  lxfi::Arena arena(8 << 10);
  EXPECT_NE(arena.Allocate(4096), nullptr);
  EXPECT_EQ(arena.Allocate(64 << 10), nullptr);
}

TEST(Arena, ResetReclaims) {
  lxfi::Arena arena(8 << 10);
  arena.Allocate(4096);
  size_t used = arena.used();
  EXPECT_GT(used, 0u);
  arena.Reset();
  EXPECT_EQ(arena.used(), 0u);
  EXPECT_NE(arena.Allocate(4096), nullptr);
}

TEST(Rng, DeterministicPerSeed) {
  lxfi::Rng a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
  bool differs = false;
  lxfi::Rng a2(123);
  for (int i = 0; i < 100; ++i) {
    differs = differs || a2.Next() != c.Next();
  }
  EXPECT_TRUE(differs);
}

TEST(Rng, BoundsRespected) {
  lxfi::Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Below(17), 17u);
    uint64_t r = rng.Range(5, 9);
    EXPECT_GE(r, 5u);
    EXPECT_LE(r, 9u);
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, GeometricMeanRoughlyCalibrated) {
  lxfi::Rng rng(42);
  double sum = 0;
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) {
    sum += static_cast<double>(rng.GeometricMean(8.0));
  }
  double mean = sum / kSamples;
  EXPECT_GT(mean, 6.5);
  EXPECT_LT(mean, 9.5);
}

TEST(StringUtil, SplitAndTrim) {
  auto parts = lxfi::SplitString("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(lxfi::TrimWhitespace("  hi \n"), "hi");
  EXPECT_EQ(lxfi::TrimWhitespace(""), "");
  EXPECT_TRUE(lxfi::StartsWith("pre(check)", "pre("));
  EXPECT_FALSE(lxfi::StartsWith("pr", "pre"));
}

TEST(StringUtil, FormatAndJoin) {
  EXPECT_EQ(lxfi::StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(lxfi::JoinStrings({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(lxfi::ToLowerAscii("AbC"), "abc");
}

TEST(Hash, Fnv1aKnownProperties) {
  EXPECT_NE(lxfi::Fnv1a64("a"), lxfi::Fnv1a64("b"));
  EXPECT_EQ(lxfi::Fnv1a64("lxfi"), lxfi::Fnv1a64("lxfi"));
  // Mix64 is a bijection-ish scrambler: distinct small inputs stay distinct.
  std::set<uint64_t> outs;
  for (uint64_t i = 0; i < 1000; ++i) {
    outs.insert(lxfi::Mix64(i));
  }
  EXPECT_EQ(outs.size(), 1000u);
}

TEST(Clock, MonotonicAdvances) {
  uint64_t a = lxfi::MonotonicNowNs();
  uint64_t b = lxfi::MonotonicNowNs();
  EXPECT_GE(b, a);
}

TEST(SimClock, ExplicitAdvance) {
  lxfi::SimClock clock;
  EXPECT_EQ(clock.now_ns(), 0u);
  clock.Advance(100);
  clock.Advance(50);
  EXPECT_EQ(clock.now_ns(), 150u);
  clock.Reset();
  EXPECT_EQ(clock.now_ns(), 0u);
}

}  // namespace
