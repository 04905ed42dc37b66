#include "cluster/profile_store.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace knots::cluster {
namespace {

TEST(ProfileStore, UnknownImageIsNull) {
  ProfileStore store;
  EXPECT_EQ(store.find("nope"), nullptr);
  EXPECT_FALSE(store.known("nope"));
  EXPECT_EQ(store.size(), 0u);
  EXPECT_FALSE(store.memory_correlation("a", "b").has_value());
}

TEST(ProfileStore, FirstRunStoredVerbatim) {
  ProfileStore store;
  store.record_run("lud", 500, 700, 0.4, 0.9, {1, 2, 3}, {0.1, 0.2, 0.3});
  const auto* prof = store.find("lud");
  ASSERT_NE(prof, nullptr);
  EXPECT_EQ(prof->observed_runs, 1);
  EXPECT_DOUBLE_EQ(prof->p80_memory_mb, 500);
  EXPECT_DOUBLE_EQ(prof->peak_memory_mb, 700);
  EXPECT_DOUBLE_EQ(prof->mean_sm, 0.4);
  EXPECT_EQ(prof->memory_signature, (std::vector<double>{1, 2, 3}));
}

TEST(ProfileStore, EmaBlendsSubsequentRuns) {
  ProfileStore store;
  store.record_run("x", 100, 200, 0.2, 0.5, {10}, {0.1});
  store.record_run("x", 200, 180, 0.4, 0.6, {20}, {0.2});
  const auto* prof = store.find("x");
  ASSERT_NE(prof, nullptr);
  EXPECT_EQ(prof->observed_runs, 2);
  EXPECT_DOUBLE_EQ(prof->p80_memory_mb, 0.7 * 100 + 0.3 * 200);
  EXPECT_DOUBLE_EQ(prof->peak_memory_mb, 200);  // peaks only grow
  EXPECT_DOUBLE_EQ(prof->peak_sm, 0.6);
  EXPECT_DOUBLE_EQ(prof->memory_signature[0], 13);
}

TEST(ProfileStore, CorrelationBetweenSimilarSignaturesIsHigh) {
  ProfileStore store;
  std::vector<double> rampy, anti, sm(8, 0.1);
  for (int i = 0; i < 8; ++i) {
    rampy.push_back(i);
    anti.push_back(8 - i);
  }
  store.record_run("a", 1, 1, 0, 0, rampy, sm);
  store.record_run("b", 1, 1, 0, 0, rampy, sm);
  store.record_run("c", 1, 1, 0, 0, anti, sm);
  EXPECT_NEAR(*store.memory_correlation("a", "b"), 1.0, 1e-9);
  EXPECT_NEAR(*store.memory_correlation("a", "c"), -1.0, 1e-9);
}

TEST(ProfileStore, CorrelationNullWhenLengthsMismatch) {
  ProfileStore store;
  store.record_run("a", 1, 1, 0, 0, {1, 2, 3}, {0, 0, 0});
  store.record_run("b", 1, 1, 0, 0, {1, 2}, {0, 0});
  EXPECT_FALSE(store.memory_correlation("a", "b").has_value());
}

TEST(ProfileStore, SeparateImagesIndependent) {
  ProfileStore store;
  store.record_run("face#1", 10, 10, 0.1, 0.2, {1}, {1});
  store.record_run("face#64", 90, 95, 0.5, 0.8, {9}, {9});
  EXPECT_EQ(store.size(), 2u);
  EXPECT_DOUBLE_EQ(store.find("face#1")->p80_memory_mb, 10);
  EXPECT_DOUBLE_EQ(store.find("face#64")->p80_memory_mb, 90);
}

TEST(ProfileStore, GenerationMovesOnlyWhenAnImageIsAdded) {
  // Caches of find() (CBP's per-pod profile pointers) stay valid across
  // repeat runs of an image: the pointer is stable and reads see the update.
  ProfileStore store;
  const auto empty = store.generation();
  store.record_run("x", 100, 200, 0.2, 0.5, {10}, {0.1});
  const auto one_image = store.generation();
  EXPECT_NE(one_image, empty);
  const ImageProfile* cached = store.find("x");
  store.record_run("x", 200, 180, 0.4, 0.6, {20}, {0.2});
  EXPECT_EQ(store.generation(), one_image);
  EXPECT_EQ(store.find("x"), cached);
  EXPECT_EQ(cached->observed_runs, 2);
  store.record_run("y", 1, 1, 0, 0, {1}, {1});
  EXPECT_NE(store.generation(), one_image);
  EXPECT_EQ(store.find("x"), cached);
}

}  // namespace
}  // namespace knots::cluster
