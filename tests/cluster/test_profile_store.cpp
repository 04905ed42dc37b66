#include "cluster/profile_store.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "stats/correlation.hpp"

namespace knots::cluster {
namespace {

TEST(ProfileStore, InternGivesEqualKeysOneDenseId) {
  ProfileStore store;
  const ImageId lud = store.intern("lud");
  const ImageId face = store.intern("face#4");
  EXPECT_EQ(lud, ImageId{0});
  EXPECT_EQ(face, ImageId{1});
  EXPECT_EQ(store.intern(std::string("l") + "ud"), lud);
  EXPECT_EQ(store.intern("face#4"), face);
  EXPECT_EQ(store.size(), 2u);
}

TEST(ProfileStore, UnknownImageIsNull) {
  // Interning allocates an id but no profile: find() stays null until the
  // image's first recorded run.
  ProfileStore store;
  const ImageId a = store.intern("a");
  const ImageId b = store.intern("b");
  EXPECT_EQ(store.find(a), nullptr);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_FALSE(store.memory_correlation(a, b).has_value());
  store.record_run(a, 0.1, 0.2, {1, 2, 3});
  EXPECT_NE(store.find(a), nullptr);
  EXPECT_EQ(store.find(b), nullptr);
  EXPECT_FALSE(store.memory_correlation(a, b).has_value());
}

TEST(ProfileStore, FirstRunStoredVerbatim) {
  ProfileStore store;
  const ImageId lud = store.intern("lud");
  store.record_run(lud, 0.4, 0.9, {3, 1, 2});
  const auto* prof = store.find(lud);
  ASSERT_NE(prof, nullptr);
  EXPECT_EQ(prof->observed_runs, 1);
  EXPECT_DOUBLE_EQ(prof->mean_sm, 0.4);
  EXPECT_DOUBLE_EQ(prof->peak_sm, 0.9);
  EXPECT_EQ(prof->memory_signature, (std::vector<double>{3, 1, 2}));
  EXPECT_EQ(prof->memory_signature_sorted, (std::vector<double>{1, 2, 3}));
}

TEST(ProfileStore, EmaBlendsSubsequentRuns) {
  ProfileStore store;
  const ImageId x = store.intern("x");
  store.record_run(x, 0.2, 0.6, {10, 30});
  store.record_run(x, 0.4, 0.5, {20, 0});
  const auto* prof = store.find(x);
  ASSERT_NE(prof, nullptr);
  EXPECT_EQ(prof->observed_runs, 2);
  EXPECT_DOUBLE_EQ(prof->mean_sm, 0.7 * 0.2 + 0.3 * 0.4);
  EXPECT_DOUBLE_EQ(prof->peak_sm, 0.6);  // peaks only grow
  EXPECT_DOUBLE_EQ(prof->memory_signature[0], 0.7 * 10 + 0.3 * 20);
  EXPECT_DOUBLE_EQ(prof->memory_signature[1], 0.7 * 30);
  // The sorted shadow follows the merged signature.
  EXPECT_EQ(prof->memory_signature_sorted,
            (std::vector<double>{prof->memory_signature[0],
                                 prof->memory_signature[1]}));
}

TEST(ProfileStore, CorrelationBetweenSimilarSignaturesIsHigh) {
  ProfileStore store;
  std::vector<double> rampy, anti;
  for (int i = 0; i < 8; ++i) {
    rampy.push_back(i);
    anti.push_back(8 - i);
  }
  const ImageId a = store.intern("a");
  const ImageId b = store.intern("b");
  const ImageId c = store.intern("c");
  store.record_run(a, 0, 0, rampy);
  store.record_run(b, 0, 0, rampy);
  store.record_run(c, 0, 0, anti);
  EXPECT_NEAR(*store.memory_correlation(a, b), 1.0, 1e-9);
  EXPECT_NEAR(*store.memory_correlation(a, c), -1.0, 1e-9);
}

TEST(ProfileStore, CorrelationEqualsSpearmanBitForBit) {
  // memory_correlation correlates ranks stored at record_run; it must give
  // exactly stats::spearman of the merged signatures. 64-point signatures
  // drawn from eight levels tie, EMA merges blend them, and one image's
  // signature is constant (every rank tied).
  ProfileStore store;
  Rng rng(11);
  const auto signature = [&] {
    std::vector<double> sig;
    for (int i = 0; i < 64; ++i) {
      sig.push_back(static_cast<double>(rng.uniform_int(0, 7)) * 128.0);
    }
    return sig;
  };
  std::vector<ImageId> images;
  for (int i = 0; i < 6; ++i) {
    const ImageId id = store.intern("img" + std::to_string(i));
    for (int run = 0; run < 1 + i % 3; ++run) {
      store.record_run(id, 0.1, 0.2, signature());
    }
    images.push_back(id);
  }
  const ImageId flat = store.intern("flat");
  store.record_run(flat, 0.1, 0.2, std::vector<double>(64, 512.0));
  images.push_back(flat);
  for (const ImageId a : images) {
    for (const ImageId b : images) {
      const auto got = store.memory_correlation(a, b);
      ASSERT_TRUE(got.has_value());
      const double want = stats::spearman(store.find(a)->memory_signature,
                                          store.find(b)->memory_signature);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(*got),
                std::bit_cast<std::uint64_t>(want))
          << a.value << " vs " << b.value;
    }
  }
  EXPECT_EQ(store.find(images[2])->observed_runs, 3);
}

TEST(ProfileStore, CorrelationNullWhenLengthsMismatch) {
  ProfileStore store;
  const ImageId a = store.intern("a");
  const ImageId b = store.intern("b");
  store.record_run(a, 0, 0, {1, 2, 3});
  store.record_run(b, 0, 0, {1, 2});
  EXPECT_FALSE(store.memory_correlation(a, b).has_value());
}

TEST(ProfileStore, SeparateImagesIndependent) {
  // An inference service profiles per batch size: face#1 and face#64 are
  // two images with two profiles.
  ProfileStore store;
  const ImageId small = store.intern("face#1");
  const ImageId large = store.intern("face#64");
  ASSERT_NE(small, large);
  store.record_run(small, 0.1, 0.2, {1});
  store.record_run(large, 0.5, 0.8, {9});
  EXPECT_EQ(store.size(), 2u);
  EXPECT_DOUBLE_EQ(store.find(small)->mean_sm, 0.1);
  EXPECT_DOUBLE_EQ(store.find(large)->mean_sm, 0.5);
  EXPECT_EQ(store.find(small)->observed_runs, 1);
  EXPECT_EQ(store.find(large)->memory_signature, (std::vector<double>{9}));
}

}  // namespace
}  // namespace knots::cluster
