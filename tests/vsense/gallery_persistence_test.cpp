#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/serde.hpp"
#include "mapreduce/dfs.hpp"
#include "vsense/gallery.hpp"

namespace evm {
namespace {

class GalleryPersistenceFixture : public ::testing::Test {
 protected:
  GalleryPersistenceFixture()
      : oracle_(GenerateAppearances(4, MakeStream(1, "a")), RenderParams{},
                FeatureParams{}),
        gallery_(oracle_) {}

  VScenario MakeVScenario(std::uint64_t id, std::size_t observations) {
    VScenario scenario;
    scenario.id = ScenarioId{id};
    for (std::size_t o = 0; o < observations; ++o) {
      scenario.observations.push_back(
          VObservation{Vid{o % 4}, DeriveSeed(7, "r", id * 10 + o)});
    }
    return scenario;
  }

  VisualOracle oracle_;
  FeatureGallery gallery_;
  mapreduce::Dfs dfs_;
};

TEST_F(GalleryPersistenceFixture, ExportImportRoundTripsFeatures) {
  const VScenario a = MakeVScenario(1, 3);
  const VScenario b = MakeVScenario(2, 2);
  const auto features_a = gallery_.Features(a);
  const auto features_b = gallery_.Features(b);
  EXPECT_EQ(gallery_.ExportTo(dfs_, "features"), 2u);

  FeatureGallery fresh(oracle_);
  EXPECT_EQ(fresh.ImportFrom(dfs_, "features"), 2u);
  // Served from the imported cache: no extraction happens.
  const auto& loaded_a = fresh.Features(a);
  const auto& loaded_b = fresh.Features(b);
  EXPECT_EQ(fresh.ExtractionCount(), 0u);
  EXPECT_EQ(loaded_a, features_a);
  EXPECT_EQ(loaded_b, features_b);
}

TEST_F(GalleryPersistenceFixture, ImportMissingDatasetIsNoop) {
  EXPECT_EQ(gallery_.ImportFrom(dfs_, "absent"), 0u);
}

TEST_F(GalleryPersistenceFixture, ImportKeepsExistingEntries) {
  const VScenario a = MakeVScenario(1, 2);
  gallery_.Features(a);
  gallery_.ExportTo(dfs_, "features");

  FeatureGallery other(oracle_);
  const VScenario a_variant = MakeVScenario(1, 4);  // same id, more obs
  const auto& existing = other.Features(a_variant);
  EXPECT_EQ(existing.size(), 4u);
  EXPECT_EQ(other.ImportFrom(dfs_, "features"), 0u);  // id collision skipped
  EXPECT_EQ(other.Features(a_variant).size(), 4u);
}

TEST_F(GalleryPersistenceFixture, ExportIsIdempotentReplace) {
  gallery_.Features(MakeVScenario(1, 1));
  gallery_.ExportTo(dfs_, "features");
  gallery_.Features(MakeVScenario(2, 1));
  EXPECT_EQ(gallery_.ExportTo(dfs_, "features"), 2u);
  FeatureGallery fresh(oracle_);
  EXPECT_EQ(fresh.ImportFrom(dfs_, "features"), 2u);
}

TEST_F(GalleryPersistenceFixture, ImportRejectsHostileCounts) {
  // A block whose observation count, or whose first feature's dimension,
  // claims far more elements than the block holds: evm::Error, never an
  // allocation sized from the prefix.
  for (const bool dimension : {false, true}) {
    BinaryWriter w;
    w.WriteU64(1);  // scenario id
    if (dimension) w.WriteU64(1);  // one observation
    w.WriteU64(std::uint64_t{1} << 61);
    dfs_.Write("hostile", {w.Take()});
    FeatureGallery fresh(oracle_);
    EXPECT_THROW((void)fresh.ImportFrom(dfs_, "hostile"), Error) << dimension;
    EXPECT_EQ(fresh.CachedScenarioCount(), 0u);
  }
}

}  // namespace
}  // namespace evm
