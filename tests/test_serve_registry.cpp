// Unit tests for serve/registry.h — the shared BKCM model registry.
//
// What is locked down:
//   * open-once semantics: the same name resolves to the same refcounted
//     entry, a conflicting path is refused, and a failed open leaves the
//     registry unchanged,
//   * the serving load path: the engine a registry entry holds is
//     bit-identical to Engine::load_compressed(path) — kernels, report
//     and classification outputs at thread counts 1/2/4/7,
//   * eviction: only models with no outstanding handles are dropped, and
//     a model can be reopened after eviction.

#include "serve/registry.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bnn/weights.h"
#include "core/engine.h"
#include "support/support.h"
#include "util/check.h"

namespace bkc::serve {
namespace {

class ServeRegistryTest : public ::testing::Test {
 protected:
  static std::string temp_path(const std::string& name) {
    return ::testing::TempDir() + "/" + name;
  }

  // Compress a tiny model and write its container; returns the path.
  static std::string write_container(const std::string& name,
                                     std::uint64_t seed) {
    Engine engine(test::tiny_config(seed));
    engine.compress(2);
    const std::string path = temp_path(name);
    engine.save_compressed(path);
    return path;
  }
};

TEST_F(ServeRegistryTest, OpenOnceReturnsTheSameEntry) {
  const std::string path = write_container("registry_once.bkcm", 27);
  ModelRegistry registry(2);
  const ModelHandle first = registry.open("tiny", path);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->name(), "tiny");
  EXPECT_EQ(first->path(), path);

  // Same name, same path: the identical shared entry, not a reload.
  const ModelHandle second = registry.open("tiny", path);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_TRUE(registry.contains("tiny"));
  EXPECT_EQ(registry.get("tiny").get(), first.get());
  EXPECT_EQ(registry.find("tiny").get(), first.get());
  std::remove(path.c_str());
}

TEST_F(ServeRegistryTest, ConflictingPathForResidentNameIsRefused) {
  const std::string path_a = write_container("registry_conflict_a.bkcm", 27);
  const std::string path_b = write_container("registry_conflict_b.bkcm", 28);
  ModelRegistry registry(2);
  const ModelHandle handle = registry.open("tiny", path_a);
  EXPECT_THROW(registry.open("tiny", path_b), CheckError);
  // The original entry is untouched.
  EXPECT_EQ(registry.get("tiny").get(), handle.get());
  EXPECT_EQ(registry.size(), 1u);
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST_F(ServeRegistryTest, CorruptContainerIsRejectedAndRegistryUnchanged) {
  const std::string path = temp_path("registry_corrupt.bkcm");
  {
    std::ofstream file(path, std::ios::binary);
    file << "this is not a BKCM container";
  }
  ModelRegistry registry(2);
  EXPECT_THROW(registry.open("bad", path), CheckError);
  EXPECT_EQ(registry.size(), 0u);
  EXPECT_FALSE(registry.contains("bad"));
  EXPECT_EQ(registry.find("bad"), nullptr);
  EXPECT_THROW(registry.get("bad"), CheckError);
  std::remove(path.c_str());
}

TEST_F(ServeRegistryTest, MissingFileIsRejected) {
  ModelRegistry registry(2);
  EXPECT_THROW(registry.open("ghost", temp_path("registry_ghost.bkcm")),
               CheckError);
  EXPECT_EQ(registry.size(), 0u);
}

TEST_F(ServeRegistryTest, EvictionDropsOnlyUnreferencedModels) {
  const std::string path_a = write_container("registry_evict_a.bkcm", 41);
  const std::string path_b = write_container("registry_evict_b.bkcm", 42);
  ModelRegistry registry(2);
  ModelHandle held = registry.open("held", path_a);
  ModelHandle dropped = registry.open("dropped", path_b);
  EXPECT_EQ(registry.size(), 2u);

  // Both entries have outstanding handles: nothing may be evicted.
  EXPECT_EQ(registry.evict_unused(), 0u);
  EXPECT_EQ(registry.size(), 2u);

  dropped.reset();
  EXPECT_EQ(registry.evict_unused(), 1u);
  EXPECT_TRUE(registry.contains("held"));
  EXPECT_FALSE(registry.contains("dropped"));

  // The held entry kept its identity across the eviction pass, and the
  // evicted one can be reopened.
  EXPECT_EQ(registry.get("held").get(), held.get());
  const ModelHandle reopened = registry.open("dropped", path_b);
  ASSERT_NE(reopened, nullptr);
  EXPECT_EQ(registry.size(), 2u);
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST_F(ServeRegistryTest, NamesListsResidentModels) {
  const std::string path = write_container("registry_names.bkcm", 43);
  ModelRegistry registry(2);
  registry.open("alpha", path);
  registry.open("beta", path);  // same container under a second name is fine
  const std::vector<std::string> names = registry.names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "alpha");
  EXPECT_EQ(names[1], "beta");
  std::remove(path.c_str());
}

// The load behind the registry must be bit-identical to the plain path
// load: installed kernels, report and classification.
TEST_F(ServeRegistryTest, RegistryLoadIsBitIdenticalToPathLoad) {
  const std::string path = write_container("registry_bitident.bkcm", 31);
  const Engine from_path = Engine::load_compressed(path, 2);

  ModelRegistry registry(2);
  const ModelHandle model = registry.open("tiny", path);
  const Engine& served = model->engine();

  ASSERT_EQ(served.model().num_blocks(), from_path.model().num_blocks());
  for (std::size_t b = 0; b < served.model().num_blocks(); ++b) {
    EXPECT_TRUE(served.model().block(b).conv3x3().kernel() ==
                from_path.model().block(b).conv3x3().kernel())
        << "block " << b;
  }
  EXPECT_TRUE(served.verify_streams(2));

  // Report: totals and ratios bit-exact (doubles compared by pattern).
  EXPECT_EQ(served.report().model_bits, from_path.report().model_bits);
  EXPECT_EQ(served.report().conv3x3_bits, from_path.report().conv3x3_bits);
  EXPECT_EQ(served.report().conv3x3_clustering_bits,
            from_path.report().conv3x3_clustering_bits);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(served.report().model_ratio),
            std::bit_cast<std::uint64_t>(from_path.report().model_ratio));
  EXPECT_EQ(served.report().blocks.size(), from_path.report().blocks.size());

  // Classification bit-identical at every supported thread count.
  bnn::WeightGenerator gen(99);
  std::vector<Tensor> images;
  for (int i = 0; i < 3; ++i) {
    images.push_back(gen.sample_activation(from_path.model().input_shape()));
  }
  const std::vector<Tensor> expected = from_path.classify_batch(images, 1);
  for (int threads : {1, 2, 4, 7}) {
    const std::vector<Tensor> scores = served.classify_batch(images, threads);
    ASSERT_EQ(scores.size(), expected.size());
    for (std::size_t i = 0; i < scores.size(); ++i) {
      ASSERT_EQ(scores[i].data().size(), expected[i].data().size());
      for (std::size_t v = 0; v < scores[i].data().size(); ++v) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(scores[i].data()[v]),
                  std::bit_cast<std::uint32_t>(expected[i].data()[v]))
            << "threads " << threads << " image " << i;
      }
    }
  }
  std::remove(path.c_str());
}

TEST_F(ServeRegistryTest, LoadThreadsMustBePositive) {
  EXPECT_THROW(ModelRegistry(0), CheckError);
  EXPECT_THROW(ModelRegistry(-3), CheckError);
}

}  // namespace
}  // namespace bkc::serve
