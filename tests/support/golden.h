#pragma once
// Golden-file utilities. Goldens live under tests/golden/ (the path is
// baked in via BKC_TEST_GOLDEN_DIR). A suite renders its value to text
// and calls expect_matches_golden(); set BKC_UPDATE_GOLDEN=1 in the
// environment to (re)write the files instead of comparing.

#include <string>
#include <vector>

#include "bnn/reactnet.h"
#include "tensor/tensor.h"

namespace bkc::test {

/// Absolute path of a golden file, e.g. golden_path("reactnet_ops.txt").
std::string golden_path(const std::string& name);

/// Reads the named golden file. Throws bkc::CheckError when missing
/// (run with BKC_UPDATE_GOLDEN=1 to create it).
std::string read_golden(const std::string& name);

/// True when BKC_UPDATE_GOLDEN is set to a non-empty, non-"0" value.
bool update_goldens();

/// Compares `actual` against the named golden with EXPECT_EQ semantics;
/// in update mode rewrites the golden and passes.
void expect_matches_golden(const std::string& name,
                           const std::string& actual);

/// Class scores as text: " %08x" per float (its IEEE-754 bit pattern),
/// so a one-ulp drift anywhere changes the text.
std::string score_bits(const Tensor& scores);

/// The two seeded images the golden score files were generated from.
std::vector<Tensor> golden_images(const bnn::ReActNetConfig& config);

/// The score bits stored under `key` (e.g. "tiny clustering image0") in
/// the named golden score file. Throws bkc::CheckError when absent.
std::string golden_scores(const std::string& name, const std::string& key);

}  // namespace bkc::test
