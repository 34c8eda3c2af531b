// Golden timing-model cycles: the per-op baseline of Table I's
// execution-time column, the per-layer compare_model cycles and the
// sampled totals, frozen as text in tests/golden/hwsim_cycles.txt. A
// change meant to keep the timing model's output must leave this file
// byte-identical. Regenerate with BKC_UPDATE_GOLDEN=1 — only when a
// change is meant to alter simulated cycles.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "bnn/reactnet.h"
#include "compress/serialize.h"
#include "hwsim/perf_model.h"
#include "hwsim/sampled.h"
#include "support/support.h"

namespace bkc::hwsim {
namespace {

/// One line per op of `ops`: its name and time_model_baseline cycles.
void baseline_lines(std::ostringstream& out, const std::string& label,
                    const std::vector<bnn::OpRecord>& ops) {
  const ModelTiming timing = time_model_baseline(ops);
  for (const OpTiming& op : timing.ops) {
    out << label << " baseline " << op.name << " " << op.cycles << "\n";
  }
  out << label << " baseline total " << timing.total_cycles << "\n";
}

void report_totals(std::ostringstream& out, const std::string& label,
                   const SpeedupReport& report) {
  out << label << " other " << report.other_cycles << "\n"
      << label << " total baseline=" << report.total_baseline
      << " sw=" << report.total_sw << " hw=" << report.total_hw << "\n";
}

TEST(HwsimGolden, CyclesMatchGolden) {
  std::ostringstream out;

  // Layout only: no weight is sampled.
  baseline_lines(out, "tiny", bnn::op_records_for(test::tiny_config(42)));
  bnn::ReActNetConfig paper64 = bnn::paper_reactnet_config(42);
  paper64.input_size = 64;
  baseline_lines(out, "paper64", bnn::op_records_for(paper64));

  // The golden container, fed to hwsim through its parsed view.
  const compress::MappedBkcm mapped =
      compress::MappedBkcm::open(test::golden_path("reactnet_tiny.bkcm"));
  const compress::CompressedModelView view =
      mapped.view(bnn::op_records_for(mapped.model_config()));
  const SpeedupReport exact = compare_model(view);
  for (const LayerComparison& layer : exact.conv3x3) {
    out << "exact " << layer.name << " baseline=" << layer.baseline_cycles
        << " sw=" << layer.sw_cycles << " hw=" << layer.hw_cycles << "\n";
  }
  report_totals(out, "exact", exact);
  report_totals(out, "sampled", compare_model_sampled(view).report);

  test::expect_matches_golden("hwsim_cycles.txt", out.str());
}

}  // namespace
}  // namespace bkc::hwsim
