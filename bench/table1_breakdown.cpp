// Regenerates Table I of the paper: ReActNet storage and execution time
// breakdown by operation class.
//
// Storage comes from the model's parameter accounting; execution time
// from the A53-class timing model (binary convs simulated on sampled
// rows, non-binary layers through the calibrated analytic cost model).

#include <iostream>

#include "core/bkc.h"

int main(int argc, char** argv) {
  using namespace bkc;
  exit_on_unknown_flags(argc, argv, {"--tiny"});

  // --tiny swaps in the reduced test model so the CTest smoke run of
  // this binary finishes in milliseconds.
  const bnn::ReActNet model(has_flag(argc, argv, "--tiny")
                                ? bnn::tiny_reactnet_config(/*seed=*/42)
                                : bnn::paper_reactnet_config(/*seed=*/42));
  const auto storage = model.storage();
  const auto timing = hwsim::time_model_baseline(model.op_records());

  // The paper's Table I values for side-by-side comparison.
  struct PaperRow {
    bnn::OpClass cls;
    double storage_pct;
    int precision;
    double time_pct;
  };
  const PaperRow paper_rows[] = {
      {bnn::OpClass::kInputLayer, 0.02, 8, 4.0},
      {bnn::OpClass::kOutputLayer, 22.17, 8, 18.7},
      {bnn::OpClass::kConv1x1, 8.5, 1, 6.9},
      {bnn::OpClass::kConv3x3, 68.0, 1, 66.8},
      {bnn::OpClass::kOther, 1.31, 32, 3.6},
  };

  Table table({"Operation", "Storage (ours)", "Storage (paper)",
               "Precision", "Exec time (ours)", "Exec time (paper)"});
  for (const auto& row : paper_rows) {
    table.row()
        .add(bnn::op_class_name(row.cls))
        .add(percent_str(storage.bits_fraction(row.cls)))
        .add(percent_str(row.storage_pct / 100.0))
        .add(row.precision)
        .add(percent_str(timing.fraction(row.cls)))
        .add(percent_str(row.time_pct / 100.0));
  }
  table.print(
      "Table I - ReActNet storage and execution time breakdown");

  std::cout << "\nTotal parameter storage: " << bits_str(storage.total_bits)
            << " (paper: ~29 Mbit of weights for ReActNet)\n";
  std::cout << "Simulated single-image latency: "
            << static_cast<double>(timing.total_cycles) / 1e6
            << " Mcycles (" << static_cast<double>(timing.total_cycles) / 1e6
            << " ms at 1 GHz)\n";
  std::cout << "\nNotes: 'Others' carries our folded BN + RPReLU parameter\n"
               "counts (the paper's 1.31% implies a tighter folding);\n"
               "the output-layer execution share tracks the paper's\n"
               "observation that the classifier stays a scalar fp32 GEMV\n"
               "in daBNN-style deployments.\n";
  return 0;
}
