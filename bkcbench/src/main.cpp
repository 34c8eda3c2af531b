// bkcbench: the repository benchmark program.
//
//   bkcbench --workload NAME --seed N --seconds S --trace 0|1
//            [--out-dir DIR] [--git-sha SHA]
//
// Workloads: edge_224, batch_64, serve_tiny (see their source files for
// what each stresses and why). With --trace 0 the run reports the
// end-to-end metrics; with --trace 1 it is the separate traced run and
// reports the per-layer metrics, writing its spans to
// DIR/trace-<workload>-<seed>.json. Every run writes its host
// fingerprint, metrics (with sample counts) and notes to
// DIR/result-<workload>-<seed>-trace<0|1>.json, and prints as its last
// stdout line {"correct", "attempted", "failed", "metrics"}.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <thread>

#include "util/check.h"
#include "util/cli.h"
#include "util/json.h"
#include "workloads.h"

namespace {

using namespace bkcbench;

Options parse(int argc, char** argv) {
  Options o;
  o.workload = bkc::flag_string_value(argc, argv, "--workload", "");
  o.seed = std::stoull(bkc::flag_string_value(argc, argv, "--seed", "1"));
  o.seconds = std::stod(bkc::flag_string_value(argc, argv, "--seconds", "10"));
  o.trace = bkc::flag_value(argc, argv, "--trace", 0) != 0;
  o.out_dir = bkc::flag_string_value(argc, argv, "--out-dir", o.out_dir);
  o.git_sha = bkc::flag_string_value(argc, argv, "--git-sha", o.git_sha);
  o.threads =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  bkc::check(o.seconds > 0, "--seconds must be positive");
  return o;
}

void write_result_file(const Options& o, const Result& r) {
  bkc::json::Writer w;
  w.begin_object();
  w.key("fingerprint").begin_object();
  for (const auto& [key, value] : fingerprint(o)) w.key(key).value(value);
  w.end_object();
  w.key("trace").value(o.trace);
  w.key("correct").value(r.correct);
  w.key("attempted").value(r.attempted);
  w.key("failed").value(r.failed);
  w.key("metrics").begin_object();
  for (const Result::Metric& m : r.metrics) {
    w.key(m.name).begin_object();
    w.key("value").value(m.value);
    w.key("unit").value(m.unit);
    w.key("samples").value(static_cast<std::uint64_t>(m.samples));
    w.end_object();
  }
  w.end_object();
  w.key("notes").begin_array();
  for (const std::string& note : r.notes) w.value(note);
  w.end_array();
  w.end_object();
  const std::string path = o.out_dir + "/result-" + o.workload + "-" +
                           std::to_string(o.seed) + "-trace" +
                           (o.trace ? "1" : "0") + ".json";
  std::ofstream(path) << w.str() << "\n";
}

/// The summary that ends stdout: one compact JSON object on one line.
std::string summary_line(const Result& r) {
  std::string line = std::string("{\"correct\": ") +
                     (r.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(r.attempted) +
                     ", \"failed\": " + std::to_string(r.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Result::Metric& m = r.metrics[i];
    line += (i == 0 ? "" : ", ") + bkc::json::quoted(m.name) +
            ": {\"value\": " + bkc::json::number(m.value) +
            ", \"unit\": " + bkc::json::quoted(m.unit) + "}";
  }
  return line + "}}";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse(argc, argv);
    const std::map<std::string, Result (*)(const Options&, Tracer*)> runs = {
        {"edge_224", run_edge_224},
        {"batch_64", run_batch_64},
        {"serve_tiny", run_serve_tiny}};
    const auto run = runs.find(o.workload);
    if (run == runs.end()) {
      std::cerr << "bkcbench: unknown --workload '" << o.workload
                << "' (edge_224, batch_64, serve_tiny)\n";
      return 2;
    }
    std::filesystem::create_directories(o.out_dir);

    std::optional<Tracer> tracer;
    if (o.trace) tracer.emplace();
    const Result result = run->second(o, tracer ? &*tracer : nullptr);
    bkc::check(result.attempted >= 1, "bkcbench: no operation was attempted");

    std::cout << "fingerprint:";
    for (const auto& [key, value] : fingerprint(o)) {
      std::cout << " " << key << "=" << bkc::json::quoted(value);
    }
    std::cout << "\n";
    for (const std::string& note : result.notes) std::cout << note << "\n";
    for (const Result::Metric& m : result.metrics) {
      std::cout << "  " << m.name << " = " << bkc::json::number(m.value)
                << " " << m.unit;
      if (m.samples > 0) std::cout << "  (n=" << m.samples << ")";
      std::cout << "\n";
    }
    write_result_file(o, result);
    if (tracer) {
      tracer->write(o.out_dir + "/trace-" + o.workload + "-" +
                    std::to_string(o.seed) + ".json");
    }
    std::cout << summary_line(result) << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "bkcbench: " << e.what() << "\n";
    return 1;
  }
}
