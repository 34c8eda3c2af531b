#include "common.h"

#include <sys/resource.h>

#include <cstring>
#include <fstream>

#include "bnn/bconv_kernels.h"
#include "util/simd.h"
#include "util/stats.h"

namespace bkcbench {

void Result::fail(const std::string& what) {
  ++failed;
  correct = false;
  // Keep the log short when something fails on every operation.
  if (failed <= 5) note("FAILED: " + what);
}

double pct(std::vector<double> samples, double p) {
  return samples.empty() ? 0.0 : bkc::percentile(samples, p);
}

bool same_scores(const bkc::Tensor& a, const bkc::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size_bytes()) == 0;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

}  // namespace

std::vector<std::pair<std::string, std::string>> fingerprint(
    const Options& options) {
  return {{"cpu", cpu_model()},
          {"nproc", std::to_string(options.threads)},
          {"compiler", BKCBENCH_COMPILER},
          {"build_type", BKCBENCH_BUILD_TYPE},
          {"conv_kernel", bkc::bnn::active_conv_kernel().name},
          {"scalar_forced", bkc::simd::scalar_forced() ? "true" : "false"},
          {"git_sha", options.git_sha},
          {"workload", options.workload},
          {"seed", std::to_string(options.seed)}};
}

}  // namespace bkcbench
