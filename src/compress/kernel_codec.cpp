#include "compress/kernel_codec.h"

#include "util/check.h"

namespace bkc::compress {

double CompressedKernel::ratio() const {
  check(stream_bits > 0, "CompressedKernel: empty stream");
  return static_cast<double>(uncompressed_bits()) /
         static_cast<double>(stream_bits);
}

}  // namespace bkc::compress
