#pragma once
// Umbrella header for the bkc library: a from-scratch reproduction of
// "Exploiting Kernel Compression on BNNs" (DATE 2023).
//
//   bkc::bnn       - bit-packed BNN inference engine + ReActNet model
//   bkc::compress  - frequency analysis, simplified/full Huffman codecs,
//                    Hamming-1 clustering, kernel/model compression
//   bkc::hwsim     - ARM-A53-class timing model with the decoding unit
//   bkc::Engine    - end-to-end facade (core/engine.h)
//   bkc::serve     - model registry + dynamic-batching scheduler; layered
//                    ABOVE this umbrella (include serve/registry.h and
//                    serve/scheduler.h directly)

#include "bnn/bconv.h"
#include "bnn/bitpack.h"
#include "bnn/bitseq.h"
#include "bnn/kernel_sequences.h"
#include "bnn/layers.h"
#include "bnn/model.h"
#include "bnn/reactnet.h"
#include "bnn/weights.h"
#include "compress/clustering.h"
#include "compress/frequency.h"
#include "compress/grouped_huffman.h"
#include "compress/huffman.h"
#include "compress/instrumentation.h"
#include "compress/kernel_codec.h"
#include "compress/model_view.h"
#include "compress/pipeline.h"
#include "compress/serialize.h"
#include "core/engine.h"
#include "hwsim/cache.h"
#include "hwsim/conv_trace.h"
#include "hwsim/core.h"
#include "hwsim/decoder_unit.h"
#include "hwsim/params.h"
#include "hwsim/perf_model.h"
#include "tensor/tensor.h"
#include "util/binary_io.h"
#include "util/bitstream.h"
#include "util/check.h"
#include "util/cli.h"
#include "util/mmap_file.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
