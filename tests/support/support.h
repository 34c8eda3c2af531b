#pragma once
// Umbrella header for the bkc test-support library. Test suites include
// this instead of re-declaring their own fixtures; see the individual
// headers for what lives where:
//
//   support/configs.h - tiny/mid ReActNet config + EngineOptions
//                       factories and the one-image forward helper
//                       shared by the model-level suites
//   support/kernels.h - seeded kernel/tensor/stream factories shared by
//                       the codec and hwsim suites
//   support/streams.h - bit-stream round-trip helpers
//   support/golden.h  - golden-file comparison utilities

#include "support/configs.h"
#include "support/golden.h"
#include "support/kernels.h"
#include "support/streams.h"
