#pragma once
// Compile-time dispatch macros - the Marlin `static_switch.h` idiom.
//
// Each macro turns one runtime value into a `constexpr` constant inside
// an immediately-invoked lambda, so the hot loop it wraps is
// monomorphized: the compiler sees a compile-time word count / flag
// and can fully unroll, hoist and vectorize instead of branching per
// word. Usage (bnn/bconv_kernels_avx2.cpp):
//
//   BKC_WORDS_SWITCH(input.words_per_pixel(), kWpp, [&] {
//     BKC_BOOL_SWITCH(is_3x3, kIs3x3, [&] {
//       conv_avx2_impl<kWpp, kIs3x3>(input, ...);   // both constexpr
//     });
//   });
//
// Values outside the dedicated set fall through to a 0 ("stay runtime
// generic") instantiation rather than failing: every switch must keep
// the full domain of its runtime argument working, just without the
// monomorphization win.

#define BKC_BOOL_SWITCH(cond, CONST_NAME, ...)  \
  [&] {                                         \
    if (cond) {                                 \
      constexpr bool CONST_NAME = true;         \
      return __VA_ARGS__();                     \
    } else {                                    \
      constexpr bool CONST_NAME = false;        \
      return __VA_ARGS__();                     \
    }                                           \
  }()

// Packed words per channel group (bnn::words_per_group). 1..4 covers
// every channel count up to 256 - all of ReActNet-A; wider models take
// the generic instantiation.
#define BKC_WORDS_SWITCH(words, CONST_NAME, ...) \
  [&] {                                          \
    switch (words) {                             \
      case 1: {                                  \
        constexpr int CONST_NAME = 1;            \
        return __VA_ARGS__();                    \
      }                                          \
      case 2: {                                  \
        constexpr int CONST_NAME = 2;            \
        return __VA_ARGS__();                    \
      }                                          \
      case 3: {                                  \
        constexpr int CONST_NAME = 3;            \
        return __VA_ARGS__();                    \
      }                                          \
      case 4: {                                  \
        constexpr int CONST_NAME = 4;            \
        return __VA_ARGS__();                    \
      }                                          \
      default: {                                 \
        constexpr int CONST_NAME = 0;            \
        return __VA_ARGS__();                    \
      }                                          \
    }                                            \
  }()
