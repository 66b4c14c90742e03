// Runtime SIMD dispatch for the nn/quant GEMM microkernels.
//
// The hot kernels (the GEMM row updates shared by gemm_nn, the fused
// bias+activation GEMM and the gradient reduction, and the int8
// accumulator axpy) exist in two flavors: the scalar reference loops —
// the bit-exact determinism baseline every golden manifest is pinned to —
// and one vectorized tier per architecture, compiled behind target
// attributes and selected at runtime from a one-time CPU-feature probe.
//
// Vector tier per architecture:
//   x86-64:  avx2-fma (AVX2+FMA)
//   aarch64: neon
//
// Mode resolution, in priority order:
//   1. set_simd_mode() — tools expose it as `--simd scalar|native`.
//   2. The FALLSENSE_SIMD env var ("scalar" or "native").
//   3. Default: scalar.  Vector kernels are opt-in because float FMA
//      rounds differently from separate mul+add; scalar mode stays
//      byte-identical to the pre-dispatch kernels.  (Int8 kernels are
//      bit-identical in either mode — integer sums are exact.)
//
// Requesting `native` on a host whose CPU (or compiler) lacks the vector
// tier silently degrades to the scalar kernels: `active_simd_mode()` /
// `active_simd_backend()` report what will actually execute.
#pragma once

#include <optional>
#include <string>

namespace fallsense::nn {

enum class simd_mode {
    scalar,  ///< reference loops, bit-exact across builds of the same flags
    native,  ///< vectorized kernels for the probed host ISA
};

/// Kernel tiers: scalar plus the one vector tier of each architecture.
enum class simd_backend {
    scalar,
    neon,      ///< aarch64 baseline
    avx2_fma,  ///< x86-64 AVX2+FMA
};

const char* simd_mode_name(simd_mode mode);

/// Canonical backend label: "scalar" / "neon" / "avx2-fma".
const char* simd_backend_label(simd_backend backend);

/// Parse "scalar" / "native"; anything else returns nullopt.
std::optional<simd_mode> parse_simd_mode(const std::string& text);

/// True when a vector backend is compiled in AND the running CPU supports
/// it (probed once, cached).
bool simd_native_available();

/// Name of the vector backend `native` mode would run: "avx2-fma",
/// "neon", or "scalar" when no vector backend is available.  This is the
/// hardware probe, independent of the requested mode.
const char* simd_backend_name();

/// The mode the kernels will actually execute: the requested mode,
/// degraded to scalar when no vector backend is available.
simd_mode active_simd_mode();

/// The backend the kernels will actually execute right now: scalar when
/// the active mode is scalar, otherwise the probed vector backend.
simd_backend active_simd_backend();

/// Label of active_simd_backend() — what bench/obs manifests record as
/// the *resolved* `simd` field.
const char* active_simd_backend_name();

/// Override the requested mode for this process (tools' --simd flag).
void set_simd_mode(simd_mode mode);

}  // namespace fallsense::nn
