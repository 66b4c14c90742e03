// Prints the SIMD backend that the runtime dispatch layer (nn/simd.hpp)
// resolves under the current environment: "scalar" when FALLSENSE_SIMD
// requests scalar mode, otherwise the vector tier the CPU supports
// ("neon" / "avx2-fma"; "scalar" again when it has none).
// scripts/run_bench.sh records this as the manifest "simd" field of
// BENCH_*.json so the numbers name the backend that actually ran, not the
// mode that was requested.
#include <cstdio>

#include "nn/simd.hpp"

int main() {
    std::puts(fallsense::nn::active_simd_backend_name());
    return 0;
}
