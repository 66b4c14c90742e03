#include "nn/simd.hpp"

#include <atomic>

#include "util/env.hpp"

namespace fallsense::nn {

namespace {

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
simd_backend probe_backend() {
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
        return simd_backend::avx2_fma;
    }
    return simd_backend::scalar;
}
#elif defined(__aarch64__) && defined(__ARM_NEON)
simd_backend probe_backend() { return simd_backend::neon; }  // NEON is baseline.
#else
simd_backend probe_backend() { return simd_backend::scalar; }
#endif

simd_backend probed_backend() {
    static const simd_backend probed = probe_backend();
    return probed;
}

/// Requested mode, resolved lazily: -1 = uninitialized, else simd_mode.
/// An unset or unrecognized FALLSENSE_SIMD value means scalar — the
/// deterministic default; tools reject bad --simd values loudly instead.
std::atomic<int> g_requested{-1};

simd_mode requested_mode() {
    int cached = g_requested.load(std::memory_order_relaxed);
    if (cached < 0) {
        simd_mode mode = simd_mode::scalar;
        const std::string text = util::env_string("FALLSENSE_SIMD");
        if (!text.empty()) {
            if (const auto parsed = parse_simd_mode(text)) mode = *parsed;
        }
        cached = static_cast<int>(mode);
        g_requested.store(cached, std::memory_order_relaxed);
    }
    return static_cast<simd_mode>(cached);
}

}  // namespace

const char* simd_mode_name(simd_mode mode) {
    return mode == simd_mode::native ? "native" : "scalar";
}

const char* simd_backend_label(simd_backend backend) {
    switch (backend) {
        case simd_backend::neon: return "neon";
        case simd_backend::avx2_fma: return "avx2-fma";
        case simd_backend::scalar: break;
    }
    return "scalar";
}

std::optional<simd_mode> parse_simd_mode(const std::string& text) {
    if (text == "scalar") return simd_mode::scalar;
    if (text == "native") return simd_mode::native;
    return std::nullopt;
}

bool simd_native_available() { return probed_backend() != simd_backend::scalar; }

const char* simd_backend_name() { return simd_backend_label(probed_backend()); }

simd_mode active_simd_mode() {
    return active_simd_backend() == simd_backend::scalar ? simd_mode::scalar : simd_mode::native;
}

simd_backend active_simd_backend() {
    return requested_mode() == simd_mode::native ? probed_backend() : simd_backend::scalar;
}

const char* active_simd_backend_name() {
    return simd_backend_label(active_simd_backend());
}

void set_simd_mode(simd_mode mode) {
    g_requested.store(static_cast<int>(mode), std::memory_order_relaxed);
}

}  // namespace fallsense::nn
