// In-memory span recorder and a forwarding scorer for the traced run.
//
// Spans are recorded around the benchmark's own calls into each layer's
// public functions (nothing inside src/ is instrumented): one root span
// per round, with children for fleet_router::feed or session_gateway::
// on_bytes, fleet_router::tick, the batch_scorer::score call and the
// router's ingest / score / apply phases.  Everything stays in memory and
// is written out once, as a Chrome trace-event file, when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "serve/batch_scorer.hpp"

namespace perfbench {

using bench_clock = std::chrono::steady_clock;

inline double ms_between(bench_clock::time_point a, bench_clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
}

struct span {
    const char* name = "";
    std::int64_t start_ns = 0;  ///< relative to the recorder's origin
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;   ///< index into spans(), -1 for a root
    std::uint32_t round = 0;    ///< every span of one round shares it
};

class span_recorder {
public:
    explicit span_recorder(bench_clock::time_point origin) : origin_(origin) {
        spans_.reserve(1 << 16);
    }

    /// Records only while enabled; returns the span's index, or -1.
    std::int32_t add(const char* name, bench_clock::time_point start,
                     bench_clock::time_point end, std::int32_t parent, std::uint32_t round) {
        if (!enabled_) return -1;
        spans_.push_back({name, ns(start), ns(end), parent, round});
        return static_cast<std::int32_t>(spans_.size() - 1);
    }
    std::int32_t add_ns(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                        std::int32_t parent, std::uint32_t round) {
        if (!enabled_) return -1;
        spans_.push_back({name, start_ns, end_ns, parent, round});
        return static_cast<std::int32_t>(spans_.size() - 1);
    }

    /// Moves a recorded span's end (a root span closes after its children).
    void set_end(std::int32_t id, bench_clock::time_point end) {
        if (id >= 0) spans_[static_cast<std::size_t>(id)].end_ns = ns(end);
    }

    void set_enabled(bool on) { enabled_ = on; }
    std::int64_t ns(bench_clock::time_point t) const {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_).count();
    }
    const std::vector<span>& spans() const { return spans_; }

    /// Chrome trace-event JSON ("X" complete events, microseconds); the
    /// parent link travels in args so self times can be recomputed.
    bool write(const std::string& path) const {
        std::ofstream out(path);
        if (!out) return false;
        out << "{\"traceEvents\":[";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const span& s = spans_[i];
            out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
                << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << s.start_ns / 1000.0
                << ",\"dur\":" << (s.end_ns - s.start_ns) / 1000.0 << ",\"args\":{\"id\":" << i
                << ",\"parent\":" << s.parent << ",\"round\":" << s.round << "}}";
        }
        out << "\n]}\n";
        return static_cast<bool>(out);
    }

private:
    bench_clock::time_point origin_;
    std::vector<span> spans_;
    bool enabled_ = false;
};

/// Forwards to the scorer make_scorer built and times every score call
/// from outside, so the nn / quant layer's share of a tick is measured
/// without touching src/.  The router calls it at most once per tick.
class timed_scorer final : public fallsense::serve::batch_scorer {
public:
    struct call {
        std::size_t rows = 0;
        bench_clock::time_point start, end;
    };

    explicit timed_scorer(std::unique_ptr<fallsense::serve::batch_scorer> inner)
        : inner_(std::move(inner)) {}

    void score(std::span<const float> windows, std::size_t count, std::size_t window_elems,
               std::span<float> out) override {
        const auto start = bench_clock::now();
        inner_->score(windows, count, window_elems, out);
        last_ = {count, start, bench_clock::now()};
        ++calls_since_reset_;
    }
    std::string describe() const override { return inner_->describe(); }
    std::unique_ptr<fallsense::serve::batch_scorer> clone() const override {
        return std::make_unique<timed_scorer>(inner_->clone());
    }

    /// The most recent call, and how many calls ran since take_calls().
    const call& last() const { return last_; }
    std::size_t take_calls() {
        const std::size_t n = calls_since_reset_;
        calls_since_reset_ = 0;
        return n;
    }

private:
    std::unique_ptr<fallsense::serve::batch_scorer> inner_;
    call last_{};
    std::size_t calls_since_reset_ = 0;
};

}  // namespace perfbench
