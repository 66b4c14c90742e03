// Fleet serving benchmark: a seeded, open-loop fleet of wearers streaming
// IMU samples at 100 Hz through the public serving stack
// (net::session_gateway -> serve::fleet_router -> core detector state ->
// nn / quant scorer), timed from each sample's scheduled due time to the
// return of the call that decided its window.
//
//   fleet_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               [--spans <path>] [--results <path>]
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}; end-to-end metrics with --trace 0, per-layer metrics with
// --trace 1.  Exit code 1 means the correctness gate failed, 2 a usage
// error.  perfbench/README.md explains the workloads and metrics.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <malloc.h>
#include <sys/sysinfo.h>
#include <unistd.h>

#include "net/gateway.hpp"
#include "net/wire.hpp"
#include "nn/simd.hpp"
#include "obs/metrics.hpp"
#include "serve/serve.hpp"
#include "trace.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace fallsense;
using perfbench::bench_clock;
using perfbench::ms_between;

constexpr double k_period_ms = 10.0;  ///< one sample period at 100 Hz
constexpr double k_limit_ms = 10.0;   ///< decision latency limit: one period
constexpr std::size_t k_connections = 4;
/// Pool threads: one core is left to the OS (a stalled pool thread holds
/// up every parallel phase of a tick), and at most four are used.
constexpr std::size_t k_max_threads = 4;
/// A probe whose generator falls this far behind is overloaded; stop it.
constexpr double k_probe_abort_ms = 250.0;
/// Fixed-load rounds run in blocks of this many, with the next block's
/// input built in a pause between them; traced runs alternate traced and
/// untraced blocks.  A multiple of the 20-sample hop, so every block holds
/// the same mix of scoring rounds.
constexpr std::size_t k_block = 100;

// ---------------------------------------------------------------------------
// Workloads

struct workload {
    const char* name;
    std::size_t wearers;  ///< fleet size at the fixed load
    bool staggered;       ///< start phases spread over the hop, or all aligned
    serve::scorer_backend backend;
    bool wire;            ///< wire-v1 frames through a session_gateway
    double fixed_share;   ///< share of --seconds spent at the fixed load
    std::size_t setups;   ///< timed set-ups (median -> setup_s)
    std::size_t probe_wearers;  ///< fleet size of the capacity probe
};

// Why each workload exists is in perfbench/README.md.
const std::vector<workload>& workloads() {
    static const std::vector<workload> all = {
        {"steady_float", 6144, true, serve::scorer_backend::float32, false, 0.5, 21, 9216},
        {"wire_int8", 4096, true, serve::scorer_backend::int8, true, 0.5, 21, 5120},
        {"shift_start", 768, false, serve::scorer_backend::float32, false, 0.6, 21, 1536},
    };
    return all;
}

// ---------------------------------------------------------------------------
// Traffic: stream i is a pure function of (seed, i); wearer i starts
// streaming at round join(i) and sends one sample per round after that.

struct traffic {
    std::vector<serve::session_stream> streams;
    bool staggered = true;
    bool wire = false;
    std::size_t window = 0;
    std::size_t hop = 0;

    std::size_t join(std::size_t i) const { return staggered ? i % hop : 0; }
    std::size_t conn(std::size_t i) const { return i % k_connections; }
    const data::raw_sample& sample(std::size_t i, std::size_t k) const {
        const auto& s = streams[i].samples;
        return s[(k - join(i)) % s.size()];
    }
    /// First round that scores a window (the set-up ends with it).
    std::size_t first_scoring_round() const { return window - 1; }
    /// Windows that come due at round k in a fleet of `wearers`: a
    /// wearer scores once it holds a full window, then every hop.
    std::size_t windows_due(std::size_t wearers, std::size_t k) const {
        const std::size_t phases = staggered ? std::min(hop, wearers) : 1;
        std::size_t due = 0;
        for (std::size_t p = 0; p < phases; ++p) {
            if (k < p) continue;
            const std::size_t n = k - p + 1;
            if (n < window || (n - window) % hop != 0) continue;
            due += staggered ? (wearers - p + hop - 1) / hop : wearers;
        }
        return due;
    }
    std::size_t active(std::size_t wearers, std::size_t k) const {
        if (!staggered) return wearers;
        std::size_t n = 0;
        for (std::size_t p = 0; p < std::min(hop, wearers) && p <= k; ++p) {
            n += (wearers - p + hop - 1) / hop;
        }
        return n;
    }
    /// Router-session admission order: by join round, then (on the wire)
    /// by connection, then by wearer — the order a session_gateway meets
    /// first sample frames, so router ids agree across transports.
    std::vector<std::size_t> admission_order(std::size_t wearers) const {
        std::vector<std::size_t> order(wearers);
        for (std::size_t i = 0; i < wearers; ++i) order[i] = i;
        std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
            const auto key = [&](std::size_t i) {
                return std::make_pair(join(i), wire ? conn(i) : std::size_t{0});
            };
            return key(a) < key(b);
        });
        return order;
    }
};

/// The generator's input for rounds [first, first + count), built before
/// those rounds are timed: on the wire, per round and connection, the
/// sample frames of that connection's wearers followed by one tick frame;
/// in process, the samples themselves, round-major in ascending wearer
/// order as a receive buffer would hold them.  Rebuilt per block of
/// rounds, reusing its buffers, so it stays small.
struct round_input {
    std::size_t first = 0;
    std::vector<std::uint8_t> bytes;
    std::vector<std::array<std::size_t, 3>> cuts;  ///< {samples, tick, end} per (round, conn)
    std::vector<data::raw_sample> samples;
    std::vector<std::size_t> round_begin;  ///< one offset per round, plus the end

    std::span<const std::uint8_t> frames(std::size_t k, std::size_t c, bool tick) const {
        const auto& x = cuts[(k - first) * k_connections + c];
        return tick ? std::span<const std::uint8_t>(bytes.data() + x[1], x[2] - x[1])
                    : std::span<const std::uint8_t>(bytes.data() + x[0], x[1] - x[0]);
    }
    const data::raw_sample* round_samples(std::size_t k) const {
        return samples.data() + round_begin[k - first];
    }
};

void build_input(const traffic& t, std::size_t wearers, std::size_t first, std::size_t count,
                 round_input& in) {
    in.first = first;
    in.bytes.clear();
    in.cuts.clear();
    in.samples.clear();
    in.round_begin.clear();
    for (std::size_t k = first; k < first + count; ++k) {
        if (!t.wire) {
            in.round_begin.push_back(in.samples.size());
            for (std::size_t i = 0; i < wearers; ++i) {
                if (k >= t.join(i)) in.samples.push_back(t.sample(i, k));
            }
            continue;
        }
        for (std::size_t c = 0; c < k_connections; ++c) {
            const std::size_t begin = in.bytes.size();
            for (std::size_t i = c; i < wearers; i += k_connections) {
                if (k < t.join(i)) continue;
                const auto seq = static_cast<std::uint32_t>(k - t.join(i));
                net::encode_samples(in.bytes, static_cast<std::uint32_t>(i), seq,
                                    std::span<const data::raw_sample>(&t.sample(i, k), 1));
            }
            const std::size_t mid = in.bytes.size();
            net::encode_tick(in.bytes);
            in.cuts.push_back({begin, mid, in.bytes.size()});
        }
    }
    in.round_begin.push_back(in.samples.size());
}

// ---------------------------------------------------------------------------
// One set-up fleet under test.

/// FNV-1a over every trigger's (round, session, sample index, probability
/// bits), in emission order: equal digests mean equal trigger streams.
struct trigger_digest {
    std::uint64_t hash = 0xcbf29ce484222325ull;
    std::uint64_t count = 0;

    void add(std::uint64_t v) {
        for (int b = 0; b < 8; ++b) {
            hash ^= (v >> (8 * b)) & 0xffu;
            hash *= 0x100000001b3ull;
        }
    }
    void add(std::size_t round, const serve::trigger_event& e) {
        std::uint32_t bits = 0;
        std::memcpy(&bits, &e.probability, sizeof bits);
        add(round);
        add(e.session);
        add(e.sample_index);
        add(bits);
        ++count;
    }
    bool operator==(const trigger_digest&) const = default;
};

/// What one round measured.  Times are ms unless named _us.
struct round_record {
    double lateness_ms = 0.0;  ///< issue time minus scheduled due time
    double latency_ms = 0.0;   ///< decision return minus scheduled due time
    std::uint32_t windows = 0;
    std::uint32_t samples = 0;
    double feed_ms = 0.0;        ///< feed loop, or on_bytes over sample frames
    double tick_ms = 0.0;        ///< tick(), or the round-completing on_bytes
    double vote_ms = 0.0;        ///< wire: the other connections' tick frames
    double ingest_us = 0.0, score_us = 0.0, apply_us = 0.0;
    double scorer_ms = 0.0;      ///< the batch_scorer::score call (traced only)
    std::uint32_t scorer_rows = 0;
    std::uint64_t backlog = 0;   ///< queued samples left after the tick
    bool traced = false;
};

class fleet_under_test {
public:
    fleet_under_test(const traffic& t, const workload& w, std::size_t wearers,
                     std::uint64_t seed, bool over_wire, bool timed_scorer)
        : traffic_(t),
          wearers_(wearers),
          scorer_span_(w.backend == serve::scorer_backend::int8 ? "quant.score" : "nn.score") {
        serve::scorer_spec spec;
        spec.backend = w.backend;
        spec.window_samples = t.window;
        spec.seed = seed;
        std::unique_ptr<serve::batch_scorer> scorer = serve::make_scorer(spec);
        if (timed_scorer) {
            auto wrapped = std::make_unique<perfbench::timed_scorer>(std::move(scorer));
            timer_ = wrapped.get();
            scorer = std::move(wrapped);
        }
        router_ = std::make_unique<serve::fleet_router>(serve::fleet_config{}, std::move(scorer));
        if (over_wire) {
            gateway_ = std::make_unique<net::session_gateway>(
                *router_, [this](const serve::tick_result& r) { on_tick(r); });
            for (std::size_t c = 0; c < k_connections; ++c) conns_[c] = gateway_->open_connection();
        } else {
            ids_.resize(wearers);
            for (std::size_t i : t.admission_order(wearers)) ids_[i] = router_->create_session();
        }
    }
    // The gateway's tick handler holds `this`.
    fleet_under_test(const fleet_under_test&) = delete;
    fleet_under_test& operator=(const fleet_under_test&) = delete;

    /// Where rounds' samples come from (must cover every round run next);
    /// without one, rounds read the streams directly and in process.
    void set_input(const round_input* in) { input_ = in; }

    /// Unpaced rounds up to and including the first scoring round.
    void warm_up() {
        for (std::size_t k = 0; k <= traffic_.first_scoring_round(); ++k) round(k, nullptr, -1);
    }

    /// Deliver round k's samples and tick; fills `rec` (may be null).
    /// Returns the time the deciding call returned.
    bench_clock::time_point round(std::size_t k, round_record* rec,
                                  std::int32_t root_span, perfbench::span_recorder* spans = nullptr) {
        round_ = k;
        windows_ = 0;
        if (timer_) timer_->take_calls();  // count only this round's call
        const auto k32 = static_cast<std::uint32_t>(k);
        bench_clock::time_point done;
        if (!gateway_) {
            const auto t0 = bench_clock::now();
            std::uint32_t fed = 0;
            const data::raw_sample* next = input_ ? input_->round_samples(k) : nullptr;
            for (std::size_t i = 0; i < wearers_; ++i) {
                if (k < traffic_.join(i)) continue;
                router_->feed(ids_[i], next ? *next++ : traffic_.sample(i, k));
                ++fed;
            }
            const auto t1 = bench_clock::now();
            on_tick(router_->tick());
            done = bench_clock::now();
            if (rec) {
                rec->samples = fed;
                rec->feed_ms = ms_between(t0, t1);
                rec->tick_ms = ms_between(t1, done);
            }
            if (spans) {
                spans->add("serve.feed", t0, t1, root_span, k32);
                tick_span_ = spans->add("serve.tick", t1, done, root_span, k32);
                tick_start_ = t1;
            }
        } else {
            double feed_ms = 0.0, vote_ms = 0.0, final_ms = 0.0;
            for (std::size_t c = 0; c < k_connections; ++c) {
                const auto a = bench_clock::now();
                deliver(c, input_->frames(k, c, false));
                const auto b = bench_clock::now();
                deliver(c, input_->frames(k, c, true));
                done = bench_clock::now();
                feed_ms += ms_between(a, b);
                if (c + 1 < k_connections) vote_ms += ms_between(b, done);
                else final_ms = ms_between(b, done);
                if (spans) {
                    spans->add("net.on_bytes.samples", a, b, root_span, k32);
                    const std::int32_t id = spans->add("net.on_bytes.tick", b, done, root_span, k32);
                    if (c + 1 == k_connections) {
                        tick_span_ = id;
                        tick_start_ = b;
                    }
                }
            }
            for (std::size_t c = 0; c < k_connections; ++c) {
                replies_.clear();
                gateway_->take_replies(conns_[c], replies_);
            }
            if (rec) {
                rec->samples = static_cast<std::uint32_t>(traffic_.active(wearers_, k));
                rec->feed_ms = feed_ms;
                rec->vote_ms = vote_ms;
                rec->tick_ms = final_ms;
            }
        }
        if (rec) {
            const serve::tick_timings& tt = router_->last_tick_timings();
            rec->windows = static_cast<std::uint32_t>(windows_);
            rec->ingest_us = tt.ingest_us;
            rec->score_us = tt.score_us;
            rec->apply_us = tt.apply_us;
            const serve::engine_stats tot = router_->totals();
            rec->backlog = tot.accepted - tot.ingested - tot.dropped;
            if (timer_ && timer_->take_calls() > 0) {
                rec->scorer_ms = ms_between(timer_->last().start, timer_->last().end);
                rec->scorer_rows = static_cast<std::uint32_t>(timer_->last().rows);
            }
        }
        if (spans && tick_span_ >= 0) add_phase_spans(*spans, k32);
        if (windows_ != traffic_.windows_due(wearers_, k) && ++round_errors_ <= k_round_errors_shown) {
            count_errors_.push_back("round " + std::to_string(k) + ": decided " +
                                    std::to_string(windows_) + " windows, schedule implies " +
                                    std::to_string(traffic_.windows_due(wearers_, k)));
        }
        return done;
    }

    /// Checks the deterministic counters against the schedule after
    /// rounds [0, rounds).  Returns one line per mismatch.
    std::vector<std::string> check_counts(std::size_t rounds) const {
        std::vector<std::string> errors = count_errors_;
        if (round_errors_ > k_round_errors_shown) {
            errors.push_back(std::to_string(round_errors_ - k_round_errors_shown) +
                             " more rounds decided other window counts than scheduled");
        }
        std::uint64_t fed = 0, windows = 0;
        for (std::size_t k = 0; k < rounds; ++k) {
            fed += traffic_.active(wearers_, k);
            windows += traffic_.windows_due(wearers_, k);
        }
        const serve::engine_stats tot = router_->totals();
        const auto expect = [&](const char* what, std::uint64_t got, std::uint64_t want) {
            if (got != want) {
                errors.push_back(std::string(what) + " = " + std::to_string(got) +
                                 ", schedule implies " + std::to_string(want));
            }
        };
        expect("accepted", tot.accepted, fed);
        expect("ingested", tot.ingested, fed);
        expect("dropped", tot.dropped, 0);
        expect("rejected", tot.rejected, 0);
        expect("windows_scored", tot.windows_scored, windows);
        expect("router ticks", tot.ticks, rounds);
        expect("sessions", tot.sessions_created, wearers_);
        if (gateway_) {
            const net::gateway_stats& g = gateway_->stats();
            expect("net samples_in", g.samples_in, fed);
            expect("net samples_rejected", g.samples_rejected, 0);
            expect("net seq_gaps", g.seq_gaps, 0);
            expect("net decode_errors", g.decode_errors, 0);
            expect("net ticks", g.ticks, rounds);
            expect("net sessions_opened", g.sessions_opened, wearers_);
        }
        return errors;
    }

    const trigger_digest& triggers() const { return triggers_; }
    const net::gateway_stats* gateway_stats() const { return gateway_ ? &gateway_->stats() : nullptr; }

private:
    void deliver(std::size_t c, std::span<const std::uint8_t> bytes) {
        replies_.clear();
        if (!gateway_->on_bytes(conns_[c], bytes, replies_)) {
            count_errors_.push_back("connection " + std::to_string(c) + " rejected its bytes");
        }
    }

    void on_tick(const serve::tick_result& r) {
        windows_ += r.windows_scored;
        for (const serve::trigger_event& e : r.triggers) triggers_.add(round_, e);
    }

    /// The router reports phase durations only, so phase spans are laid
    /// end to end from the tick's start; the scorer span carries the
    /// wrapper's real timestamps.
    void add_phase_spans(perfbench::span_recorder& spans, std::uint32_t k) {
        const serve::tick_timings& tt = router_->last_tick_timings();
        const std::int64_t t0 = spans.ns(tick_start_);
        const auto us = [](double v) { return static_cast<std::int64_t>(v * 1000.0); };
        spans.add_ns("core.ingest", t0, t0 + us(tt.ingest_us), tick_span_, k);
        const std::int32_t score =
            spans.add_ns("serve.score_phase", t0 + us(tt.ingest_us),
                         t0 + us(tt.ingest_us + tt.score_us), tick_span_, k);
        spans.add_ns("core.apply", t0 + us(tt.ingest_us + tt.score_us),
                     t0 + us(tt.ingest_us + tt.score_us + tt.apply_us), tick_span_, k);
        if (timer_ && timer_->last().rows > 0 && timer_->last().start >= tick_start_) {
            spans.add(scorer_span_, timer_->last().start, timer_->last().end, score, k);
        }
        tick_span_ = -1;
    }

    const traffic& traffic_;
    std::size_t wearers_;
    const round_input* input_ = nullptr;
    const char* scorer_span_;
    perfbench::timed_scorer* timer_ = nullptr;
    std::unique_ptr<serve::fleet_router> router_;
    std::unique_ptr<net::session_gateway> gateway_;
    std::array<net::session_gateway::conn_id, k_connections> conns_{};
    std::vector<serve::session_id> ids_;
    std::vector<std::uint8_t> replies_;
    trigger_digest triggers_;
    static constexpr std::size_t k_round_errors_shown = 3;
    std::vector<std::string> count_errors_;
    std::size_t round_errors_ = 0;
    std::size_t round_ = 0;
    std::uint64_t windows_ = 0;
    std::int32_t tick_span_ = -1;
    bench_clock::time_point tick_start_{};
};

// ---------------------------------------------------------------------------
// Process measurements

double cpu_seconds() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double rss_mb() {
    std::ifstream statm("/proc/self/statm");
    long pages = 0, resident = 0;
    statm >> pages >> resident;
    return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) / 1e6;
}

std::array<double, 3> load_average() {
    struct sysinfo info {};
    if (sysinfo(&info) != 0) return {0.0, 0.0, 0.0};
    const double scale = static_cast<double>(1u << SI_LOAD_SHIFT);
    return {info.loads[0] / scale, info.loads[1] / scale, info.loads[2] / scale};
}

double percentile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

/// Percentile over windows: every window a round decided shares the
/// round's latency, so rounds are weighted by their window count.
double window_percentile(std::span<const round_record> recs, double q) {
    std::vector<std::pair<double, std::uint64_t>> v;
    std::uint64_t total = 0;
    for (const round_record& r : recs) {
        if (r.windows == 0) continue;
        v.push_back({r.latency_ms, r.windows});
        total += r.windows;
    }
    if (total == 0) return 0.0;
    std::sort(v.begin(), v.end());
    const double target = q * static_cast<double>(total);
    std::uint64_t seen = 0;
    for (const auto& [value, weight] : v) {
        seen += weight;
        if (static_cast<double>(seen) >= target) return value;
    }
    return v.back().first;
}

// ---------------------------------------------------------------------------
// Paced (open-loop) rounds

struct paced_run {
    std::vector<round_record> records;
    double cpu_s = 0.0;
    double peak_rss_mb = 0.0;
    bool aborted = false;
};

/// Issue rounds [first, first + count) on a 100 Hz schedule regardless of
/// how long each takes (open loop: a slow round delays the next one's
/// issue, and that lateness is counted in its latency).  The input is
/// built per block of `block` rounds in an untimed pause before the
/// block, whose CPU time is left out of cpu_s; each block restarts the
/// schedule.  Traced runs record spans in every other block.
paced_run run_paced(fleet_under_test& f, const traffic& t, std::size_t wearers, round_input& in,
                    std::size_t first, std::size_t count, std::size_t block, double abort_ms,
                    perfbench::span_recorder* spans) {
    paced_run out;
    out.records.reserve(count);
    const auto period = std::chrono::duration_cast<bench_clock::duration>(
        std::chrono::duration<double, std::milli>(k_period_ms));
    double excluded_cpu = 0.0;
    const double cpu0 = cpu_seconds();
    for (std::size_t b = 0; b < count && !out.aborted; b += block) {
        const std::size_t n = std::min(block, count - b);
        const double c0 = cpu_seconds();
        build_input(t, wearers, first + b, n, in);
        f.set_input(&in);
        excluded_cpu += cpu_seconds() - c0;
        const bool traced = spans && (b / block) % 2 == 0;
        if (spans) spans->set_enabled(traced);
        const bench_clock::time_point start = bench_clock::now() + period;
        for (std::size_t j = 0; j < n; ++j) {
            const auto k = static_cast<std::uint32_t>(first + b + j);
            const bench_clock::time_point due = start + period * static_cast<std::int64_t>(j);
            if (bench_clock::now() < due) std::this_thread::sleep_until(due);
            const bench_clock::time_point issued = bench_clock::now();
            round_record rec;
            const std::int32_t root = traced ? spans->add("round", issued, issued, -1, k) : -1;
            const bench_clock::time_point done = f.round(k, &rec, root, traced ? spans : nullptr);
            if (traced) {
                spans->add("gen.lateness", due, issued, root, k);
                spans->set_end(root, done);
            }
            rec.traced = traced;
            rec.lateness_ms = ms_between(due, issued);
            rec.latency_ms = ms_between(due, done);
            out.records.push_back(rec);
            if (j % 10 == 0) out.peak_rss_mb = std::max(out.peak_rss_mb, rss_mb());
            if (abort_ms > 0.0 && rec.lateness_ms > abort_ms) {
                out.aborted = true;
                break;
            }
        }
    }
    if (spans) spans->set_enabled(false);
    f.set_input(nullptr);
    out.cpu_s = cpu_seconds() - cpu0 - excluded_cpu;
    out.peak_rss_mb = std::max(out.peak_rss_mb, rss_mb());
    return out;
}

// ---------------------------------------------------------------------------
// Capacity probe

struct probe_result {
    std::size_t wearers = 0;
    double p90_ms = 0.0;          ///< decision latency
    double service_p90_ms = 0.0;  ///< scoring rounds' issue -> decision
    double lateness_p90_ms = 0.0;
    bool aborted = false;
    std::size_t scoring_rounds = 0;
    double backlog_p90 = 0.0;
};

struct gate {
    std::vector<std::string> errors;
    void add(const std::string& where, const std::vector<std::string>& more) {
        for (const std::string& e : more) errors.push_back(where + ": " + e);
    }
};

struct run_context {
    const workload& w;
    const traffic& t;
    std::uint64_t seed;
    gate& checks;
};

probe_result probe(const run_context& ctx, std::size_t wearers, std::size_t rounds) {
    const std::size_t warm = ctx.t.first_scoring_round() + 1;
    round_input in;
    build_input(ctx.t, wearers, 0, warm, in);
    fleet_under_test f(ctx.t, ctx.w, wearers, ctx.seed, ctx.w.wire, false);
    f.set_input(&in);
    f.warm_up();
    const paced_run run = run_paced(f, ctx.t, wearers, in, warm, rounds, k_block,
                                    k_probe_abort_ms, nullptr);
    if (!run.aborted) {
        ctx.checks.add("capacity probe " + std::to_string(wearers), f.check_counts(warm + rounds));
    }
    probe_result p;
    p.wearers = wearers;
    p.p90_ms = window_percentile(run.records, 0.9);
    p.aborted = run.aborted;
    std::vector<double> service, lateness, backlog;
    for (const round_record& r : run.records) {
        if (r.windows) {
            ++p.scoring_rounds;
            service.push_back(r.latency_ms - r.lateness_ms);
        }
        lateness.push_back(r.lateness_ms);
        backlog.push_back(static_cast<double>(r.backlog));
    }
    p.service_p90_ms = percentile(service, 0.9);
    p.lateness_p90_ms = percentile(lateness, 0.9);
    p.backlog_p90 = percentile(backlog, 0.9);
    return p;
}

struct capacity_result {
    double wearers = 0.0;
    probe_result probe;
};

/// Capacity: the fleet size whose scoring rounds, issued on time, are
/// decided within the limit at p90.  One probe fleet, larger than the
/// fixed load but short of capacity, runs for the rest of the run's
/// budget; the estimate scales its size by 10 ms / the p90 of its scoring
/// rounds' service time (issue to decision).
///  - Service time leaves out the lateness one slow round hands to the
///    next: near capacity that queueing magnifies a slow host phase
///    several-fold, while service time follows it one to one.
///  - The probe's size is fixed per workload.  Placed from a measured p90,
///    it moved with host noise, and cost per row is not linear in batch
///    size (shift_start), so the estimate moved with the placement.
///  - A probe at or past saturation keeps every core busy, so neighbours
///    on a shared host slow it far more than a fleet with idle time.
capacity_result find_capacity(const run_context& ctx, double budget_s) {
    capacity_result out;
    // Paced rounds take one period each; leave a tenth of the budget for
    // the probe's set-up and its untimed input building.
    const auto blocks = static_cast<std::size_t>(0.9 * budget_s * 1000.0 / k_period_ms) / k_block;
    out.probe = probe(ctx, ctx.w.probe_wearers, std::max<std::size_t>(blocks, 3) * k_block);
    out.wearers = static_cast<double>(out.probe.wearers) * k_limit_ms /
                  std::max(out.probe.service_p90_ms, 0.01);
    return out;
}

// ---------------------------------------------------------------------------
// Correctness reference: the same traffic replayed in process, unpaced,
// on one pool thread.

trigger_digest reference_triggers(const traffic& t, const workload& w, std::size_t wearers,
                                  std::uint64_t seed, std::size_t rounds) {
    const std::size_t threads = util::global_thread_count();
    const bool obs_on = obs::enabled();
    util::set_global_threads(1);
    obs::set_enabled(false);
    trigger_digest out;
    {
        // No transport and no staged input: feed/tick straight from the
        // streams, in the same admission order.
        fleet_under_test f(t, w, wearers, seed, false, false);
        for (std::size_t k = 0; k < rounds; ++k) f.round(k, nullptr, -1);
        out = f.triggers();
    }
    util::set_global_threads(threads);
    obs::set_enabled(obs_on);
    return out;
}

// ---------------------------------------------------------------------------
// Output

struct metric {
    std::string name;
    double value;
    std::string unit;
    std::string samples;  ///< what the value was computed from
};

std::string json_number(double v) {
    if (!std::isfinite(v)) return "0";
    std::ostringstream os;
    os.precision(12);
    os << v;
    return os.str();
}

std::string metrics_json(const std::vector<metric>& ms) {
    std::ostringstream os;
    os << '{';
    for (std::size_t i = 0; i < ms.size(); ++i) {
        os << (i ? ", " : "") << '"' << ms[i].name << "\": {\"value\": " << json_number(ms[i].value)
           << ", \"unit\": \"" << ms[i].unit << "\"}";
    }
    os << '}';
    return os.str();
}

/// Per-layer metrics from the traced blocks of the fixed load (see the
/// layer table in perfbench/README.md).  Idle layers report 0.
std::vector<metric> per_layer_metrics(const workload& w, const std::vector<round_record>& fixed,
                                      const capacity_result& capacity,
                                      const net::gateway_stats& net_stats,
                                      std::uint64_t triggers, std::size_t span_count) {
    std::vector<metric> out;
    std::vector<round_record> traced;
    for (const round_record& r : fixed) {
        if (r.traced) traced.push_back(r);
    }
    const bool int8 = w.backend == serve::scorer_backend::int8;
    double feed_ms = 0, tick_final_ms = 0, ingest_us = 0, apply_us = 0, gather_us = 0, scorer_ms = 0;
    double phase_us_in_final = 0;
    std::uint64_t tr_samples = 0, tr_windows = 0, rows = 0, calls = 0, win_max = 0;
    std::vector<double> tick_ms, scorer_call_ms, lateness;
    // Window-weighted self times along the blocking path of deciding rounds.
    double w_total = 0, s_gen = 0, s_net = 0, s_serve = 0, s_core = 0, s_score = 0;
    for (const round_record& r : traced) {
        const double phases_ms = (r.ingest_us + r.score_us + r.apply_us) / 1000.0;
        feed_ms += r.feed_ms;
        tr_samples += r.samples;
        tr_windows += r.windows;
        ingest_us += r.ingest_us;
        apply_us += r.apply_us;
        lateness.push_back(r.lateness_ms);
        tick_ms.push_back(w.wire ? phases_ms : r.tick_ms);
        tick_final_ms += r.tick_ms;
        phase_us_in_final += r.ingest_us + r.score_us + r.apply_us;
        win_max = std::max<std::uint64_t>(win_max, r.windows);
        if (r.scorer_rows) {
            ++calls;
            rows += r.scorer_rows;
            scorer_ms += r.scorer_ms;
            scorer_call_ms.push_back(r.scorer_ms);
            gather_us += r.score_us - r.scorer_ms * 1000.0;
        }
        if (r.windows) {
            const double wt = r.windows;
            w_total += wt;
            s_gen += wt * r.lateness_ms;
            s_core += wt * (r.ingest_us + r.apply_us) / 1000.0;
            s_score += wt * r.scorer_ms;
            const double gather_ms = r.score_us / 1000.0 - r.scorer_ms;
            if (w.wire) {
                s_net += wt * (r.feed_ms + r.vote_ms + r.tick_ms - phases_ms);
                s_serve += wt * gather_ms;
            } else {
                s_serve += wt * (r.feed_ms + (r.tick_ms - phases_ms) + gather_ms);
            }
        }
    }
    const auto safe_div = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    const double traced_p50 = window_percentile(traced, 0.5);
    // Overhead: traced block p50 minus the next (untraced) block's, median
    // over block pairs, so host drift between distant blocks cancels.
    std::vector<double> overhead;
    const std::span<const round_record> recs(fixed);
    for (std::size_t b = 0; b + 2 * k_block <= recs.size(); b += 2 * k_block) {
        overhead.push_back(window_percentile(recs.subspan(b, k_block), 0.5) -
                           window_percentile(recs.subspan(b + k_block, k_block), 0.5));
    }
    const double self_gen = safe_div(s_gen, w_total), self_net = safe_div(s_net, w_total),
                 self_serve = safe_div(s_serve, w_total), self_core = safe_div(s_core, w_total),
                 self_score = safe_div(s_score, w_total);
    const double accounted = self_gen + self_net + self_serve + self_core + self_score;
    std::uint64_t dropped = 0, rejected = 0;  // the count gate pins both at 0
    const std::size_t tr_rounds = traced.size();
    const std::string tr = std::to_string(tr_rounds) + " traced rounds";
    out.push_back({"net.on_bytes_us_per_sample", w.wire ? safe_div(feed_ms * 1000.0, tr_samples) : 0.0, "us", tr});
    out.push_back({"net.tick_overhead_us", w.wire ? safe_div(tick_final_ms * 1000.0 - phase_us_in_final, tr_rounds) : 0.0, "us", tr});
    out.push_back({"net.bytes_in", static_cast<double>(net_stats.bytes_in), "bytes", "fixed load"});
    out.push_back({"net.frames_in", static_cast<double>(net_stats.frames_in), "count", "fixed load"});
    out.push_back({"net.reply_bytes", static_cast<double>(net_stats.bytes_out), "bytes", "fixed load"});
    out.push_back({"serve.feed_us_per_sample", w.wire ? 0.0 : safe_div(feed_ms * 1000.0, tr_samples), "us", tr});
    out.push_back({"serve.tick_ms_p50", percentile(tick_ms, 0.5), "ms", tr});
    out.push_back({"serve.tick_ms_p90", percentile(tick_ms, 0.9), "ms", tr});
    out.push_back({"serve.gather_us_per_tick", safe_div(gather_us, calls), "us", std::to_string(calls) + " scoring rounds"});
    out.push_back({"serve.windows_per_tick_mean", safe_div(tr_windows, tr_rounds), "count", tr});
    out.push_back({"serve.windows_per_tick_max", static_cast<double>(win_max), "count", tr});
    out.push_back({"serve.backlog_samples_p90", capacity.probe.backlog_p90, "count", "capacity probe"});
    out.push_back({"capacity_wearers", capacity.wearers, "wearers",
                   "probe of " + std::to_string(capacity.probe.wearers) + " wearers"});
    out.push_back({"serve.dropped", static_cast<double>(dropped), "count", "fixed load"});
    out.push_back({"serve.rejected", static_cast<double>(rejected), "count", "fixed load"});
    out.push_back({"core.ingest_us_per_sample", safe_div(ingest_us, tr_samples), "us", tr});
    out.push_back({"core.apply_us_per_window", safe_div(apply_us, tr_windows), "us", tr});
    out.push_back({"core.triggers", static_cast<double>(triggers), "count", "fixed load incl. set-up"});
    out.push_back({"nn.score_us_per_window", int8 ? 0.0 : safe_div(scorer_ms * 1000.0, rows), "us", std::to_string(calls) + " calls"});
    out.push_back({"nn.score_ms_p90", int8 ? 0.0 : percentile(scorer_call_ms, 0.9), "ms", std::to_string(calls) + " calls"});
    out.push_back({"nn.rows_per_call", int8 ? 0.0 : safe_div(rows, calls), "count", std::to_string(calls) + " calls"});
    out.push_back({"quant.score_us_per_window", int8 ? safe_div(scorer_ms * 1000.0, rows) : 0.0, "us", std::to_string(calls) + " calls"});
    out.push_back({"quant.score_ms_p90", int8 ? percentile(scorer_call_ms, 0.9) : 0.0, "ms", std::to_string(calls) + " calls"});
    out.push_back({"quant.rows_per_call", int8 ? safe_div(rows, calls) : 0.0, "count", std::to_string(calls) + " calls"});
    out.push_back({"gen.lateness_ms_p90", percentile(lateness, 0.9), "ms", tr});
    out.push_back({"self.gen_ms", self_gen, "ms", "window-weighted mean"});
    out.push_back({"self.net_ms", self_net, "ms", "window-weighted mean"});
    out.push_back({"self.serve_ms", self_serve, "ms", "window-weighted mean"});
    out.push_back({"self.core_ms", self_core, "ms", "window-weighted mean"});
    out.push_back({"self.nn_ms", int8 ? 0.0 : self_score, "ms", "window-weighted mean"});
    out.push_back({"self.quant_ms", int8 ? self_score : 0.0, "ms", "window-weighted mean"});
    out.push_back({"trace.decision_p50_ms", traced_p50, "ms", tr});
    out.push_back({"trace.remainder_ms", traced_p50 - accounted, "ms", "traced p50 minus self times"});
    out.push_back({"trace.overhead_ms", median(overhead), "ms",
                   std::to_string(overhead.size()) + " traced/untraced block pairs"});
    out.push_back({"trace.spans", static_cast<double>(span_count), "count", "spans recorded"});
    return out;
}

struct options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 30.0;
    bool trace = false;
    std::string spans_path;
    std::string results_path;
};

std::optional<options> parse_args(int argc, char** argv) {
    options o;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) return std::nullopt;
        const std::string value = argv[++i];
        try {
            if (flag == "--workload") {
                o.workload = value;
                have_workload = true;
            } else if (flag == "--seed") {
                o.seed = std::stoull(value);
            } else if (flag == "--seconds") {
                o.seconds = std::stod(value);
            } else if (flag == "--trace") {
                if (value != "0" && value != "1") return std::nullopt;
                o.trace = value == "1";
            } else if (flag == "--spans") {
                o.spans_path = value;
            } else if (flag == "--results") {
                o.results_path = value;
            } else {
                return std::nullopt;
            }
        } catch (const std::exception&) {
            return std::nullopt;
        }
    }
    if (!have_workload || !(o.seconds >= 1.0)) return std::nullopt;
    return o;
}

int run(const options& opt, const workload& w) {
    const std::size_t nproc = std::max<std::size_t>(1, std::thread::hardware_concurrency());
    const std::size_t threads = std::clamp<std::size_t>(nproc - 1, 1, k_max_threads);
    util::set_global_threads(threads);
    nn::set_simd_mode(nn::simd_mode::native);
    obs::set_enabled(w.wire);  // a deployed server records obs; in-process runs are the control
    const std::array<double, 3> load_start = load_average();

    const core::detector_config detector{};
    traffic t;
    t.staggered = w.staggered;
    t.wire = w.wire;
    t.window = detector.window_samples;
    t.hop = std::max<std::size_t>(1, static_cast<std::size_t>(std::lround(
                                         static_cast<double>(detector.window_samples) *
                                         (1.0 - detector.overlap_fraction))));
    const std::size_t warm_rounds = t.first_scoring_round() + 1;
    std::size_t fixed_rounds = static_cast<std::size_t>(w.fixed_share * opt.seconds * 1000.0 / k_period_ms);
    fixed_rounds = std::max(fixed_rounds, 2 * k_block);

    const auto wall0 = bench_clock::now();
    t.streams = serve::synthesize_fleet_streams(std::max(w.wearers, w.probe_wearers), opt.seed);
    round_input warm_input, block_input;
    build_input(t, w.wearers, 0, warm_rounds, warm_input);
    build_input(t, w.wearers, warm_rounds, k_block, block_input);  // sized for every block
    const double prep_s = ms_between(wall0, bench_clock::now()) / 1000.0;
    // Freed synthesis scratch goes back to the OS, so rss_mb counts the
    // fleet's own pages.
    malloc_trim(0);
    const double rss_base = rss_mb();

    gate checks;
    const run_context ctx{w, t, opt.seed, checks};
    perfbench::span_recorder spans(bench_clock::now());
    const auto measure0 = bench_clock::now();

    // --- set-up #1 and the fixed load -------------------------------------
    std::vector<double> setup_s;
    paced_run fixed;
    trigger_digest fixed_triggers;
    net::gateway_stats net_stats{};
    {
        const auto s0 = bench_clock::now();
        fleet_under_test f(t, w, w.wearers, opt.seed, w.wire, opt.trace);
        f.set_input(&warm_input);
        f.warm_up();
        setup_s.push_back(ms_between(s0, bench_clock::now()) / 1000.0);
        fixed = run_paced(f, t, w.wearers, block_input, warm_rounds, fixed_rounds, k_block, 0.0,
                          opt.trace ? &spans : nullptr);
        checks.add("fixed load", f.check_counts(warm_rounds + fixed_rounds));
        fixed_triggers = f.triggers();
        if (f.gateway_stats()) net_stats = *f.gateway_stats();
    }
    block_input = {};

    // --- repeated set-ups ---------------------------------------------------
    while (setup_s.size() < w.setups) {
        const auto s0 = bench_clock::now();
        fleet_under_test f(t, w, w.wearers, opt.seed, w.wire, false);
        f.set_input(&warm_input);
        f.warm_up();
        setup_s.push_back(ms_between(s0, bench_clock::now()) / 1000.0);
        checks.add("set-up " + std::to_string(setup_s.size()), f.check_counts(warm_rounds));
    }

    // --- capacity -----------------------------------------------------------
    const double used_s = ms_between(measure0, bench_clock::now()) / 1000.0;
    const capacity_result capacity =
        find_capacity(ctx, std::max(0.0, opt.seconds - used_s));
    const double measured_s = ms_between(measure0, bench_clock::now()) / 1000.0;

    // --- correctness: trigger stream vs an untimed single-thread replay ------
    const auto replay0 = bench_clock::now();
    const trigger_digest reference =
        reference_triggers(t, w, w.wearers, opt.seed, warm_rounds + fixed_rounds);
    if (!(reference == fixed_triggers)) {
        checks.errors.push_back("trigger stream (" + std::to_string(fixed_triggers.count) +
                                " triggers) differs from the single-thread in-process replay (" +
                                std::to_string(reference.count) + " triggers)");
    }
    const double replay_s = ms_between(replay0, bench_clock::now()) / 1000.0;
    const std::array<double, 3> load_end = load_average();

    // --- operation accounting (fixed load) ----------------------------------
    std::uint64_t due = 0, met = 0, late = 0, decided = 0;
    std::size_t scoring_rounds = 0;
    for (std::size_t j = 0; j < fixed.records.size(); ++j) {
        const round_record& r = fixed.records[j];
        due += t.windows_due(w.wearers, warm_rounds + j);
        decided += r.windows;
        if (r.windows) ++scoring_rounds;
        if (r.latency_ms <= k_limit_ms) met += r.windows;
        else late += r.windows;
    }
    const std::uint64_t never = due - std::min(due, decided);
    std::uint64_t samples = 0;
    for (const round_record& r : fixed.records) samples += r.samples;

    std::cout << "workload " << w.name << ": wearers " << w.wearers << ", rounds " << fixed_rounds
              << " at " << 1000.0 / k_period_ms << " Hz, " << (w.staggered ? "staggered" : "aligned")
              << " phases, " << serve::scorer_backend_name(w.backend) << " scorer, "
              << (w.wire ? "wire-v1 over 4 in-memory connections, obs on" : "in process, obs off")
              << '\n';
    std::cout << "windows: due " << due << ", decided within " << k_limit_ms << " ms " << met
              << ", decided late " << late << ", never decided " << never << '\n';

    std::vector<metric> out;
    if (!opt.trace) {
        const std::string win = std::to_string(decided) + " windows over " +
                                std::to_string(scoring_rounds) + " scoring rounds";
        out.push_back({"setup_s", median(setup_s), "s", "median of " + std::to_string(setup_s.size()) + " set-ups"});
        out.push_back({"decision_p50_ms", window_percentile(fixed.records, 0.5), "ms", win});
        out.push_back({"decision_p90_ms", window_percentile(fixed.records, 0.9), "ms", win});
        out.push_back({"deadline_met_frac", due ? static_cast<double>(met) / static_cast<double>(due) : 0.0,
                       "fraction", std::to_string(due) + " windows due"});
        out.push_back({"cpu_us_per_sample", samples ? fixed.cpu_s * 1e6 / static_cast<double>(samples) : 0.0,
                       "us", std::to_string(samples) + " samples"});
        out.push_back({"rss_mb", fixed.peak_rss_mb - rss_base, "MB", "peak over the fixed load"});
    } else {
        out = per_layer_metrics(w, fixed.records, capacity, net_stats, fixed_triggers.count,
                                spans.spans().size());
        if (!opt.spans_path.empty() && !spans.write(opt.spans_path)) {
            std::cerr << "fleet_bench: could not write " << opt.spans_path << '\n';
        }
    }

    for (const metric& m : out) {
        std::printf("  %-28s %14.6g %-9s (%s)\n", m.name.c_str(), m.value, m.unit.c_str(), m.samples.c_str());
    }
    {
        const probe_result& p = capacity.probe;
        std::printf("  probe %7zu wearers: over %zu scoring rounds p90 service %.3f ms, p90 decision "
                    "%.3f ms; p90 lateness %.3f ms%s -> capacity %.0f wearers\n",
                    p.wearers, p.scoring_rounds, p.service_p90_ms, p.p90_ms, p.lateness_p90_ms,
                    p.aborted ? " (stopped: fell 250 ms behind)" : "", capacity.wearers);
    }
    std::ostringstream env;
    env << "{\"workload\": \"" << w.name << "\", \"seed\": " << opt.seed
        << ", \"wearers\": " << w.wearers << ", \"fixed_rounds\": " << fixed_rounds
        << ", \"simd_backend\": \"" << nn::active_simd_backend_name() << "\", \"pool_threads\": "
        << util::global_thread_count() << ", \"nproc\": " << nproc << ", \"build_type\": \""
        << PERFBENCH_BUILD_TYPE << "\", \"loadavg_start\": " << json_number(load_start[0])
        << ", \"loadavg_end\": " << json_number(load_end[0]) << ", \"prep_s\": " << json_number(prep_s)
        << ", \"measured_s\": " << json_number(measured_s) << ", \"replay_s\": "
        << json_number(replay_s) << ", \"scorer\": \""
        << serve::scorer_backend_name(w.backend) << "\"}";
    std::cout << "environment " << env.str() << '\n';

    const bool correct = checks.errors.empty();
    for (const std::string& e : checks.errors) std::cerr << "correctness [" << w.name << "] " << e << '\n';
    std::ostringstream result;
    result << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << due
           << ", \"failed\": " << never << ", \"metrics\": " << metrics_json(out) << '}';
    if (!opt.results_path.empty()) {
        std::ofstream rf(opt.results_path);
        rf << "{\"environment\": " << env.str() << ", \"result\": " << result.str() << "}\n";
    }
    std::cout << result.str() << std::endl;
    return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    const std::optional<options> opt = parse_args(argc, argv);
    if (!opt) {
        std::cerr << "usage: fleet_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
                     " [--spans <path>] [--results <path>]\n";
        return 2;
    }
    for (const workload& w : workloads()) {
        if (opt->workload != w.name) continue;
        try {
            return run(*opt, w);
        } catch (const std::exception& e) {
            std::cerr << "fleet_bench [" << w.name << "]: " << e.what() << '\n';
            return 1;
        }
    }
    std::cerr << "fleet_bench: unknown workload '" << opt->workload << "'\n";
    return 2;
}
