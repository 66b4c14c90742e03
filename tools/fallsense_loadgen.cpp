// fallsense_loadgen — fleet-traffic generator for the serving layer.
//
//   fallsense_loadgen [--sessions N] [--ticks T] [--seed S]
//                     [--shards K] [--score-mode fused|per_shard] [--swap-after T]
//                     [--window-ms 400] [--threshold 0.5] [--consecutive 1]
//                     [--feed-rate 1] [--samples-per-tick 1]
//                     [--max-samples-per-tick 0] [--drain-watermark 0]
//                     [--queue-capacity 64] [--drop-policy oldest|reject]
//                     [--churn-every 0] [--int8] [--weights FILE]
//                     [--simd scalar|native]
//                     [--scenario NAME] [--stream-eval]
//                     [--cost-ratios CSV] [--grace-ms MS]
//                     [--snapshot-every N --snapshot-path FILE]
//                     [--restore-from FILE]
//                     [--metrics-json FILE] [--metrics-timings]
//   fallsense_loadgen --list-scenarios
//   fallsense_loadgen --client HOST:PORT [--sessions N] [--ticks T]
//                     [--seed S] [--feed-rate R] [--connections K]
//                     [--restore-from FILE]
//
// Synthesizes --sessions independent wearers from the motion-profile
// library, replays them through a serve::fleet_router with --shards
// session_engine shards for --ticks ticks, and prints the deterministic
// traffic summary plus measured throughput.  --swap-after T hot-swaps the
// fleet's scorer after T ticks (a model rollout under live traffic).
// With --metrics-json the obs registry records the run and a manifest is
// written; without --metrics-timings that manifest is byte-identical for
// any FALLSENSE_THREADS (the serving determinism contract,
// docs/serving.md).
//
// --snapshot-every N writes a durable checkpoint (docs/checkpoint.md)
// to --snapshot-path after every N completed ticks (atomic
// rename-on-write, so the published file is never torn);
// --restore-from resumes a run from such a file — the restored process
// replays exactly the remaining ticks, bit-identical to a run that
// never stopped.
//
// --scenario NAME draws the fleet's traffic from a named adversarial
// profile (data::list_profiles; --list-scenarios prints the catalogue)
// and turns on the event-level streaming evaluator: triggers are tapped
// from every fleet tick, matched against the synthesizer's ground-truth
// fall annotations, and reported as detection lead time, misses, false
// alarms per hour, and a miss/false-alarm cost curve (--cost-ratios, a
// comma-separated grid; --grace-ms bounds how late after impact a
// trigger still attributes to the fall).  --stream-eval turns the
// evaluator on for the default baseline traffic.  Eval results print as
// eval_* summary lines and land in the manifest under eval/*
// (docs/evaluation.md), byte-identical across FALLSENSE_THREADS.
//
// --client sends the identical traffic over the wire protocol
// (docs/wire_protocol.md) to a `fallsense serve --listen` endpoint
// instead of feeding an in-process fleet: engine, scorer, and rollout
// knobs then belong to the server process and are rejected here.
// --connections K splits the fleet across K sockets (session i rides
// socket i mod K); in client mode --restore-from resumes the traffic
// side against a server restored from the same snapshot.
#include <cstdio>

#include "ckpt/store.hpp"
#include "net/loadgen_client.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "serve/serve.hpp"
#include "tool_common.hpp"
#include "util/args.hpp"
#include "util/env.hpp"

namespace {

using namespace fallsense;

constexpr const char* k_config_options[] = {
    "sessions",    "ticks",       "seed",          "shards",
    "score-mode",  "swap-after",  "window-ms",     "threshold",
    "consecutive", "feed-rate",   "samples-per-tick", "max-samples-per-tick",
    "drain-watermark", "queue-capacity", "drop-policy", "churn-every",
    "weights", "simd", "client", "connections",
    "scenario", "cost-ratios", "grace-ms",
    "snapshot-every", "snapshot-path", "restore-from"};

int usage() {
    std::fprintf(stderr,
                 "usage: fallsense_loadgen [--sessions N] [--ticks T] [--seed S]\n"
                 "                         [--shards K] [--score-mode fused|per_shard]\n"
                 "                         [--swap-after T] [--window-ms MS]\n"
                 "                         [--threshold P] [--consecutive N] [--feed-rate R]\n"
                 "                         [--samples-per-tick N] [--max-samples-per-tick N]\n"
                 "                         [--drain-watermark N] [--queue-capacity N]\n"
                 "                         [--drop-policy oldest|reject] [--churn-every T]\n"
                 "                         [--int8] [--weights FILE]\n"
                 "                         [--simd scalar|native]\n"
                 "                         [--scenario NAME] [--stream-eval]\n"
                 "                         [--cost-ratios CSV] [--grace-ms MS]\n"
                 "                         [--snapshot-every N --snapshot-path FILE]\n"
                 "                         [--restore-from FILE]\n"
                 "                         [--metrics-json FILE] [--metrics-timings]\n"
                 "       fallsense_loadgen --list-scenarios\n"
                 "       fallsense_loadgen --client HOST:PORT [--sessions N] [--ticks T]\n"
                 "                         [--seed S] [--feed-rate R] [--connections K]\n"
                 "                         [--restore-from FILE]\n");
    return 2;
}

int run_client(const util::arg_parser& args) {
    // Everything beyond traffic shaping configures the *server's* fleet:
    // the wire carries samples, ticks, and closes — not engine knobs.
    for (const char* opt : {"shards", "score-mode", "swap-after", "window-ms",
                            "threshold", "consecutive", "samples-per-tick",
                            "max-samples-per-tick", "drain-watermark",
                            "queue-capacity", "drop-policy", "churn-every",
                            "weights", "simd", "snapshot-every", "snapshot-path"}) {
        if (args.option(opt)) {
            throw tools::usage_error(std::string("--") + opt +
                                     " configures the serve --listen process, "
                                     "not the wire client");
        }
    }
    if (args.has_flag("int8")) {
        throw tools::usage_error("--int8 configures the serve --listen process, "
                                 "not the wire client");
    }
    // Streaming evaluation pairs triggers with the synthesizer's ground
    // truth — state only the in-process side holds.  The wire carries
    // samples, not annotations, so scenario evaluation is in-process only.
    for (const char* opt : {"scenario", "cost-ratios", "grace-ms"}) {
        if (args.option(opt)) {
            throw tools::usage_error(std::string("--") + opt +
                                     " needs the in-process loadgen: the wire "
                                     "carries samples, not ground truth");
        }
    }
    if (args.has_flag("stream-eval")) {
        throw tools::usage_error("--stream-eval needs the in-process loadgen: the "
                                 "wire carries samples, not ground truth");
    }
    const std::string spec = *args.option("client");
    const auto where = net::parse_endpoint(spec);
    if (!where) tools::bad_option("--client", spec, "HOST:PORT");

    serve::loadgen_config config;
    config.sessions = tools::count_option(args, "sessions", 64);
    config.ticks = tools::count_option(args, "ticks", 1000);
    config.seed = args.option("seed")
                      ? static_cast<std::uint64_t>(tools::integer_option(args, "seed", 42))
                      : util::env_seed();
    config.feed_rate = tools::count_option(args, "feed-rate", 1);

    net::client_options options;
    options.connections = tools::count_option(args, "connections", 1);
    if (const auto restore_from = args.option("restore-from")) {
        // The server restores the fleet from this snapshot; the client
        // reads the same file to resume the TRAFFIC — which tick the run
        // stopped at and each session's next wire sequence number.
        const ckpt::fleet_snapshot snap = ckpt::read_snapshot_file(*restore_from);
        if (snap.fleet.sessions.size() != config.sessions) {
            throw tools::usage_error("--restore-from snapshot carries " +
                                     std::to_string(snap.fleet.sessions.size()) +
                                     " live sessions, --sessions says " +
                                     std::to_string(config.sessions));
        }
        options.start_tick = static_cast<std::size_t>(snap.fleet.ticks);
        options.start_sequences.reserve(config.sessions);
        for (const ckpt::session_handoff& h : ckpt::session_handoffs(snap)) {
            // Client-mode sessions never churn, so the live ids must be
            // exactly the wire ids this client sends (0..N-1).
            if (h.session != options.start_sequences.size()) {
                throw tools::usage_error(
                    "--restore-from snapshot has churned session ids; "
                    "client mode replays sessions 0..N-1 only");
            }
            options.start_sequences.push_back(h.next_sequence);
        }
    }

    const net::loadgen_client_report report =
        net::run_loadgen_client(config, *where, options);
    std::fputs(report.deterministic_summary().c_str(), stdout);
    std::printf("wall_seconds: %.3f\n", report.wall_seconds);
    const double samples_per_second =
        report.wall_seconds > 0.0
            ? static_cast<double>(report.samples_offered) / report.wall_seconds
            : 0.0;
    std::printf("throughput: %.0f samples/s over the wire\n", samples_per_second);
    return 0;
}

int run(const util::arg_parser& args) {
    if (args.option("connections")) {
        throw tools::usage_error("--connections applies to --client mode only");
    }
    // Explicit --simd wins over the FALLSENSE_SIMD environment override;
    // without the flag, whatever the environment resolved stays in force.
    if (args.option("simd")) {
        nn::set_simd_mode(tools::simd_mode_option(args, "simd", nn::simd_mode::scalar));
    }
    serve::loadgen_config config;
    config.sessions = tools::count_option(args, "sessions", 64);
    config.ticks = tools::count_option(args, "ticks", 1000);
    config.seed = args.option("seed")
                      ? static_cast<std::uint64_t>(tools::integer_option(args, "seed", 42))
                      : util::env_seed();
    config.shards = tools::count_option(args, "shards", 1);
    config.mode = tools::score_mode_option(args, "score-mode", serve::score_mode::fused);
    config.swap_after_ticks = tools::count_option(args, "swap-after", 0);
    config.feed_rate = tools::count_option(args, "feed-rate", 1);
    config.churn_every_ticks = tools::count_option(args, "churn-every", 0);
    config.engine.queue_capacity = tools::count_option(args, "queue-capacity", 64);
    config.engine.samples_per_tick = tools::count_option(args, "samples-per-tick", 1);
    config.engine.max_samples_per_tick =
        tools::count_option(args, "max-samples-per-tick", 0);
    config.engine.drain_watermark = tools::count_option(args, "drain-watermark", 0);
    config.engine.policy =
        tools::drop_policy_option(args, "drop-policy", serve::drop_policy::drop_oldest);

    const double window_ms = tools::number_option(args, "window-ms", 400.0);
    config.engine.detector.window_samples =
        static_cast<std::size_t>(window_ms * config.engine.detector.sample_rate_hz / 1000.0);
    config.engine.detector.threshold = tools::number_option(args, "threshold", 0.5);
    config.engine.detector.consecutive_required = tools::count_option(args, "consecutive", 1);

    config.scorer.backend = args.has_flag("int8") ? serve::scorer_backend::int8
                                                  : serve::scorer_backend::float32;
    config.scorer.seed = config.seed;
    config.scorer.weights_path = args.option_or("weights", "");

    // Naming a scenario implies evaluating it; --stream-eval evaluates
    // the default baseline traffic.
    config.scenario = tools::scenario_option(args, "scenario", "baseline");
    config.stream_eval = args.has_flag("stream-eval") || args.option("scenario").has_value();
    config.eval_config.sample_rate_hz = config.engine.detector.sample_rate_hz;
    config.eval_config.detection_grace_s =
        tools::number_option(args, "grace-ms",
                             config.eval_config.detection_grace_s * 1000.0) /
        1000.0;
    config.eval_config.cost_ratios =
        tools::number_list_option(args, "cost-ratios", config.eval_config.cost_ratios);
    if (!config.stream_eval && (args.option("cost-ratios") || args.option("grace-ms"))) {
        throw tools::usage_error(
            "--cost-ratios/--grace-ms tune the evaluator; add --scenario NAME "
            "or --stream-eval");
    }

    // Checkpointing: serve stays codec-free, so the tool supplies the
    // ckpt:: lambdas the loadgen hooks call (docs/checkpoint.md).
    config.snapshot_every_ticks = tools::count_option(args, "snapshot-every", 0);
    const auto snapshot_path = args.option("snapshot-path");
    if (config.snapshot_every_ticks > 0) {
        if (!snapshot_path) {
            throw tools::usage_error("--snapshot-every needs --snapshot-path FILE");
        }
        config.snapshot_sink = [path = *snapshot_path](const serve::fleet_router& fleet) {
            ckpt::snapshot_to_file(fleet, path);
        };
    } else if (snapshot_path) {
        throw tools::usage_error("--snapshot-path needs --snapshot-every N");
    }
    if (const auto restore_from = args.option("restore-from")) {
        config.restore = [path = *restore_from](serve::fleet_router& fleet) {
            ckpt::restore_from_file(fleet, path);
        };
    }

    const serve::loadgen_report report = serve::run_loadgen(config);
    std::fputs(report.deterministic_summary().c_str(), stdout);
    std::printf("wall_seconds: %.3f\n", report.wall_seconds);
    std::printf("throughput: %.0f ticks/s, %.0f session-ticks/s, %.0f windows/s\n",
                report.ticks_per_second(), report.session_ticks_per_second(),
                report.windows_per_second());
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    util::arg_parser args;
    for (const char* opt : k_config_options) args.add_option(opt);
    args.add_option("metrics-json");
    args.add_flag("metrics-timings");
    args.add_flag("int8");
    args.add_flag("stream-eval");
    args.add_flag("list-scenarios");
    try {
        try {
            args.parse(argc, argv, 1);
        } catch (const std::invalid_argument& e) {
            // Unknown flags / missing values are usage errors too.
            throw tools::usage_error(e.what());
        }
        if (args.has_flag("list-scenarios")) {
            for (const std::string& name : data::list_profiles()) {
                const data::scenario_profile profile = data::make_profile(name);
                std::printf("%s: %s\n", profile.name.c_str(), profile.summary.c_str());
            }
            return 0;
        }
        const auto metrics_json = args.option("metrics-json");
        if (metrics_json) obs::set_enabled(true);

        const int rc = args.option("client") ? run_client(args) : run(args);

        if (metrics_json) {
            obs::run_manifest manifest;
            manifest.command = "loadgen";
            for (const char* opt : k_config_options) {
                const auto value = args.option(opt);
                if (!value) continue;
                // --simd echoes the RESOLVED backend (scalar / neon /
                // avx2-fma), not the requested mode; omitted without the
                // flag so env-only runs stay byte-diffable.
                if (std::string(opt) == "simd") {
                    manifest.config.emplace_back(opt, nn::active_simd_backend_name());
                } else {
                    manifest.config.emplace_back(opt, *value);
                }
            }
            if (args.has_flag("int8")) manifest.config.emplace_back("int8", "1");
            manifest.seed = args.option("seed")
                                ? static_cast<std::uint64_t>(args.integer_or("seed", 42))
                                : util::env_seed();
            manifest.scale = util::run_scale_name(util::env_run_scale());
            obs::manifest_options options;
            options.include_timings = args.has_flag("metrics-timings");
            obs::write_manifest_file(*metrics_json, manifest, obs::snapshot(), options);
            std::printf("metrics manifest -> %s\n", metrics_json->c_str());
        }
        return rc;
    } catch (const tools::usage_error& e) {
        std::fprintf(stderr, "fallsense_loadgen: %s\n", e.what());
        return usage();
    } catch (const std::exception& e) {
        std::fprintf(stderr, "fallsense_loadgen: %s\n", e.what());
        return 1;
    }
}
