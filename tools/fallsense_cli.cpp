// fallsense — command-line interface to the library.
//
//   fallsense generate --out DIR [--dataset merged|kfall|protechto]
//                      [--scale tiny|quick|full] [--seed N]
//   fallsense train    --data DIR --out weights.fsnn [--window-ms 400]
//                      [--epochs 30] [--seed N]
//   fallsense evaluate --data DIR --weights weights.fsnn [--window-ms 400]
//                      [--threshold 0.5]
//   fallsense deploy   --weights weights.fsnn --calib DIR --out blob.bin
//                      [--window-ms 400] [--c-array NAME]
//   fallsense replay   --file trial.csv --weights weights.fsnn
//                      [--window-ms 400] [--threshold 0.5]
//   fallsense serve    [--sessions 64] [--ticks 1000] [--seed N]
//                      [--shards 1] [--score-mode fused|per_shard]
//                      [--swap-after 0]
//                      [--window-ms 400] [--threshold 0.5]
//                      [--feed-rate 1] [--samples-per-tick 1]
//                      [--max-samples-per-tick 0] [--drain-watermark 0]
//                      [--queue-capacity 64] [--drop-policy oldest|reject]
//                      [--churn-every 0] [--int8] [--weights weights.fsnn]
//                      [--snapshot-every N --snapshot-path FILE]
//                      [--restore-from FILE]
//   fallsense serve --listen [HOST:]PORT [engine/scorer flags as above]
//                      network front-end: accepts wire-protocol clients
//                      (docs/wire_protocol.md), ticks on client tick
//                      frames, answers reject-newest saturation with
//                      queue-full status frames; traffic flags
//                      (--sessions/--ticks/--feed-rate/--churn-every)
//                      belong to fallsense_loadgen --client.
//                      --snapshot-every/--snapshot-path checkpoint the
//                      fleet every N ticks (docs/checkpoint.md);
//                      --restore-from resumes a restarted server and
//                      re-adopts the clients' wire sessions
//
// Any command additionally accepts
//   --metrics-json FILE   enable the obs metrics registry and write a run
//                         manifest (docs/observability.md) when done
//   --metrics-timings     include wall/CPU timings, thread count, and
//                         latency histograms in the manifest (these vary
//                         run to run; without them the manifest is
//                         byte-identical for any FALLSENSE_THREADS)
//   --simd scalar|native  select the float GEMM / int8 kernel dispatch
//                         (docs/performance.md); overrides FALLSENSE_SIMD.
//                         Default scalar — the bit-exact reference kernels
//
// Weights files store parameters only; the window size used at training
// time must be passed again (kept explicit rather than guessed).
#include <cstdio>
#include <fstream>
#include <iostream>
#include <set>

#include "ckpt/store.hpp"
#include "core/airbag.hpp"
#include "core/experiment.hpp"
#include "data/dataset_io.hpp"
#include "data/trial_io.hpp"
#include "eval/eval.hpp"
#include "mcu/cost_model.hpp"
#include "mcu/deployment.hpp"
#include "mcu/memory_planner.hpp"
#include "net/server.hpp"
#include "nn/activations.hpp"
#include "nn/serialize.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "quant/quantized_cnn.hpp"
#include "serve/serve.hpp"
#include "tool_common.hpp"
#include "util/args.hpp"
#include "util/env.hpp"

namespace {

using namespace fallsense;

int usage() {
    std::fprintf(stderr,
                 "usage: fallsense <generate|train|evaluate|deploy|replay|serve> [options]\n"
                 "see the header of tools/fallsense_cli.cpp for the full synopsis\n");
    return 2;
}

core::windowing_config windowing_from(const util::arg_parser& args) {
    return core::standard_windowing(args.number_or("window-ms", 400.0));
}

/// Trials of a dataset restricted to standard units (the CLI trains and
/// evaluates in the reference frame; run alignment upstream).
void require_standard_units(const data::dataset& d) {
    for (const data::trial& t : d.trials) {
        if (t.accel_units != data::accel_unit::g ||
            t.gyro_units != data::gyro_unit::rad_per_s) {
            throw std::runtime_error(
                "dataset contains non-standard units; regenerate with --dataset merged "
                "or align it first");
        }
    }
}

int cmd_generate(const util::arg_parser& args) {
    const std::string out = args.option_or("out", "");
    if (out.empty()) throw std::invalid_argument("generate: --out DIR is required");
    const std::string which = args.option_or("dataset", "merged");
    const auto seed = static_cast<std::uint64_t>(args.integer_or("seed", 42));
    const core::experiment_scale scale =
        core::scale_preset(util::parse_run_scale(args.option_or("scale", "quick")));

    data::dataset d;
    if (which == "merged") {
        d = core::make_merged_dataset(scale, seed);
    } else if (which == "kfall") {
        data::dataset_profile p = data::kfall_profile();
        p.n_subjects = scale.kfall_subjects;
        p.tuning = scale.tuning;
        d = data::generate_dataset(p, seed);
    } else if (which == "protechto") {
        data::dataset_profile p = data::protechto_profile();
        p.n_subjects = scale.protechto_subjects;
        p.tuning = scale.tuning;
        d = data::generate_dataset(p, seed);
    } else {
        throw std::invalid_argument("generate: unknown --dataset " + which);
    }
    data::write_dataset_dir(d, out);
    std::printf("wrote %zu trials (%zu falls, %zu subjects) to %s\n", d.trial_count(),
                d.fall_trial_count(), d.subject_ids().size(), out.c_str());
    return 0;
}

int cmd_train(const util::arg_parser& args) {
    const std::string data_dir = args.option_or("data", "");
    const std::string out = args.option_or("out", "");
    if (data_dir.empty() || out.empty()) {
        throw std::invalid_argument("train: --data DIR and --out FILE are required");
    }
    const auto seed = static_cast<std::uint64_t>(args.integer_or("seed", 42));
    const auto epochs = static_cast<std::size_t>(args.integer_or("epochs", 30));
    const core::windowing_config wc = windowing_from(args);
    const std::size_t window = wc.segmentation.window_samples;

    const data::dataset d = data::read_dataset_dir(data_dir);
    require_standard_units(d);

    // Hold out the last ~20 % of subjects for early stopping.
    const std::vector<int> subjects = d.subject_ids();
    const std::size_t holdout = std::max<std::size_t>(1, subjects.size() / 5);
    const std::vector<int> val_subjects(subjects.end() - static_cast<std::ptrdiff_t>(holdout),
                                        subjects.end());
    const std::vector<int> train_subjects(subjects.begin(),
                                          subjects.end() - static_cast<std::ptrdiff_t>(holdout));

    std::vector<data::trial> train_trials;
    for (const data::trial& t : d.trials) {
        if (std::find(train_subjects.begin(), train_subjects.end(), t.subject_id) !=
            train_subjects.end()) {
            train_trials.push_back(t);
        }
    }
    util::rng aug_gen(util::derive_seed(seed, "augment"));
    augment::augment_fall_trials(train_trials, 2, augment::trial_augment_config{}, aug_gen);

    nn::labeled_data train =
        core::to_labeled_data(core::extract_windows(train_trials, wc), window);
    nn::labeled_data val = core::to_labeled_data(
        core::extract_windows(d.trials, wc, &val_subjects), window);
    std::printf("training on %zu windows (%.1f%% falling), validating on %zu\n",
                train.size(), 100.0 * train.positive_fraction(), val.size());

    auto cnn = core::build_fallsense_cnn(window, util::derive_seed(seed, "model"));
    nn::train_config tc;
    tc.max_epochs = epochs;
    tc.early_stop_patience = std::max<std::size_t>(3, epochs / 8);
    const nn::train_history h = nn::fit(*cnn, train, val, tc);
    std::printf("trained %zu epochs (best %zu%s)\n", h.train_loss.size(), h.best_epoch + 1,
                h.stopped_early ? ", early-stopped" : "");
    nn::save_weights_file(*cnn, out);
    std::printf("weights -> %s\n", out.c_str());
    return 0;
}

int cmd_evaluate(const util::arg_parser& args) {
    const std::string data_dir = args.option_or("data", "");
    const std::string weights = args.option_or("weights", "");
    if (data_dir.empty() || weights.empty()) {
        throw std::invalid_argument("evaluate: --data DIR and --weights FILE are required");
    }
    const double threshold = args.number_or("threshold", 0.5);
    const core::windowing_config wc = windowing_from(args);
    const std::size_t window = wc.segmentation.window_samples;

    const data::dataset d = data::read_dataset_dir(data_dir);
    require_standard_units(d);
    auto cnn = core::build_fallsense_cnn(window, 0);
    nn::load_weights_file(*cnn, weights);

    const auto windows = core::extract_windows(d.trials, wc);
    nn::labeled_data batch = core::to_labeled_data(windows, window);
    const std::vector<float> probs = nn::predict_proba(*cnn, batch.features);

    // The segment + event views come from one per-window evaluator built
    // through the factory — the same construction path the loadgen's
    // streaming evaluation uses (eval/evaluator.hpp).
    eval::evaluator_spec spec;
    spec.kind = eval::evaluator_kind::per_window;
    spec.threshold = threshold;
    const std::unique_ptr<eval::evaluator> evaluator = eval::make_evaluator(spec);
    evaluator->add_segments(core::to_segment_records(windows, probs));
    const eval::evaluation_report evaluated = evaluator->finish();
    std::printf("segments (%zu): %s, AUC %.4f\n", windows.size(),
                eval::to_string(*evaluated.classification).c_str(),
                eval::roc_auc(probs, batch.labels));

    const eval::event_analysis& events = *evaluated.events;
    std::printf("events: %.2f%% falls missed, %.2f%% ADL false alarms "
                "(red %.2f%%, green %.2f%%)\n",
                events.fall_miss_percent_avg, events.adl_false_percent_avg,
                events.red_adl_false_percent, events.green_adl_false_percent);
    return 0;
}

int cmd_deploy(const util::arg_parser& args) {
    const std::string weights = args.option_or("weights", "");
    const std::string calib_dir = args.option_or("calib", "");
    const std::string out = args.option_or("out", "");
    if (weights.empty() || calib_dir.empty() || out.empty()) {
        throw std::invalid_argument(
            "deploy: --weights FILE, --calib DIR and --out FILE are required");
    }
    const core::windowing_config wc = windowing_from(args);
    const std::size_t window = wc.segmentation.window_samples;

    auto cnn = core::build_fallsense_cnn(window, 0);
    nn::load_weights_file(*cnn, weights);
    const data::dataset calib = data::read_dataset_dir(calib_dir);
    require_standard_units(calib);
    nn::labeled_data calib_data =
        core::to_labeled_data(core::extract_windows(calib.trials, wc), window);

    const quant::cnn_spec spec = quant::extract_cnn_spec(*cnn, window);
    const quant::quantized_cnn qmodel(spec, calib_data.features);
    const auto blob = mcu::serialize_deployment_blob(qmodel);

    std::ofstream os(out, std::ios::binary);
    if (!os) throw std::runtime_error("cannot write " + out);
    os.write(reinterpret_cast<const char*>(blob.data()),
             static_cast<std::streamsize>(blob.size()));
    std::printf("blob -> %s (%.2f KiB)\n", out.c_str(),
                static_cast<double>(blob.size()) / 1024.0);

    if (const auto name = args.option("c-array")) {
        const std::string c_path = out + ".c";
        std::ofstream cs(c_path);
        cs << mcu::render_c_array(blob, *name);
        std::printf("C array -> %s\n", c_path.c_str());
    }

    const mcu::device_spec device = mcu::stm32f722();
    const mcu::deployment_plan plan = mcu::plan_deployment(qmodel, device);
    std::printf("%s\n", plan.summary().c_str());
    std::printf("estimated inference: %.2f ms on %s\n",
                mcu::estimate_inference(qmodel, device).milliseconds, device.name);
    return 0;
}

int cmd_replay(const util::arg_parser& args) {
    const std::string file = args.option_or("file", "");
    const std::string weights = args.option_or("weights", "");
    if (file.empty() || weights.empty()) {
        throw std::invalid_argument("replay: --file CSV and --weights FILE are required");
    }
    const double threshold = args.number_or("threshold", 0.5);
    const core::windowing_config wc = windowing_from(args);
    const std::size_t window = wc.segmentation.window_samples;

    auto cnn = core::build_fallsense_cnn(window, 0);
    nn::load_weights_file(*cnn, weights);
    const data::trial t = data::read_trial_csv(file, args.number_or("sample-rate", 100.0));

    core::detector_config dc;
    dc.window_samples = window;
    dc.overlap_fraction = 0.75;
    dc.threshold = threshold;
    dc.sample_rate_hz = t.sample_rate_hz;
    core::streaming_detector detector(dc, [&](std::span<const float> w) {
        const nn::tensor x({1, window, core::k_feature_channels},
                           std::vector<float>(w.begin(), w.end()));
        const nn::tensor logit = cnn->forward(x, false);
        return nn::sigmoid_scalar(logit[0]);
    });

    std::size_t triggers = 0;
    for (std::size_t i = 0; i < t.sample_count(); ++i) {
        if (const auto d = detector.push(t.samples[i])) {
            std::printf("t=%.2fs trigger (confidence %.2f)\n",
                        static_cast<double>(d->sample_index) / t.sample_rate_hz,
                        d->probability);
            ++triggers;
        }
    }
    std::printf("%zu samples, %zu trigger(s)\n", t.sample_count(), triggers);
    return 0;
}

/// serve --listen: the networked front-end.  The same engine/scorer
/// flags as the in-process path configure the fleet, but traffic comes
/// from wire-protocol clients (docs/wire_protocol.md) instead of the
/// loadgen loop — sessions are admitted on first sample frame, ticks
/// are paced by client tick frames, and the run ends on a bye frame.
/// Traffic-shaping flags are client-side and rejected here.
int cmd_serve_listen(const util::arg_parser& args, const net::endpoint& where,
                     serve::loadgen_config config) {
    for (const char* banned : {"sessions", "ticks", "feed-rate", "churn-every"}) {
        if (args.option(banned)) {
            throw tools::usage_error(std::string("--") + banned +
                                     " is traffic-shaping (client-side); pass it to "
                                     "fallsense_loadgen --client instead");
        }
    }
    const std::size_t snapshot_every = tools::count_option(args, "snapshot-every", 0);
    const auto snapshot_path = args.option("snapshot-path");
    if (snapshot_every > 0 && !snapshot_path) {
        throw tools::usage_error("--snapshot-every needs --snapshot-path FILE");
    }
    if (snapshot_every == 0 && snapshot_path) {
        throw tools::usage_error("--snapshot-path needs --snapshot-every N");
    }

    serve::scorer_spec spec = config.scorer;
    spec.window_samples = config.engine.detector.window_samples;

    serve::fleet_config fc;
    fc.engine = config.engine;
    fc.shards = config.shards;
    fc.mode = config.mode;
    serve::fleet_router fleet(fc, serve::make_scorer(spec));

    // --swap-after T hot-swaps between ticks T-1 and T, exactly where
    // the in-process loadgen swaps, so networked and in-process runs
    // stay manifest-identical.  ticks_done counts from the restored
    // checkpoint on a resume, so snapshot cadence and swap timing line
    // up with the uninterrupted run.
    std::uint64_t ticks_done = 0;
    net::ingest_server server(where, fleet, [&](const serve::tick_result&) {
        ++ticks_done;
        if (config.swap_after_ticks > 0 && ticks_done == config.swap_after_ticks) {
            serve::scorer_spec next = spec;
            next.seed = util::derive_seed(spec.seed, "serve/swap");
            fleet.swap_scorer(serve::make_scorer(next));
        }
        if (snapshot_every > 0 && ticks_done % snapshot_every == 0) {
            ckpt::snapshot_to_file(fleet, *snapshot_path);
        }
    });
    if (const auto restore_from = args.option("restore-from")) {
        const ckpt::fleet_snapshot snap = ckpt::restore_from_file(fleet, *restore_from);
        ticks_done = snap.fleet.ticks;
        // Reinstall the scorer generation the snapshot was taken under
        // (no generation bump: the restored counter already carries it).
        if (fleet.swap_generation() > 0) {
            serve::scorer_spec current = spec;
            for (std::uint64_t g = 0; g < fleet.swap_generation(); ++g) {
                current.seed = util::derive_seed(current.seed, "serve/swap");
            }
            fleet.install_scorer(serve::make_scorer(current));
        }
        // Hand the live sessions to the gateway: a reconnecting sender's
        // first sample frame re-adopts its pre-restart router session
        // (wire ids are the router-global ids the loadgen client sends).
        std::vector<net::restored_session> rebinds;
        for (const ckpt::session_handoff& h : ckpt::session_handoffs(snap)) {
            rebinds.push_back({static_cast<std::uint32_t>(h.session), h.session,
                               h.next_sequence});
        }
        server.gateway().restore_wire_sessions(rebinds);
    }
    // The loopback smoke waits for this line before starting the client.
    std::printf("listening on %s:%u\n", where.host.c_str(), server.port());
    std::fflush(stdout);
    server.run();

    const serve::engine_stats totals = fleet.totals();
    const net::gateway_stats& gs = server.gateway().stats();
    std::printf("connections: %llu\nframes_in: %llu\nsamples_in: %llu\n"
                "samples_rejected: %llu\nreject_frames_out: %llu\nticks: %llu\n"
                "windows_scored: %llu\ntriggers: %llu\nswap_generation: %llu\n",
                static_cast<unsigned long long>(gs.connections_opened),
                static_cast<unsigned long long>(gs.frames_in),
                static_cast<unsigned long long>(gs.samples_in),
                static_cast<unsigned long long>(gs.samples_rejected),
                static_cast<unsigned long long>(gs.reject_frames_out),
                static_cast<unsigned long long>(gs.ticks),
                static_cast<unsigned long long>(totals.windows_scored),
                static_cast<unsigned long long>(totals.triggers),
                static_cast<unsigned long long>(fleet.swap_generation()));
    return 0;
}

int cmd_serve(const util::arg_parser& args) {
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
    const core::windowing_config wc = windowing_from(args);
    config.engine.detector.window_samples = wc.segmentation.window_samples;
    config.engine.detector.threshold = tools::number_option(args, "threshold", 0.5);

    config.scorer.backend = args.has_flag("int8") ? serve::scorer_backend::int8
                                                  : serve::scorer_backend::float32;
    config.scorer.seed = config.seed;
    config.scorer.weights_path = args.option_or("weights", "");

    if (const auto listen = args.option("listen")) {
        const auto where = net::parse_endpoint(*listen);
        if (!where) tools::bad_option("--listen", *listen, "[HOST:]PORT");
        return cmd_serve_listen(args, *where, config);
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

/// Options whose values are echoed into the run manifest's config section
/// (the metrics options themselves are not part of the run's config).
constexpr const char* k_config_options[] = {"out",     "dataset",   "scale", "seed",
                                            "data",    "epochs",    "window-ms", "weights",
                                            "threshold", "calib",   "c-array", "file",
                                            "sample-rate", "sessions", "ticks", "feed-rate",
                                            "samples-per-tick", "max-samples-per-tick",
                                            "drain-watermark", "queue-capacity",
                                            "drop-policy", "churn-every", "shards",
                                            "score-mode", "swap-after", "simd", "listen",
                                            "snapshot-every", "snapshot-path",
                                            "restore-from"};

void write_metrics_manifest(const util::arg_parser& args, const std::string& command,
                            const std::string& path) {
    obs::run_manifest run;
    run.command = command;
    for (const char* opt : k_config_options) {
        const auto value = args.option(opt);
        if (!value) continue;
        // --simd records the backend the dispatcher RESOLVED on this host
        // (scalar / neon / avx2-fma), not the requested mode —
        // the manifest names what actually ran.  Without the flag the
        // entry is omitted entirely, so manifests from runs differing
        // only in the FALLSENSE_SIMD environment stay byte-identical
        // (the int8 scoring path is exact in every mode; CI diffs on it).
        if (std::string(opt) == "simd") {
            run.config.emplace_back(opt, nn::active_simd_backend_name());
        } else {
            run.config.emplace_back(opt, *value);
        }
    }
    run.seed = args.option("seed")
                   ? static_cast<std::uint64_t>(args.integer_or("seed", 42))
                   : util::env_seed();
    run.scale = args.option_or("scale", util::run_scale_name(util::env_run_scale()));
    obs::manifest_options options;
    options.include_timings = args.has_flag("metrics-timings");
    obs::write_manifest_file(path, run, obs::snapshot(), options);
    std::printf("metrics manifest -> %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) return usage();
    const std::string command = argv[1];
    util::arg_parser args;
    for (const char* opt : k_config_options) args.add_option(opt);
    args.add_option("metrics-json");
    args.add_flag("metrics-timings");
    args.add_flag("int8");
    try {
        try {
            args.parse(argc, argv, 2);
        } catch (const std::invalid_argument& e) {
            // Unknown flags / missing values are usage errors too.
            throw tools::usage_error(e.what());
        }
        const auto metrics_json = args.option("metrics-json");
        if (metrics_json) obs::set_enabled(true);
        // Explicit --simd wins over the FALLSENSE_SIMD environment
        // override; without the flag the environment's choice stands.
        if (args.option("simd")) {
            nn::set_simd_mode(tools::simd_mode_option(args, "simd", nn::simd_mode::scalar));
        }

        int rc = 2;
        if (command == "generate") rc = cmd_generate(args);
        else if (command == "train") rc = cmd_train(args);
        else if (command == "evaluate") rc = cmd_evaluate(args);
        else if (command == "deploy") rc = cmd_deploy(args);
        else if (command == "replay") rc = cmd_replay(args);
        else if (command == "serve") rc = cmd_serve(args);
        else return usage();

        if (metrics_json) write_metrics_manifest(args, command, *metrics_json);
        return rc;
    } catch (const tools::usage_error& e) {
        std::fprintf(stderr, "fallsense %s: %s\n", command.c_str(), e.what());
        return usage();
    } catch (const std::exception& e) {
        std::fprintf(stderr, "fallsense %s: %s\n", command.c_str(), e.what());
        return 1;
    }
}
