#include "nn/trainer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <span>

#include "nn/activations.hpp"
#include "nn/dense.hpp"
#include "nn/optimizer.hpp"
#include "nn/sequential.hpp"
#include "nn/simd.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace fallsense::nn {
namespace {

/// Linearly separable 2-D toy problem: label = 1 iff x0 + x1 > 0.
labeled_data make_toy_data(std::size_t n, std::uint64_t seed, double positive_fraction = 0.5) {
    util::rng gen(seed);
    labeled_data data;
    data.features = tensor({n, 2});
    for (std::size_t i = 0; i < n; ++i) {
        const bool positive = gen.uniform() < positive_fraction;
        const double cx = positive ? 1.0 : -1.0;
        data.features.at({i, 0}) = static_cast<float>(gen.normal(cx, 0.4));
        data.features.at({i, 1}) = static_cast<float>(gen.normal(cx, 0.4));
        data.labels.push_back(positive ? 1.0f : 0.0f);
    }
    return data;
}

std::unique_ptr<sequential> make_toy_model(std::uint64_t seed) {
    util::rng gen(seed);
    auto net = std::make_unique<sequential>();
    net->emplace<dense>(2, 8, gen, true, "d0");
    net->emplace<relu>();
    net->emplace<dense>(8, 1, gen, false, "out");
    return net;
}

TEST(TrainerTest, LearnsLinearlySeparableProblem) {
    const labeled_data train = make_toy_data(400, 1);
    const labeled_data val = make_toy_data(100, 2);
    auto net = make_toy_model(3);
    train_config tc;
    tc.max_epochs = 60;
    tc.batch_size = 32;
    tc.early_stop_patience = 15;
    const train_history h = fit(*net, train, val, tc);

    const labeled_data test = make_toy_data(200, 4);
    const std::vector<float> probs = predict_proba(*net, test.features);
    std::size_t correct = 0;
    for (std::size_t i = 0; i < probs.size(); ++i) {
        correct += ((probs[i] >= 0.5f) == (test.labels[i] > 0.5f)) ? 1 : 0;
    }
    EXPECT_GT(static_cast<double>(correct) / probs.size(), 0.95);
    EXPECT_FALSE(h.train_loss.empty());
    EXPECT_LT(h.train_loss.back(), h.train_loss.front());
}

TEST(TrainerTest, EarlyStoppingTriggersAndRestoresBest) {
    // Validation labels inverted w.r.t. the training distribution: the more
    // the model learns, the worse validation gets, so early stopping must
    // fire after exactly `patience` non-improving epochs and the best epoch
    // stays near the start.
    const labeled_data train = make_toy_data(200, 5);
    labeled_data val = make_toy_data(60, 6);
    for (float& y : val.labels) y = 1.0f - y;
    auto net = make_toy_model(7);
    train_config tc;
    tc.max_epochs = 200;
    tc.early_stop_patience = 5;
    const train_history h = fit(*net, train, val, tc);
    EXPECT_TRUE(h.stopped_early);
    EXPECT_LT(h.train_loss.size(), 200u);
    EXPECT_LE(h.best_epoch, h.train_loss.size() - 1);
    EXPECT_EQ(h.train_loss.size(), h.best_epoch + 1 + tc.early_stop_patience);
    // Restored weights must reproduce the recorded best validation loss.
    const std::vector<float> probs = predict_proba(*net, val.features);
    double restored_loss = 0.0;
    for (std::size_t i = 0; i < probs.size(); ++i) {
        const double p = std::clamp(static_cast<double>(probs[i]), 1e-7, 1.0 - 1e-7);
        const double y = val.labels[i];
        const double w = (y > 0.5) ? h.weight_positive : h.weight_negative;
        restored_loss += -w * (y * std::log(p) + (1.0 - y) * std::log(1.0 - p));
    }
    restored_loss /= static_cast<double>(probs.size());
    EXPECT_NEAR(restored_loss, h.val_loss[h.best_epoch], 1e-3);
}

TEST(TrainerTest, ClassWeightsComputedFromImbalance) {
    const std::vector<float> labels{1.0f, 0.0f, 0.0f, 0.0f};
    const auto [wp, wn] = balanced_class_weights(labels);
    EXPECT_DOUBLE_EQ(wp, 4.0 / 2.0);
    EXPECT_DOUBLE_EQ(wn, 4.0 / 6.0);
}

TEST(TrainerTest, ClassWeightsDegenerateCases) {
    const std::vector<float> all_neg{0.0f, 0.0f};
    const auto [wp, wn] = balanced_class_weights(all_neg);
    EXPECT_DOUBLE_EQ(wp, 1.0);
    EXPECT_DOUBLE_EQ(wn, 1.0);
}

TEST(TrainerTest, OutputBiasInitMatchesPrior) {
    // 10% positives -> bias = log(0.1/0.9).
    labeled_data train = make_toy_data(200, 8, 0.1);
    auto net = make_toy_model(9);
    train_config tc;
    tc.max_epochs = 1;
    tc.early_stop_patience = 0;
    fit(*net, train, labeled_data{tensor({0, 2}), {}}, tc);
    // After one epoch the bias has moved, so instead verify via a fresh
    // model with 0 epochs... max_epochs must be >0; use lr ~ 0.
    auto net2 = make_toy_model(9);
    train_config tc2;
    tc2.max_epochs = 1;
    tc2.learning_rate = 1e-12;
    tc2.early_stop_patience = 0;
    const double p = train.positive_fraction();
    fit(*net2, train, labeled_data{tensor({0, 2}), {}}, tc2);
    const auto params = net2->parameters();
    const parameter* out_bias = params.back();
    ASSERT_EQ(out_bias->value.size(), 1u);
    EXPECT_NEAR(out_bias->value[0], std::log(p / (1.0 - p)), 0.05);
}

TEST(TrainerTest, GatherRowsSelects) {
    tensor t({3, 2}, {1, 2, 3, 4, 5, 6});
    const std::vector<std::size_t> idx{2, 0};
    const tensor g = gather_rows(t, idx);
    EXPECT_EQ(g.shape(), (shape_t{2, 2}));
    EXPECT_FLOAT_EQ(g.at({0, 0}), 5.0f);
    EXPECT_FLOAT_EQ(g.at({1, 1}), 2.0f);
}

TEST(TrainerTest, GatherRowsRangeChecked) {
    tensor t({2, 2});
    const std::vector<std::size_t> idx{5};
    EXPECT_THROW(gather_rows(t, idx), std::invalid_argument);
}

TEST(TrainerTest, SnapshotRestoreRoundTrip) {
    auto net = make_toy_model(10);
    const std::vector<tensor> snap = snapshot_parameters(*net);
    for (parameter* p : net->parameters()) p->value.fill(0.0f);
    restore_parameters(*net, snap);
    const auto params = net->parameters();
    for (std::size_t i = 0; i < params.size(); ++i) {
        for (std::size_t j = 0; j < params[i]->value.size(); ++j) {
            EXPECT_FLOAT_EQ(params[i]->value[j], snap[i][j]);
        }
    }
}

TEST(TrainerTest, TrainingIsSeedDeterministic) {
    const labeled_data train = make_toy_data(100, 11);
    auto n1 = make_toy_model(12);
    auto n2 = make_toy_model(12);
    train_config tc;
    tc.max_epochs = 5;
    tc.shuffle_seed = 77;
    fit(*n1, train, {}, tc);
    fit(*n2, train, {}, tc);
    const auto p1 = n1->parameters();
    const auto p2 = n2->parameters();
    for (std::size_t i = 0; i < p1.size(); ++i) {
        for (std::size_t j = 0; j < p1[i]->value.size(); ++j) {
            EXPECT_FLOAT_EQ(p1[i]->value[j], p2[i]->value[j]);
        }
    }
}

TEST(TrainerTest, ValidatesInputs) {
    auto net = make_toy_model(13);
    labeled_data bad;
    bad.features = tensor({2, 2});
    bad.labels = {1.0f};  // count mismatch
    EXPECT_THROW(fit(*net, bad, {}, train_config{}), std::invalid_argument);
}

TEST(TrainerTest, TrainStepMatchesFitEpochLoss) {
    // fit() is now a loop over train_step(); a hand-rolled loop over the
    // same shuffled order must reproduce fit's first-epoch loss exactly.
    const labeled_data train = make_toy_data(96, 14);
    train_config tc;
    tc.max_epochs = 1;
    tc.batch_size = 32;
    tc.use_class_weights = false;
    tc.init_output_bias = false;
    tc.shuffle_seed = 15;
    auto fitted = make_toy_model(16);
    const train_history h = fit(*fitted, train, {}, tc);

    auto manual = make_toy_model(16);
    adam optim(manual->parameters(), tc.learning_rate);
    util::rng shuffler(tc.shuffle_seed);
    std::vector<std::size_t> order(train.size());
    std::iota(order.begin(), order.end(), 0);
    shuffler.shuffle(order);
    train_step_scratch scratch;
    double epoch_loss = 0.0;
    for (std::size_t start = 0; start < order.size(); start += tc.batch_size) {
        const std::size_t count = std::min(tc.batch_size, order.size() - start);
        const std::span<const std::size_t> idx(order.data() + start, count);
        epoch_loss +=
            train_step(*manual, train, idx, 1.0, 1.0, optim, scratch) * count;
    }
    epoch_loss /= static_cast<double>(train.size());
    ASSERT_EQ(h.train_loss.size(), 1u);
    EXPECT_DOUBLE_EQ(h.train_loss[0], epoch_loss);
}

TEST(TrainerTest, TrainStepBitIdenticalAcrossThreadCountsPerBackend) {
    // The full dispatched train step — gather, forward, weighted BCE,
    // backward through gemm_tn_acc, Adam — must leave bit-identical
    // parameters for any FALLSENSE_THREADS, in scalar and native mode.
    struct thread_guard {
        ~thread_guard() { util::set_global_threads(0); }
    } threads;
    const labeled_data data = make_toy_data(64, 17);
    std::vector<std::size_t> idx(32);
    std::iota(idx.begin(), idx.end(), 0);

    auto run = [&](std::size_t thread_count) {
        util::set_global_threads(thread_count);
        auto net = make_toy_model(18);
        adam optim(net->parameters(), 1e-3);
        train_step_scratch scratch;
        for (int step = 0; step < 3; ++step) {
            train_step(*net, data, idx, 1.3, 0.8, optim, scratch);
        }
        return snapshot_parameters(*net);
    };

    const simd_mode saved_mode = active_simd_mode();
    for (const simd_mode mode : {simd_mode::scalar, simd_mode::native}) {
        set_simd_mode(mode);
        const std::vector<tensor> p1 = run(1);
        const std::vector<tensor> p4 = run(4);
        ASSERT_EQ(p1.size(), p4.size());
        for (std::size_t i = 0; i < p1.size(); ++i) {
            for (std::size_t j = 0; j < p1[i].size(); ++j) {
                EXPECT_EQ(p1[i][j], p4[i][j])
                    << active_simd_backend_name() << " parameter " << i
                    << " element " << j;
            }
        }
    }
    set_simd_mode(saved_mode);
}

}  // namespace
}  // namespace fallsense::nn
