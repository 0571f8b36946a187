// Sec. 4.1 reproduction: EnvAware's 3-class environment classification.
// The paper reports 94.7% precision / 94.5% recall with a linear SVM that
// "outperforms other algorithms in the ensemble" (decision trees, forests).

#include <cstdio>

#include "bench_util.hpp"
#include "locble/common/table.hpp"
#include "locble/core/envaware.hpp"
#include "locble/ml/decision_tree.hpp"

using namespace locble;

int main(int argc, char** argv) {
    const auto opt = bench::parse_options(argc, argv);
    bench::Runner runner("envaware_classifier", opt, 20170404);

    bench::print_header("Sec. 4.1 — EnvAware classifier",
                        "94.7% precision / 94.5% recall; SVM beats the other "
                        "ensemble members");

    // One shared corpus + split (serial: the dataset is the experiment's
    // fixed input); the three ensemble members then train in parallel.
    locble::Rng rng = locble::Rng::for_stream(runner.master_seed(), 0);
    core::EnvDatasetConfig dcfg;
    dcfg.traces_per_class = 120;
    const ml::Dataset data = core::generate_env_dataset(dcfg, rng);

    locble::Rng split_rng = locble::Rng::for_stream(runner.master_seed(), 1);
    auto [train, test] = ml::train_test_split(data, 0.3, split_rng);

    const auto reports =
        runner.run(3, runner.sweep_seed(1), [&](int which, locble::Rng&) {
            if (which == 0) {
                // Linear SVM (the shipped EnvAware configuration).
                core::EnvAware env;
                env.train(train);
                std::vector<int> pred;
                for (const auto& row : test.x)
                    pred.push_back(env.svm().predict(env.scaler().transform(row)));
                return ml::evaluate_classification(test.y, pred);
            }
            if (which == 1) {
                ml::DecisionTree tree;
                tree.fit(train);
                return ml::evaluate_classification(test.y, tree.predict(test));
            }
            ml::RandomForest forest;
            forest.fit(train);
            return ml::evaluate_classification(test.y, forest.predict(test));
        });

    const char* names[] = {"linear SVM (EnvAware)", "decision tree", "random forest"};
    const char* keys[] = {"svm", "decision_tree", "random_forest"};
    TextTable table({"classifier", "accuracy", "macro precision", "macro recall"});
    for (std::size_t i = 0; i < 3; ++i) {
        table.add_row(names[i], {reports[i].accuracy, reports[i].macro_precision,
                                 reports[i].macro_recall},
                      3);
        runner.report().add_scalar(std::string(keys[i]) + "_accuracy",
                                   reports[i].accuracy);
        runner.report().add_scalar(std::string(keys[i]) + "_macro_precision",
                                   reports[i].macro_precision);
        runner.report().add_scalar(std::string(keys[i]) + "_macro_recall",
                                   reports[i].macro_recall);
    }

    std::printf("%s\n", table.str().c_str());
    std::printf("per-class report (SVM):\n%s\n",
                reports[0].str({"LOS", "p-LOS", "NLOS"}).c_str());
    std::printf("paper reference: precision 0.947, recall 0.945\n");
    return runner.finish();
}
