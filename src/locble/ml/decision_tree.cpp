#include "locble/ml/decision_tree.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace locble::ml {

namespace {

double gini(const std::vector<std::size_t>& counts, std::size_t total) {
    if (total == 0) return 0.0;
    double g = 1.0;
    for (std::size_t c : counts) {
        const double p = static_cast<double>(c) / static_cast<double>(total);
        g -= p * p;
    }
    return g;
}

/// Class labels are non-negative indices into per-class tallies.
std::size_t class_index(int label) { return static_cast<std::size_t>(label); }

int majority(const std::vector<std::size_t>& counts) {
    return static_cast<int>(std::max_element(counts.begin(), counts.end()) -
                            counts.begin());
}

}  // namespace

int DecisionTree::build(const Dataset& data, std::vector<std::size_t>& rows, int depth,
                        locble::Rng& rng) {
    std::vector<std::size_t> counts(class_index(num_classes_), 0);
    for (std::size_t r : rows) counts[class_index(data.y[r])]++;
    const int node_label = majority(counts);
    const double node_gini = gini(counts, rows.size());

    Node node;
    node.label = node_label;
    const int node_index = static_cast<int>(nodes_.size());
    nodes_.push_back(node);

    const bool pure = node_gini <= 1e-12;
    if (pure || depth >= cfg_.max_depth || rows.size() < cfg_.min_samples_split)
        return node_index;

    // Candidate feature set: all features, or a random subset for forests.
    std::vector<std::size_t> features(data.dims());
    std::iota(features.begin(), features.end(), 0);
    if (cfg_.max_features > 0 && cfg_.max_features < features.size()) {
        std::shuffle(features.begin(), features.end(), rng.engine());
        features.resize(cfg_.max_features);
    }

    double best_impurity = node_gini;
    int best_feature = -1;
    double best_threshold = 0.0;

    std::vector<std::pair<double, int>> sorted;
    sorted.reserve(rows.size());
    for (std::size_t f : features) {
        sorted.clear();
        for (std::size_t r : rows) sorted.emplace_back(data.x[r][f], data.y[r]);
        std::sort(sorted.begin(), sorted.end());

        std::vector<std::size_t> left(class_index(num_classes_), 0);
        std::vector<std::size_t> right = counts;
        for (std::size_t i = 0; i + 1 < sorted.size(); ++i) {
            left[class_index(sorted[i].second)]++;
            right[class_index(sorted[i].second)]--;
            if (sorted[i].first == sorted[i + 1].first) continue;
            const std::size_t nl = i + 1;
            const std::size_t nr = sorted.size() - nl;
            if (nl < cfg_.min_samples_leaf || nr < cfg_.min_samples_leaf) continue;
            const double impurity =
                (static_cast<double>(nl) * gini(left, nl) +
                 static_cast<double>(nr) * gini(right, nr)) /
                static_cast<double>(sorted.size());
            if (impurity + 1e-12 < best_impurity) {
                best_impurity = impurity;
                best_feature = static_cast<int>(f);
                best_threshold = 0.5 * (sorted[i].first + sorted[i + 1].first);
            }
        }
    }

    if (best_feature < 0) return node_index;

    const auto split = static_cast<std::size_t>(best_feature);
    std::vector<std::size_t> left_rows, right_rows;
    for (std::size_t r : rows) {
        if (data.x[r][split] <= best_threshold)
            left_rows.push_back(r);
        else
            right_rows.push_back(r);
    }
    if (left_rows.empty() || right_rows.empty()) return node_index;

    // build() appends to nodes_, so index afresh after each call.
    const auto at = static_cast<std::size_t>(node_index);
    nodes_[at].feature = best_feature;
    nodes_[at].threshold = best_threshold;
    nodes_[at].left = build(data, left_rows, depth + 1, rng);
    nodes_[at].right = build(data, right_rows, depth + 1, rng);
    return node_index;
}

void DecisionTree::fit(const Dataset& data) {
    std::vector<std::size_t> rows(data.size());
    std::iota(rows.begin(), rows.end(), 0);
    fit(data, rows);
}

void DecisionTree::fit(const Dataset& data, const std::vector<std::size_t>& rows) {
    data.validate();
    if (rows.empty()) throw std::invalid_argument("DecisionTree: empty training set");
    num_classes_ = data.num_classes();
    nodes_.clear();
    locble::Rng rng(cfg_.seed);
    std::vector<std::size_t> mutable_rows = rows;
    build(data, mutable_rows, 0, rng);
}

int DecisionTree::predict(const std::vector<double>& features) const {
    if (!fitted()) throw std::logic_error("DecisionTree: predict before fit");
    std::size_t i = 0;
    while (nodes_[i].feature >= 0) {
        const auto f = static_cast<std::size_t>(nodes_[i].feature);
        if (f >= features.size())
            throw std::invalid_argument("DecisionTree: feature dimension mismatch");
        const int next = features[f] <= nodes_[i].threshold ? nodes_[i].left
                                                            : nodes_[i].right;
        i = static_cast<std::size_t>(next);
    }
    return nodes_[i].label;
}

std::vector<int> DecisionTree::predict(const Dataset& data) const {
    std::vector<int> out;
    out.reserve(data.size());
    for (const auto& row : data.x) out.push_back(predict(row));
    return out;
}

void RandomForest::fit(const Dataset& data) {
    data.validate();
    if (data.size() == 0) throw std::invalid_argument("RandomForest: empty dataset");
    num_classes_ = data.num_classes();
    trees_.clear();
    locble::Rng rng(cfg_.seed);

    DecisionTree::Config tree_cfg = cfg_.tree;
    if (tree_cfg.max_features == 0) {
        tree_cfg.max_features = static_cast<std::size_t>(
            std::max(1.0, std::floor(std::sqrt(static_cast<double>(data.dims())))));
    }

    for (std::size_t t = 0; t < cfg_.num_trees; ++t) {
        std::vector<std::size_t> bootstrap(data.size());
        for (auto& r : bootstrap)
            r = static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(data.size()) - 1));
        tree_cfg.seed = rng.engine()();
        DecisionTree tree(tree_cfg);
        tree.fit(data, bootstrap);
        trees_.push_back(std::move(tree));
    }
}

int RandomForest::predict(const std::vector<double>& features) const {
    if (!fitted()) throw std::logic_error("RandomForest: predict before fit");
    std::vector<std::size_t> votes(class_index(num_classes_), 0);
    for (const auto& tree : trees_) votes[class_index(tree.predict(features))]++;
    return static_cast<int>(std::max_element(votes.begin(), votes.end()) - votes.begin());
}

std::vector<int> RandomForest::predict(const Dataset& data) const {
    std::vector<int> out;
    out.reserve(data.size());
    for (const auto& row : data.x) out.push_back(predict(row));
    return out;
}

}  // namespace locble::ml
