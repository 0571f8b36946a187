#include "locble/ml/knn.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace locble::ml {

void KnnClassifier::fit(const Dataset& data) {
    data.validate();
    if (data.size() == 0) throw std::invalid_argument("KnnClassifier: empty dataset");
    if (cfg_.k == 0) throw std::invalid_argument("KnnClassifier: k must be > 0");
    train_ = data;
    num_classes_ = data.num_classes();
}

int KnnClassifier::predict(const std::vector<double>& features) const {
    if (!fitted()) throw std::logic_error("KnnClassifier: predict before fit");
    if (features.size() != train_.dims())
        throw std::invalid_argument("KnnClassifier: feature dimension mismatch");

    std::vector<std::pair<double, int>> dist;  // (distance^2, label)
    dist.reserve(train_.size());
    for (std::size_t i = 0; i < train_.size(); ++i) {
        double d2 = 0.0;
        for (std::size_t j = 0; j < features.size(); ++j) {
            const double diff = features[j] - train_.x[i][j];
            d2 += diff * diff;
        }
        dist.emplace_back(d2, train_.y[i]);
    }
    const std::size_t k = std::min(cfg_.k, dist.size());
    std::partial_sort(dist.begin(), dist.begin() + static_cast<long>(k), dist.end());

    std::vector<double> votes(static_cast<std::size_t>(num_classes_), 0.0);
    for (std::size_t i = 0; i < k; ++i) {
        const double w =
            cfg_.distance_weighted ? 1.0 / (std::sqrt(dist[i].first) + 1e-9) : 1.0;
        votes[static_cast<std::size_t>(dist[i].second)] += w;
    }
    return static_cast<int>(std::max_element(votes.begin(), votes.end()) -
                            votes.begin());
}

std::vector<int> KnnClassifier::predict(const Dataset& data) const {
    std::vector<int> out;
    out.reserve(data.size());
    for (const auto& row : data.x) out.push_back(predict(row));
    return out;
}

}  // namespace locble::ml
