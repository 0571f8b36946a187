#include "locble/ml/metrics.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace locble::ml {

ClassificationReport evaluate_classification(const std::vector<int>& truth,
                                             const std::vector<int>& predicted) {
    if (truth.size() != predicted.size())
        throw std::invalid_argument("evaluate_classification: size mismatch");
    if (truth.empty())
        throw std::invalid_argument("evaluate_classification: empty input");
    int k = 0;
    for (std::size_t i = 0; i < truth.size(); ++i)
        k = std::max({k, truth[i] + 1, predicted[i] + 1});

    // Labels are class indices (non-negative); k counts the classes.
    const auto n = static_cast<std::size_t>(k);
    ClassificationReport r;
    r.confusion.assign(n, std::vector<std::size_t>(n, 0));
    std::size_t correct = 0;
    for (std::size_t i = 0; i < truth.size(); ++i) {
        r.confusion[static_cast<std::size_t>(truth[i])]
                   [static_cast<std::size_t>(predicted[i])]++;
        if (truth[i] == predicted[i]) ++correct;
    }
    r.accuracy = static_cast<double>(correct) / static_cast<double>(truth.size());

    r.precision.assign(n, 0.0);
    r.recall.assign(n, 0.0);
    r.f1.assign(n, 0.0);
    for (std::size_t c = 0; c < n; ++c) {
        std::size_t tp = r.confusion[c][c];
        std::size_t pred_c = 0, true_c = 0;
        for (std::size_t o = 0; o < n; ++o) {
            pred_c += r.confusion[o][c];
            true_c += r.confusion[c][o];
        }
        r.precision[c] =
            pred_c ? static_cast<double>(tp) / static_cast<double>(pred_c) : 0.0;
        r.recall[c] =
            true_c ? static_cast<double>(tp) / static_cast<double>(true_c) : 0.0;
        const double denom = r.precision[c] + r.recall[c];
        r.f1[c] = denom > 0.0 ? 2.0 * r.precision[c] * r.recall[c] / denom : 0.0;
        r.macro_precision += r.precision[c];
        r.macro_recall += r.recall[c];
        r.macro_f1 += r.f1[c];
    }
    r.macro_precision /= k;
    r.macro_recall /= k;
    r.macro_f1 /= k;
    return r;
}

std::string ClassificationReport::str(const std::vector<std::string>& class_names) const {
    std::ostringstream os;
    os.setf(std::ios::fixed);
    os.precision(3);
    const auto k = confusion.size();
    os << "accuracy " << accuracy << ", macro precision " << macro_precision
       << ", macro recall " << macro_recall << ", macro F1 " << macro_f1 << '\n';
    for (std::size_t c = 0; c < k; ++c) {
        const std::string name =
            c < class_names.size() ? class_names[c] : "class " + std::to_string(c);
        os << "  " << name << ": precision " << precision[c] << " recall " << recall[c]
           << " f1 " << f1[c] << '\n';
    }
    return os.str();
}

}  // namespace locble::ml
