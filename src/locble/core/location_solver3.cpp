#include "locble/core/location_solver3.hpp"

#include <algorithm>
#include <cmath>

#include "locble/common/linalg.hpp"
#include "locble/core/solver_kernels.hpp"

namespace locble::core {

namespace {

constexpr double kLog10 = 2.302585092994046;

using KernelMode = LocationSolver::Config::KernelMode;
constexpr std::size_t kW = kernels::kLaneWidth;

/// SoA mirror of a FusedSample3 span (the 3-D pack is per-solve: this
/// solver is a cold batch API, not the serve hot path, so the arrays are
/// plain locals reserved once).
struct Soa3 {
    std::vector<double> p, q, r, rssi;

    explicit Soa3(const std::vector<FusedSample3>& samples) {
        const std::size_t n = samples.size();
        p.resize(n);
        q.resize(n);
        r.resize(n);
        rssi.resize(n);
        for (std::size_t i = 0; i < n; ++i) {
            p[i] = samples[i].p;
            q[i] = samples[i].q;
            r[i] = samples[i].r;
            rssi[i] = samples[i].rssi;
        }
    }
};

/// Projected Gauss-Newton over (x, h, z, Gamma) at fixed exponent; z is
/// frozen when the walk carries no vertical excitation. The per-iteration
/// normal-equation sums come from the 3-D lane kernel (or its AoS
/// scalar-reference twin — bit-identical by the solver_kernels.hpp
/// contract); the dim x dim system lives in flat stack arrays and is
/// solved in place, so the refinement performs no heap allocation.
void refine3(const FusedSample3* samples, const Soa3& soa, std::size_t count,
             KernelMode mode, double exponent, locble::Vec3& location,
             double& gamma, bool solve_z, double gamma_min, double gamma_max) {
    constexpr int kIterations = 14;
    const std::size_t dim = solve_z ? 4 : 3;
    double x = location.x, h = location.y, z = location.z, g = gamma;
    const double c = -10.0 * exponent / kLog10;
    double jtj[16], jtr[4], delta[4];
    for (int it = 0; it < kIterations; ++it) {
        kernels::GnSums3 sums;
        if (mode == KernelMode::lanes)
            kernels::gn3_lanes<kW>(soa.p.data(), soa.q.data(), soa.r.data(),
                                   soa.rssi.data(), count, x, h, z, g, exponent, c,
                                   solve_z, sums);
        else
            kernels::gn3_ref(samples, count, x, h, z, g, exponent, c, solve_z,
                             sums);
        if (solve_z) {
            // Rows (x, h, z, Gamma); jacobian (jx, jy, jz, 1).
            jtj[0] = sums.a_xx;
            jtj[1] = sums.a_xy;
            jtj[2] = sums.a_xz;
            jtj[3] = sums.a_x;
            jtj[5] = sums.a_yy;
            jtj[6] = sums.a_yz;
            jtj[7] = sums.a_y;
            jtj[10] = sums.a_zz;
            jtj[11] = sums.a_z;
            jtj[15] = sums.n;
            jtr[0] = sums.r_x;
            jtr[1] = sums.r_y;
            jtr[2] = sums.r_z;
            jtr[3] = sums.r_g;
        } else {
            // Rows (x, h, Gamma); dz still enters the distance.
            jtj[0] = sums.a_xx;
            jtj[1] = sums.a_xy;
            jtj[2] = sums.a_x;
            jtj[4] = sums.a_yy;
            jtj[5] = sums.a_y;
            jtj[8] = sums.n;
            jtr[0] = sums.r_x;
            jtr[1] = sums.r_y;
            jtr[2] = sums.r_g;
        }
        for (std::size_t a = 0; a < dim; ++a)
            for (std::size_t b = 0; b < a; ++b)
                jtj[a * dim + b] = jtj[b * dim + a];
        const double damping = 1e-6 + (it < 3 ? 0.1 : 0.0);
        for (std::size_t a = 0; a < dim; ++a)
            jtj[a * dim + a] = jtj[a * dim + a] * (1.0 + damping) + 1e-9;
        if (!locble::solve_linear_flat(jtj, jtr, delta, dim)) break;
        x += delta[0];
        h += delta[1];
        double step = std::abs(delta[0]) + std::abs(delta[1]);
        if (solve_z) {
            z += delta[2];
            g = std::clamp(g + delta[3], gamma_min, gamma_max);
            step += std::abs(delta[2]) + std::abs(delta[3]);
        } else {
            g = std::clamp(g + delta[2], gamma_min, gamma_max);
            step += std::abs(delta[2]);
        }
        if (step < 1e-6) break;
    }
    location = {x, h, z};
    gamma = g;
}

/// The solver's scoring in the configured kernel mode: the lane kernels
/// over the SoA pack, or in scalar_reference mode the public AoS reference
/// residual_stats3. Bit-identical either way by the lane contract.
ResidualStats score3(const std::vector<FusedSample3>& samples, const Soa3& soa,
                     KernelMode mode, const locble::Vec3& location, double exponent,
                     double gamma_dbm, std::vector<double>& resid) {
    if (mode == KernelMode::scalar_reference)
        return residual_stats3(samples, location, exponent, gamma_dbm);
    const std::size_t count = samples.size();
    if (count == 0) return {};
    resid.resize(count);
    double sum = 0.0, ss = 0.0;
    kernels::residual3_lanes<kW>(soa.p.data(), soa.q.data(), soa.r.data(),
                                 soa.rssi.data(), count, location.x, location.y,
                                 location.z, gamma_dbm, exponent, resid.data(), sum, ss);
    const double m2 = kernels::centered_m2_lanes<kW>(resid.data(), count,
                                                     sum / static_cast<double>(count));
    return residual_stats_from_moments(count, sum, ss, m2);
}

}  // namespace

ResidualStats residual_stats3(const std::vector<FusedSample3>& samples,
                              const locble::Vec3& location, double exponent,
                              double gamma_dbm) {
    if (samples.empty()) return {};
    std::vector<double> resid(samples.size());
    double sum = 0.0, ss = 0.0;
    kernels::residual3_ref(samples.data(), samples.size(), location.x, location.y,
                           location.z, gamma_dbm, exponent, resid.data(), sum, ss);
    const double m2 = kernels::centered_m2_ref(
        resid.data(), samples.size(), sum / static_cast<double>(samples.size()));
    return residual_stats_from_moments(samples.size(), sum, ss, m2);
}

std::optional<LocationFit3> LocationSolver3::solve(
    const std::vector<FusedSample3>& samples, const SolveHints& hints) const {
    if (samples.size() < cfg_.base.min_samples) return std::nullopt;

    // Vertical observability: does the walk move in z at all?
    double rmin = samples.front().r, rmax = samples.front().r;
    for (const auto& s : samples) {
        rmin = std::min(rmin, s.r);
        rmax = std::max(rmax, s.r);
    }
    const bool solve_z = (rmax - rmin) >= cfg_.min_vertical_spread;

    // Seed from the 2-D stack on the horizontal projection.
    std::vector<FusedSample> flat;
    flat.reserve(samples.size());
    for (const auto& s : samples)
        flat.push_back({s.t, s.p, s.q, s.rssi, s.segment});
    const LocationSolver solver2(cfg_.base);
    const auto seed = solver2.solve(flat, hints);
    if (!seed) return std::nullopt;

    double gamma_min = cfg_.base.gamma_min_dbm;
    double gamma_max = cfg_.base.gamma_max_dbm;
    if (hints.gamma_band_dbm) {
        gamma_min = std::max(gamma_min, hints.gamma_band_dbm->first);
        gamma_max = std::min(gamma_max, hints.gamma_band_dbm->second);
    }

    const Soa3 soa(samples);
    std::vector<double> resid;
    const KernelMode mode = cfg_.base.kernel_mode;

    LocationFit3 fit;
    fit.exponent = seed->exponent;
    fit.z_observable = solve_z;
    double best_rms = 1e300;
    // z is only weakly coupled; try a few starting heights and keep the best.
    const double z_starts[] = {0.0, 1.0, -1.0, 2.0};
    for (double z0 : z_starts) {
        locble::Vec3 loc{seed->location, z0};
        double g = std::clamp(seed->gamma_dbm, gamma_min, gamma_max);
        refine3(samples.data(), soa, samples.size(), mode, seed->exponent, loc, g,
                solve_z, gamma_min, gamma_max);
        const ResidualStats st =
            score3(samples, soa, mode, loc, seed->exponent, g, resid);
        if (st.rms_db < best_rms) {
            best_rms = st.rms_db;
            fit.location = loc;
            fit.gamma_dbm = g;
            fit.residual_db = st.rms_db;
            fit.confidence = st.confidence;
        }
        if (!solve_z) break;  // z frozen: every start is identical
    }
    if (best_rms >= 1e300) return std::nullopt;
    if (fit.location.xy().norm() > cfg_.base.max_range_m) return std::nullopt;
    return fit;
}

}  // namespace locble::core
