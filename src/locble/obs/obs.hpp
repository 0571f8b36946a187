#pragma once

// locble::obs — pipeline-wide instrumentation with zero-cost-when-off
// guarantees.
//
// Two independent switches:
//   - compile time: build with LOCBLE_OBS=0 (CMake option LOCBLE_OBS=OFF)
//     and every LOCBLE_* macro below expands to nothing — no registry
//     lookups, no branches, no clock reads anywhere in the hot path;
//   - run time: with LOCBLE_OBS=1 (the default) instrumentation still does
//     nothing until obs::Registry::global().set_enabled(true) (metrics)
//     and/or obs::Tracer::global().start() (spans). Disabled cost is one
//     relaxed atomic load + branch per macro site.
//
// Metric names are dot-separated, lowercase: <module>.<what>[.<detail>]
// (e.g. "solver.exponent_candidates", "scanner.received.ch37"). Span names
// follow the same convention. The full catalog lives in
// docs/OBSERVABILITY.md.

#include "locble/obs/metrics.hpp"
#include "locble/obs/trace.hpp"

#ifndef LOCBLE_OBS
#define LOCBLE_OBS 1
#endif

#if LOCBLE_OBS

#define LOCBLE_OBS_CONCAT2(a, b) a##b
#define LOCBLE_OBS_CONCAT(a, b) LOCBLE_OBS_CONCAT2(a, b)

/// RAII span on the global tracer; a statement, e.g. LOCBLE_SPAN("solver.solve");
#define LOCBLE_SPAN(name_literal) \
    ::locble::obs::ScopedSpan LOCBLE_OBS_CONCAT(locble_obs_span_, __LINE__)(name_literal)

/// Add `n` to a (deterministic) counter. The handle registers on first
/// enabled pass through the site and is reused afterwards.
#define LOCBLE_COUNT(name_literal, n)                                             \
    do {                                                                          \
        ::locble::obs::Registry& locble_obs_r = ::locble::obs::Registry::global();\
        if (locble_obs_r.enabled()) {                                             \
            static const ::locble::obs::Counter locble_obs_h =                    \
                locble_obs_r.counter(name_literal);                               \
            locble_obs_h.add(static_cast<std::uint64_t>(n));                      \
        }                                                                         \
    } while (0)

/// Add `n` to the deterministic counter named by the run-time string
/// `name` (LOCBLE_COUNT needs a literal: it caches one handle per site).
/// Every enabled call looks the name up under the registry mutex, so it
/// belongs at coarse publish points, never on a per-event path.
#define LOCBLE_COUNT_NAMED(name, n)                                               \
    do {                                                                          \
        ::locble::obs::Registry& locble_obs_r = ::locble::obs::Registry::global();\
        if (locble_obs_r.enabled())                                               \
            locble_obs_r.counter(name).add(static_cast<std::uint64_t>(n));        \
    } while (0)

/// Counter whose value depends on scheduling (excluded from bench JSON).
#define LOCBLE_COUNT_ND(name_literal, n)                                          \
    do {                                                                          \
        ::locble::obs::Registry& locble_obs_r = ::locble::obs::Registry::global();\
        if (locble_obs_r.enabled()) {                                             \
            static const ::locble::obs::Counter locble_obs_h =                    \
                locble_obs_r.counter(name_literal, /*deterministic=*/false);      \
            locble_obs_h.add(static_cast<std::uint64_t>(n));                      \
        }                                                                         \
    } while (0)

/// High-water-mark gauge whose value depends on scheduling (queue depth...).
#define LOCBLE_GAUGE_MAX_ND(name_literal, v)                                      \
    do {                                                                          \
        ::locble::obs::Registry& locble_obs_r = ::locble::obs::Registry::global();\
        if (locble_obs_r.enabled()) {                                             \
            static const ::locble::obs::GaugeMax locble_obs_h =                   \
                locble_obs_r.gauge_max(name_literal, /*deterministic=*/false);    \
            locble_obs_h.record(static_cast<double>(v));                          \
        }                                                                         \
    } while (0)

/// Record into a fixed-bucket histogram; trailing args are the inclusive
/// upper bucket edges, fixed at the first enabled pass.
#define LOCBLE_HISTOGRAM(name_literal, v, ...)                                    \
    do {                                                                          \
        ::locble::obs::Registry& locble_obs_r = ::locble::obs::Registry::global();\
        if (locble_obs_r.enabled()) {                                             \
            static const ::locble::obs::Histogram locble_obs_h =                  \
                locble_obs_r.histogram(name_literal,                              \
                                       std::vector<double>{__VA_ARGS__});         \
            locble_obs_h.record(static_cast<double>(v));                          \
        }                                                                         \
    } while (0)

/// Record into an exact fixed-resolution quantile sketch (deterministic:
/// merge is per-bucket u64 sum, so p50/p95/p99 from the merged sketch are
/// byte-identical for any thread count). `upper`/`resolution` fix the
/// uniform bucketing at the first enabled pass and must match at every
/// site sharing the name. Only for *event-time* values (staleness, queue
/// residency); wall-clock quantiles are ND by nature and stay out of bench
/// JSON per the PR-2 rules.
#define LOCBLE_QUANTILE(name_literal, v, upper, resolution)                       \
    do {                                                                          \
        ::locble::obs::Registry& locble_obs_r = ::locble::obs::Registry::global();\
        if (locble_obs_r.enabled()) {                                             \
            static const ::locble::obs::Quantile locble_obs_h =                   \
                locble_obs_r.quantile(name_literal, (upper), (resolution));       \
            locble_obs_h.record(static_cast<double>(v));                          \
        }                                                                         \
    } while (0)

/// Chrome-trace counter sample ("C" phase event) on the global tracer:
/// Perfetto renders the series as a load graph alongside the spans (queue
/// depth, live sessions). Traces are for humans — not part of the
/// determinism contract.
#define LOCBLE_TRACE_COUNTER(name_literal, v)                                     \
    do {                                                                          \
        ::locble::obs::Tracer& locble_obs_t = ::locble::obs::Tracer::global();    \
        if (locble_obs_t.enabled())                                               \
            locble_obs_t.counter(name_literal, static_cast<double>(v));           \
    } while (0)

/// Scheduling-dependent histogram (excluded from bench JSON), e.g. the
/// per-worker task-count distribution.
#define LOCBLE_HISTOGRAM_ND(name_literal, v, ...)                                 \
    do {                                                                          \
        ::locble::obs::Registry& locble_obs_r = ::locble::obs::Registry::global();\
        if (locble_obs_r.enabled()) {                                             \
            static const ::locble::obs::Histogram locble_obs_h =                  \
                locble_obs_r.histogram(name_literal,                              \
                                       std::vector<double>{__VA_ARGS__},          \
                                       /*deterministic=*/false);                  \
            locble_obs_h.record(static_cast<double>(v));                          \
        }                                                                         \
    } while (0)

#else  // !LOCBLE_OBS — every instrumentation site compiles away entirely.

// sizeof keeps the operands syntactically used (no -Wunused warnings on
// values only fed to instrumentation) without ever evaluating them.
#define LOCBLE_SPAN(name_literal) ((void)0)
#define LOCBLE_COUNT(name_literal, n) ((void)sizeof(n))
#define LOCBLE_COUNT_NAMED(name, n) ((void)sizeof(name), (void)sizeof(n))
#define LOCBLE_COUNT_ND(name_literal, n) ((void)sizeof(n))
#define LOCBLE_GAUGE_MAX_ND(name_literal, v) ((void)sizeof(v))
#define LOCBLE_HISTOGRAM(name_literal, v, ...) ((void)sizeof(v))
#define LOCBLE_HISTOGRAM_ND(name_literal, v, ...) ((void)sizeof(v))
#define LOCBLE_QUANTILE(name_literal, v, upper, resolution) ((void)sizeof(v))
#define LOCBLE_TRACE_COUNTER(name_literal, v) ((void)sizeof(v))

#endif  // LOCBLE_OBS
