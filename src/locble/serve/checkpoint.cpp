// Service checkpoint/restore — the wire-format (docs/WIRE.md) serialization
// of a quiescent TrackingService: its stats, the flight-recorder ring and
// every client's queues, pose track and per-beacon sessions. Clients are
// written in global id order with their shard assignment left implicit
// (shard_of recomputes it at restore against the restoring service's own
// shard count), so a checkpoint taken at 8 shards restores into 1 — or vice
// versa — and the continuation stays bit-identical either way. The `meta`
// and `client` sections are shard-count-free; `recorder` is not (one row
// per shard, plus wall-clock durations).
//
// Every struct is encoded through its one field list, visited by the Writer
// and the Reader below: the lists are the byte layout. Reordering, retyping
// or adding an entry bumps kCkptFormat and re-pins
// tests/serve/test_checkpoint.cpp.

#include <algorithm>
#include <cmath>
#include <concepts>
#include <cstddef>
#include <map>
#include <optional>
#include <ranges>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "locble/serve/service.hpp"
#include "locble/wire/log.hpp"

namespace locble::serve {

namespace {

/// Version of the checkpoint *content* layout inside the wire envelope
/// (the field lists). Bumped independently of wire::kVersion.
constexpr std::uint32_t kCkptFormat = 2;

[[noreturn]] void fail(wire::WireStatus code, const std::string& what) {
    throw wire::WireError(code, "TrackingService checkpoint: " + what);
}

std::uint64_t fnv1a(std::string_view s) {
    std::uint64_t h = 1469598103934665603ull;
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    return h;
}

/// `S` is `T`, possibly const: one list serves the Writer (const state)
/// and the Reader (mutable state).
template <class S, class T>
concept Of = std::same_as<std::remove_const_t<S>, T>;

// Field lists of the leaf types from core/, dsp/, motion/ and common/, kept
// beside their only serializer so those modules stay unaware of the wire
// format. serve structs carry their own lists (`T::fields`), and so does the
// solver workspace's private warm grid (SolverWorkspace::warm_grid_fields).
// Every list opens by binding all of its struct's members, so a member
// added without a decision here fails to compile.
template <Of<locble::Vec2> S, class V>
void fields(S& s, V& v) {
    auto& [x, y] = s;
    v(x, y);
}
template <Of<core::FusedSample> S, class V>
void fields(S& s, V& v) {
    auto& [t, p, q, rssi, segment] = s;
    v(t, p, q, rssi, segment);
}
template <Of<core::LocationFit> S, class V>
void fields(S& s, V& v) {
    auto& [location, exponent, gamma_dbm, segment_gammas, residual_db, confidence,
           ambiguous] = s;
    v(location, exponent, gamma_dbm, segment_gammas, residual_db, confidence, ambiguous);
}
template <Of<core::EnvAware::StreamState> S, class V>
void fields(S& s, V& v) {
    auto& [regime, pending, pending_count] = s;
    v(regime, pending, pending_count);
}
template <Of<dsp::Anf::State> S, class V>
void fields(S& s, V& v) {
    auto& [sections, akf, primed, last_bf] = s;
    v(sections, akf, primed, last_bf);
}
template <Of<dsp::AdaptiveKalman::State> S, class V>
void fields(S& s, V& v) {
    auto& [x, p, initialized, bias] = s;
    v(x, p, initialized, bias);
}
template <Of<motion::TimedPosition> S, class V>
void fields(S& s, V& v) {
    auto& [t, position] = s;
    v(t, position);
}

// Config lists, visited only by the Writer that config_digest runs: every
// value a session's results depend on, in digest byte order, including the
// named constants that replaced knobs (docs/WIRE.md).
template <Of<core::LocationSolver::Config> S, class V>
void fields(S& s, V& v) {
    using Solver = core::LocationSolver;
    // kernel_mode is left out: both modes fit bit-identically (lane contract).
    auto& [exponent_step, use_wls, use_gn_refinement, use_model_averaging, search_mode,
           kernel_mode] = s;
    v(Solver::kExponentMin, Solver::kExponentMax, exponent_step, Solver::kMinSamples,
      Solver::kMinLateralSpread, Solver::kMaxRangeM, Solver::kGammaMinDbm,
      Solver::kGammaMaxDbm, use_wls, use_gn_refinement, use_model_averaging, search_mode);
}
template <Of<core::LocBle::Config> S, class V>
void fields(S& s, V& v) {
    using dsp::AdaptiveKalman, dsp::Anf;
    // The ANF's design: order, cutoff, rate, then the Kalman gains.
    auto& [solver, use_anf, use_envaware, gamma_prior_dbm, gamma_prior_below_db,
           gamma_prior_above_db] = s;
    v(Anf::kButterworthOrder, Anf::kCutoffHz, Anf::kSampleRateHz, AdaptiveKalman::kQ,
      AdaptiveKalman::kRFiltered, AdaptiveKalman::kRRaw, AdaptiveKalman::kBiasAlpha,
      AdaptiveKalman::kAdaptGain, solver, core::BatchLoop::kBatchSeconds, use_anf,
      use_envaware, gamma_prior_dbm, gamma_prior_below_db, gamma_prior_above_db);
}

}  // namespace

/// The befriended codec: the only code that reaches past the service's,
/// shard's and session's public surfaces. Checkpoint/restore semantics —
/// what is carried, what is recomputed — are documented in docs/WIRE.md.
struct CheckpointCodec {
    /// The `meta` section after its format number and config digest: the
    /// service's two stats views and the recorder baseline. `epoch` repeats
    /// the views' `epochs` count.
    struct Meta {
        std::uint64_t epoch{0};
        bool has_horizon{false};
        double horizon{0.0};
        double epoch_horizon{0.0};
        IngestStats barrier, live, last_record;
        std::uint64_t clients{0};

        template <class Self, class Visitor>
        static void fields(Self& s, Visitor& v) {
            auto& [epoch, has_horizon, horizon, epoch_horizon, barrier, live, last_record,
                   clients] = s;
            v.fixed_u64(epoch);
            v(has_horizon, horizon, epoch_horizon, barrier, live, last_record, clients);
        }
    };

    /// Encodes by type — bool8, f64, svarint for int, varint for unsigned,
    /// u8 for enums; an optional as its presence flag and value (default when
    /// absent); a container as a varint count and its elements; any other
    /// struct through its field list.
    struct Writer {
        wire::ByteWriter& w;

        template <class... T>
        void operator()(const T&... xs) {
            (put(xs), ...);
        }
        void fixed_u64(std::uint64_t v) { w.u64(v); }

        void put(bool v) { w.bool8(v); }
        void put(double v) { w.f64(v); }
        void put(int v) { w.svarint(v); }
        template <std::unsigned_integral U>
        void put(const U& v) { w.varint(v); }
        template <class E>
            requires std::is_enum_v<E>
        void put(const E& e) { w.u8(static_cast<std::uint8_t>(e)); }
        template <class T>
        void put(const std::optional<T>& o) {
            put(o.has_value());
            put(o ? *o : T{});
        }
        template <class A, class B>
        void put(const std::pair<A, B>& p) {
            put(p.first);
            put(p.second);
        }
        template <std::ranges::sized_range C>
        void put(const C& c) {
            w.varint(c.size());
            for (const auto& x : c) put(x);
        }
        void put(const IngestStats& s) {
            for (const IngestStatsField& f : kIngestStatsFields) put(s.*f.value);
        }
        void put(const obs::QuantileSketch& s) {
            put(s.configured());
            if (!s.configured()) return;
            w.f64(s.upper_bound());
            w.varint(s.resolution());
            w.varint(s.count());
            w.f64(s.max());
            for (const std::uint64_t b : s.buckets()) w.varint(b);  // resolution + 1
        }
        void put(const dsp::Anf& anf) { put(anf.checkpoint_state()); }
        void put(const std::optional<core::EnvAware>& env) {
            put(env.has_value());
            put(env ? env->stream_state() : core::EnvAware::StreamState{});
        }
        /// The samples and then the warm grid, both in place.
        void put(const core::LocationSolver::Session& s) {
            put(s.samples());
            core::SolverWorkspace::warm_grid_fields(s.workspace(), *this);
        }
        void warm_points(std::size_t n) { w.varint(n); }
        template <class T>
        void put(const T& x) {
            if constexpr (requires { T::fields(x, *this); })
                T::fields(x, *this);
            else
                fields(x, *this);
        }
    };

    /// The Writer's inverse, and the one place checkpoint input is
    /// validated: counts are bounded by the bytes present, integers by
    /// their field's type, enum values, sketch parameters, warm grid bands
    /// and session segments are range-checked, verbatim copies of submitted
    /// values must be finite, and semantic damage fails `malformed` right
    /// here (the meta section's cross-checks follow its read in restore()).
    struct Reader {
        wire::ByteReader& r;
        /// The shard that builds restored sessions (set per client).
        Shard* shard{nullptr};

        template <class... T>
        void operator()(T&... xs) {
            (get(xs), ...);
        }
        void fixed_u64(std::uint64_t& v) { v = r.u64(); }

        void get(bool& v) { v = r.bool8(); }
        void get(double& v) { v = r.f64(); }
        void get(int& v) { v = narrow<int>(r.svarint()); }
        template <std::unsigned_integral U>
        void get(U& v) { v = narrow<U>(r.varint()); }
        void get(EventKind& k) { k = checked(EventKind::pose); }
        void get(channel::PropagationClass& c) {
            c = checked(channel::PropagationClass::nlos);
        }
        template <class T>
        void get(std::optional<T>& o) {
            bool has = false;
            T v{};
            get(has);
            get(v);
            o.reset();
            if (has) o = v;
        }
        template <class A, class B>
        void get(std::pair<A, B>& p) {
            get(p.first);
            get(p.second);
        }
        template <std::ranges::sized_range C>  // vector, deque
        void get(C& c) {
            c.resize(count());
            for (auto& x : c) get(x);
        }
        void get(std::map<BeaconId, TrackingSession>& sessions) {
            const std::size_t n = count();
            for (std::size_t i = 0; i < n && r.ok(); ++i) {
                BeaconId beacon = 0;
                get(beacon);
                auto [it, created] = shard->emplace_session(sessions, beacon);
                if (!created) fail(wire::WireStatus::malformed, "duplicate session");
                get(it->second);
            }
        }
        void get(IngestStats& s) {
            for (const IngestStatsField& f : kIngestStatsFields) get(s.*f.value);
        }
        // Verbatim copies of submitted values must be finite, as submit()
        // requires: a queued event and its queue's newest time, a pose-track
        // point, a sample's time and a recorded horizon (the open batch's
        // raw RSSI and the loop's newest time are checked with their
        // session, the service horizons with the meta section). Derived
        // values (a sample's p, q and denoised RSSI) are not checked; the
        // one exception, the loop's batch end, is checked with its session.
        void get(Event& e) {
            Event::fields(e, *this);
            if (!is_finite(e))
                fail(wire::WireStatus::malformed, "non-finite queued event");
        }
        void get(Shard::IngestQueue& q) {
            Shard::IngestQueue::fields(q, *this);
            if (!std::isfinite(q.last_event_t))
                fail(wire::WireStatus::malformed, "non-finite queue event time");
        }
        void get(EpochRecord& rec) {
            EpochRecord::fields(rec, *this);
            if (!std::isfinite(rec.horizon))
                fail(wire::WireStatus::malformed, "non-finite recorded horizon");
        }
        void get(motion::TimedPosition& p) {
            fields(p, *this);
            if (!std::isfinite(p.t) || !std::isfinite(p.position.x) ||
                !std::isfinite(p.position.y))
                fail(wire::WireStatus::malformed, "non-finite pose");
        }
        void get(core::FusedSample& s) {
            fields(s, *this);
            if (!std::isfinite(s.t))
                fail(wire::WireStatus::malformed, "non-finite sample time");
        }
        void get(obs::QuantileSketch& out) {
            if (!r.bool8()) {
                out = obs::QuantileSketch{};
                return;
            }
            const double upper = r.f64();
            const auto resolution = narrow<std::uint32_t>(r.varint());
            const std::uint64_t n = r.varint();
            const double max = r.f64();
            if (resolution == 0 || !(upper > 0.0) ||
                static_cast<std::uint64_t>(resolution) + 1 > r.remaining()) {
                r.bytes(r.remaining() + 1);  // corrupted parameters: latch failure
                return;
            }
            std::vector<std::uint64_t> buckets(static_cast<std::size_t>(resolution) + 1);
            for (auto& b : buckets) b = r.varint();
            if (!r.ok()) return;
            out.restore(upper, resolution, std::move(buckets), n, max);
        }
        void get(dsp::Anf& anf) {
            dsp::Anf::State st;
            get(st);
            anf.restore_state(st);  // throws std::invalid_argument on a foreign design
        }
        void get(std::optional<core::EnvAware>& env) {
            bool has = false;
            core::EnvAware::StreamState st;
            get(has);
            get(st);
            if (has && env) env->restore_stream(st);
        }
        void get(core::LocationSolver::Session& s) {
            std::vector<core::FusedSample> samples;
            get(samples);
            // Re-adding the samples rebuilds every incremental solver fold
            // bit-identically (exhaustive mode is exact by the Session
            // contract; coarse_to_fine additionally needs the warm grid).
            s.reset();
            s.add(samples);
            core::SolverWorkspace::warm_grid_fields(s.workspace(), *this);
        }
        /// A warm grid band is enumerated before its points are read, so an
        /// implausible one must not drive an unbounded loop or allocation.
        void warm_band(double n_min, double n_max, double step) {
            if (!(step > 0.0) || !(n_min <= n_max) || !std::isfinite(n_min) ||
                !std::isfinite(n_max) || (n_max - n_min) / step > 1e6)
                fail(wire::WireStatus::malformed, "implausible warm grid band");
        }
        void warm_points(std::size_t n) {
            if (count() != n)
                fail(wire::WireStatus::malformed,
                     "warm grid point count does not match its band");
        }
        void get(TrackingSession& s) {
            TrackingSession::fields(s, *this);
            // The solver sizes and indexes its per-segment arrays by sample
            // segment. A session's segment changes only in a flush, by one
            // step or back to 0 on a sample-cap reset that empties the
            // samples, and the flush then appends a non-empty batch tagged
            // with it. So the samples start in segment 0, step up by at
            // most one from each to the next, and the newest carries the
            // session's segment (0 with none): segment < samples.size(),
            // which the bytes present bound.
            const core::BatchLoop& loop = s.loop_;
            int segment = 0;
            bool first = true;
            for (const core::FusedSample& x : loop.samples()) {
                if (x.segment != segment && (first || x.segment != segment + 1))
                    fail(wire::WireStatus::malformed, "sample segment out of order");
                segment = x.segment;
                first = false;
            }
            if (loop.segment() != segment)
                fail(wire::WireStatus::malformed, "session segment out of range");
            const std::vector<double>& open = loop.open_batch_rssi();
            const auto finite = [](double x) { return std::isfinite(x); };
            if (!std::isfinite(loop.last_t()) ||
                !std::all_of(open.begin(), open.end(), finite))
                fail(wire::WireStatus::malformed, "non-finite session event value");
            // The batch end is a sample's time plus 2 s steps, or a time
            // where the walk cannot step, so it is always finite. A NaN or
            // +inf one would never close a window again (close() needs
            // t > batch end): the open batch would grow without bound and
            // the session never solve.
            if (!std::isfinite(loop.batch_end()))
                fail(wire::WireStatus::malformed, "non-finite batch end");
        }
        template <class T>
        void get(T& x) {
            if constexpr (requires { T::fields(x, *this); })
                T::fields(x, *this);
            else
                fields(x, *this);
        }

        /// Element count for a following loop, bounded by the bytes
        /// actually present: every element costs at least one byte, so a
        /// count beyond remaining() can only come from corruption — latch
        /// failure instead of letting a forged length drive a giant
        /// allocation loop.
        std::size_t count() {
            const std::uint64_t n = r.varint();
            if (n > r.remaining()) {
                r.bytes(r.remaining() + 1);  // latch failed()
                return 0;
            }
            return static_cast<std::size_t>(n);
        }

        /// A wire integer as the field's narrower type: a value out of its
        /// range is damage, never wrapped into range.
        template <class T, class W>
        static T narrow(W x) {
            if (!std::in_range<T>(x))
                fail(wire::WireStatus::malformed, "integer out of range");
            return static_cast<T>(x);
        }

        template <class E>
        E checked(E last) {
            const std::uint8_t v = r.u8();
            if (v > static_cast<std::uint8_t>(last))
                fail(wire::WireStatus::malformed, "enum value out of range");
            return static_cast<E>(v);
        }
    };

    /// Digest of every *result-affecting* config field: the Writer run over
    /// the config field lists, hashed. The lists leave out shards/threads
    /// (results are invariant to them by the serve determinism contract)
    /// and the solver kernel mode (bit-identical by the lane determinism
    /// contract). A trained EnvAware model is outside the digest: the
    /// caller must supply the same model, as documented on
    /// restore_checkpoint().
    static std::uint64_t config_digest(const TrackingService::Config& cfg) {
        wire::ByteWriter w;
        Writer{w}(cfg);
        return fnv1a(w.data());
    }

    static std::string checkpoint(const TrackingService& svc) {
        wire::LogWriter log(wire::StreamKind::checkpoint);

        // Gather the fleet in global client order. The per-shard ingest maps
        // are unordered — collect into an ordered map (the determinism-lint
        // idiom), so the bytes carry no trace of hash order or shard count.
        std::map<ClientId, const Shard*> fleet;
        for (const auto& sp : svc.shards_) {
            for (const auto& [id, q] : sp->ingest_) fleet.emplace(id, sp.get());
            for (const auto& [id, c] : sp->clients_) fleet.emplace(id, sp.get());
        }

        wire::ByteWriter body;
        Writer put{body};
        body.u32(kCkptFormat);
        body.u64(config_digest(svc.cfg_));
        put(Meta{svc.stats_.epochs, svc.has_horizon_, svc.horizon_, svc.epoch_horizon_,
                 svc.barrier_stats_, svc.stats_, svc.last_record_stats_, fleet.size()});
        log.section("meta", body.data());

        body.clear();
        put(svc.recorder_.epochs_recorded(), svc.recorder_.records());
        log.section("recorder", body.data());

        // One section per client: its id, then the ingest queue and the
        // resident state, each behind a presence flag.
        for (const auto& [id, shard] : fleet) {
            body.clear();
            const auto q = shard->ingest_.find(id);
            const auto c = shard->clients_.find(id);
            put(id, q != shard->ingest_.end());
            if (q != shard->ingest_.end()) put(q->second);
            put(c != shard->clients_.end());
            if (c != shard->clients_.end()) put(c->second);
            log.section("client", body.data());
        }
        return log.finish();
    }

    static void restore(TrackingService& svc, std::string_view bytes) {
        if (svc.stats_ != IngestStats{} || svc.has_horizon_ || svc.in_flight_)
            throw std::logic_error(
                "TrackingService::restore_checkpoint: service is not freshly "
                "constructed");
        // read() fills the recorder and the shards as it goes and sets the
        // stats last, so a throw leaves the stats fresh; put the rest back
        // the way construction left it, and the service can take another
        // checkpoint.
        try {
            read(svc, bytes);
        } catch (...) {
            for (auto& sp : svc.shards_) {
                sp->ingest_.clear();
                sp->clients_.clear();
                sp->dirty_.clear();
                sp->live_sessions_ = 0;
            }
            svc.recorder_.clear();
            throw;
        }
    }

    static void read(TrackingService& svc, std::string_view bytes) {
        wire::LogReader log(bytes);
        if (log.header_status() != wire::WireStatus::ok)
            fail(log.header_status(), "invalid header");
        if (log.kind() != wire::StreamKind::checkpoint)
            fail(wire::WireStatus::malformed, "stream is not a checkpoint");

        // The next frame, which must be a `name` section; false at the clean
        // end. Every section body must then be read exactly to its end.
        wire::LogRecord frame;
        const auto next_section = [&](const std::string& name) {
            const wire::WireStatus st = log.next(frame);
            if (st == wire::WireStatus::end) return false;
            if (st != wire::WireStatus::ok) fail(st, "reading " + name + " section");
            if (frame.type != wire::FrameType::section || frame.section_name != name)
                fail(wire::WireStatus::malformed, "expected a " + name + " section");
            return true;
        };
        const auto read_to_end = [](const wire::ByteReader& r, const std::string& name) {
            if (!r.ok() || !r.at_end())
                fail(wire::WireStatus::malformed, name + " section");
        };

        // --- meta (must come first: the digest gates everything else) ---
        if (!next_section("meta")) fail(wire::WireStatus::malformed, "no meta section");
        wire::ByteReader mr(frame.section_body);
        if (mr.u32() != kCkptFormat)
            fail(wire::WireStatus::unknown_version, "unknown checkpoint format");
        if (mr.u64() != config_digest(svc.cfg_))
            fail(wire::WireStatus::config_mismatch,
                 "checkpoint was taken under a different service config");
        Meta meta;
        Reader{mr}(meta);
        read_to_end(mr, "meta");
        if (meta.live.epochs != meta.epoch || meta.barrier.epochs != meta.epoch)
            fail(wire::WireStatus::malformed, "epoch does not match the stats");
        // The horizon is the newest submitted time, and the epoch horizon a
        // copy of it.
        if (!std::isfinite(meta.horizon) || !std::isfinite(meta.epoch_horizon))
            fail(wire::WireStatus::malformed, "non-finite horizon");

        // --- recorder ---
        if (!next_section("recorder"))
            fail(wire::WireStatus::malformed, "no recorder section");
        wire::ByteReader rr(frame.section_body);
        std::uint64_t epochs_recorded = 0;
        std::vector<EpochRecord> records;
        Reader{rr}(epochs_recorded, records);
        read_to_end(rr, "recorder");
        svc.recorder_.restore(std::move(records), epochs_recorded);

        // --- clients ---
        const auto nshards = static_cast<std::uint32_t>(svc.shards_.size());
        std::uint64_t restored = 0;
        while (next_section("client")) {
            wire::ByteReader cr(frame.section_body);
            Reader get{cr};
            ClientId id = 0;
            bool queued = false, resident = false;
            get(id, queued);
            Shard& shard = *svc.shards_[shard_of(id, nshards)];
            if (queued) {
                auto [q, fresh] = shard.ingest_.try_emplace(id);
                if (!fresh) fail(wire::WireStatus::malformed, "duplicate client");
                get(q->second);
            }
            get(resident);
            if (resident) {
                auto [c, fresh] = shard.clients_.try_emplace(id);
                if (!fresh) fail(wire::WireStatus::malformed, "duplicate client");
                get.shard = &shard;
                try {
                    get(c->second);
                } catch (const std::invalid_argument& ex) {
                    fail(wire::WireStatus::malformed, ex.what());
                }
            }
            read_to_end(cr, "client");
            ++restored;
        }
        if (restored != meta.clients)
            fail(wire::WireStatus::malformed,
                 "client count does not match meta");

        // Per-shard live-session counts, and the incremental-snapshot dirty
        // lists rebuilt in (client, beacon) order from the serialized
        // dirty_listed marks. The original lists were in worker discovery
        // order, but snapshot assembly sorts its rows globally — the order
        // here is unobservable.
        for (auto& sp : svc.shards_) {
            Shard& s = *sp;
            for (auto& [id, cs] : s.clients_) {
                s.live_sessions_ += cs.sessions.size();
                for (auto& [beacon, session] : cs.sessions)
                    if (session.dirty_listed()) s.dirty_.emplace_back(id, beacon);
            }
        }

        // Shards hold no counts between epochs, so the stats are the two
        // views as checkpointed, wherever the clients now hash.
        svc.stats_ = meta.live;
        svc.barrier_stats_ = meta.barrier;
        svc.last_record_stats_ = meta.last_record;
        svc.has_horizon_ = meta.has_horizon;
        svc.horizon_ = meta.horizon;
        svc.epoch_horizon_ = meta.epoch_horizon;
    }
};

std::string TrackingService::checkpoint() const {
    if (in_flight_)
        throw std::logic_error("TrackingService::checkpoint: epoch in flight");
    return CheckpointCodec::checkpoint(*this);
}

void TrackingService::restore_checkpoint(std::string_view bytes) {
    CheckpointCodec::restore(*this, bytes);
}

}  // namespace locble::serve
