// Thread-safe memoising wrapper over system_evaluator::evaluate(). An
// evaluation is a pure function of (system_config, evaluation_options) —
// the evaluator's physics are fixed at construction and every stochastic
// stream is seeded through the options — so identical requests (optimiser
// revisits of the same design point, repeated baselines) can return the
// stored result instead of re-integrating an hour of ODE: an answer never
// depends on the requests that came before it.
//
// Keying: the key is the CANONICALIZED (system_config, evaluation_options)
// pair of the spec layer — spec::evaluation_request_hash routes buckets
// and full canonical equality (defaulted field-wise operator==) decides,
// so adding a field to either struct automatically participates in
// equality with no hand-maintained mirror to forget (a stale hash can
// only cost a bucket collision, never a false hit). Canonicalisation
// means observably equivalent requests share an entry: distinct seeds,
// fidelities and effective front-ends never collide, while fields the
// run cannot observe (trace interval with tracing off, front-end choice
// under transient fidelity, mppt efficiency without the mppt front-end)
// no longer force a re-simulation. Eviction is LRU with a fixed capacity.
//
// Concurrency: lookups are single-flight. The first thread to request a
// key runs the simulation; concurrent requests for the same key block on
// a shared future and receive the same result — the pool never burns two
// workers on one configuration. If the producing evaluation throws, every
// waiter receives the exception and the entry is removed so a later call
// retries.
//
// Observability: when a global metrics registry is installed at
// construction, hits/misses/evictions land in the dse.cache.* counters
// and dse.cache.size gauge; stats() reports the same numbers without any
// registry.
#pragma once

#include <cstdint>
#include <future>
#include <list>
#include <mutex>
#include <unordered_map>

#include "dse/system_evaluator.hpp"

namespace ehdse::obs {
class counter;
class gauge;
}  // namespace ehdse::obs

namespace ehdse::dse {

class cached_evaluator {
public:
    struct cache_stats {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t evictions = 0;
        std::size_t entries = 0;

        double hit_rate() const noexcept {
            const std::uint64_t total = hits + misses;
            return total == 0
                       ? 0.0
                       : static_cast<double>(hits) / static_cast<double>(total);
        }
    };

    /// Wrap `inner` (caller-owned; must outlive this object). `capacity`
    /// bounds the number of retained results; throws std::invalid_argument
    /// when zero.
    explicit cached_evaluator(const system_evaluator& inner,
                              std::size_t capacity = 128);

    /// As system_evaluator::evaluate, memoised. Safe to call concurrently.
    evaluation_result evaluate(const system_config& config,
                               const evaluation_options& options = {}) const;

    cache_stats stats() const;

    /// Drop every cached entry (hit/miss/eviction totals are kept).
    void clear();

    std::size_t capacity() const noexcept { return capacity_; }
    const system_evaluator& inner() const noexcept { return inner_; }

private:
    /// Canonical request: full structs, defaulted exact equality — every
    /// present AND future field participates without a mirror.
    struct cache_key {
        system_config config;
        evaluation_options eval;

        bool operator==(const cache_key&) const = default;
    };
    struct key_hash {
        std::size_t operator()(const cache_key& key) const noexcept;
    };
    struct entry {
        std::shared_future<evaluation_result> result;
        std::list<cache_key>::iterator lru_it;
    };

    static cache_key make_key(const system_config& config,
                              const evaluation_options& options) noexcept;
    /// Caller holds mutex_. Evicts ready entries (never in-flight ones)
    /// from the cold end until the map fits the capacity, then refreshes
    /// the size bookkeeping.
    void shrink_to_capacity_locked() const;

    const system_evaluator& inner_;
    std::size_t capacity_;

    mutable std::mutex mutex_;
    mutable std::list<cache_key> lru_;  ///< front = most recently used
    mutable std::unordered_map<cache_key, entry, key_hash> map_;
    mutable cache_stats stats_;

    obs::counter* hits_counter_ = nullptr;
    obs::counter* misses_counter_ = nullptr;
    obs::counter* evictions_counter_ = nullptr;
    obs::gauge* size_gauge_ = nullptr;
};

}  // namespace ehdse::dse
