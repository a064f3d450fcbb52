#include "dse/cached_evaluator.hpp"

#include <chrono>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "spec/spec_hash.hpp"

namespace ehdse::dse {

std::size_t cached_evaluator::key_hash::operator()(
    const cache_key& key) const noexcept {
    return static_cast<std::size_t>(
        spec::evaluation_request_hash(key.config, key.eval));
}

cached_evaluator::cache_key cached_evaluator::make_key(
    const system_config& config, const evaluation_options& options) noexcept {
    return {config, options.canonicalized()};
}

cached_evaluator::cached_evaluator(const system_evaluator& inner,
                                   std::size_t capacity)
    : inner_(inner), capacity_(capacity) {
    if (capacity_ == 0)
        throw std::invalid_argument("cached_evaluator: capacity must be >= 1");
    if (auto* registry = obs::global_registry()) {
        hits_counter_ = &registry->get_counter("dse.cache.hits");
        misses_counter_ = &registry->get_counter("dse.cache.misses");
        evictions_counter_ = &registry->get_counter("dse.cache.evictions");
        size_gauge_ = &registry->get_gauge("dse.cache.size");
    }
}

void cached_evaluator::shrink_to_capacity_locked() const {
    using namespace std::chrono_literals;
    while (map_.size() > capacity_) {
        bool evicted = false;
        for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
            const auto map_it = map_.find(*it);
            if (map_it->second.result.wait_for(0s) !=
                std::future_status::ready)
                continue;  // in flight: a producer still owns this entry
            lru_.erase(std::next(it).base());
            map_.erase(map_it);
            ++stats_.evictions;
            if (evictions_counter_) evictions_counter_->add();
            evicted = true;
            break;
        }
        if (!evicted) break;  // capacity exceeded only by in-flight entries
    }
    stats_.entries = map_.size();
    if (size_gauge_) size_gauge_->set(static_cast<double>(map_.size()));
}

evaluation_result cached_evaluator::evaluate(
    const system_config& config, const evaluation_options& options) const {
    const cache_key key = make_key(config, options);

    std::promise<evaluation_result> producer;
    std::shared_future<evaluation_result> result;
    bool owner = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (const auto it = map_.find(key); it != map_.end()) {
            ++stats_.hits;
            if (hits_counter_) hits_counter_->add();
            lru_.splice(lru_.begin(), lru_, it->second.lru_it);
            result = it->second.result;
        } else {
            ++stats_.misses;
            if (misses_counter_) misses_counter_->add();
            result = producer.get_future().share();
            lru_.push_front(key);
            map_.emplace(key, entry{result, lru_.begin()});
            shrink_to_capacity_locked();
            owner = true;
        }
    }

    if (owner) {
        try {
            producer.set_value(inner_.evaluate(config, options));
        } catch (...) {
            // Waiters get the exception; the entry goes so a retry re-runs.
            producer.set_exception(std::current_exception());
            std::lock_guard<std::mutex> lock(mutex_);
            if (const auto it = map_.find(key); it != map_.end()) {
                lru_.erase(it->second.lru_it);
                map_.erase(it);
                stats_.entries = map_.size();
                if (size_gauge_)
                    size_gauge_->set(static_cast<double>(map_.size()));
            }
        }
    }
    return result.get();
}

cached_evaluator::cache_stats cached_evaluator::stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

void cached_evaluator::clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    lru_.clear();
    map_.clear();
    stats_.entries = 0;
    if (size_gauge_) size_gauge_->set(0.0);
}

}  // namespace ehdse::dse
