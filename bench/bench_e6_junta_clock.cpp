// E6 — junta-driven subpopulation clocks (Lemma 7): on a subpopulation of
// size x_j inside a population of n agents, the clock completes hours at
// spacing Θ(n²/x_j · log n) global interactions, and the junta has size
// between 1 and x_j^0.98.  Smaller subpopulations therefore tick slower —
// the engine behind the pruning phase.
#include <benchmark/benchmark.h>

#include "bench/bench_common.h"

#include <cmath>
#include <vector>

#include "clocks/junta.h"
#include "clocks/junta_clock.h"
#include "sim/convergence.h"
#include "sim/rng.h"
#include "sim/simulation.h"
#include "util/math.h"

namespace {

using namespace plurality;
using namespace plurality::clocks;

/// A diluted junta clock: only `subpopulation` of the n agents participate,
/// and clock/junta steps run on *meaningful* interactions (both members)
/// only — exactly Algorithm 5's setting with one opinion of interest.
struct diluted_agent {
    bool member = false;
    junta_clock_agent inner;
};

class diluted_clock_protocol {
public:
    using agent_t = diluted_agent;

    diluted_clock_protocol(std::uint32_t max_level, std::uint32_t hour_length,
                           std::uint32_t hour_cap)
        : inner_(max_level, hour_length, hour_cap) {}

    void interact(agent_t& initiator, agent_t& responder, sim::rng& gen) const noexcept {
        if (initiator.member && responder.member) {
            inner_.interact(initiator.inner, responder.inner, gen);
        }
    }

private:
    junta_clock_protocol inner_;
};

struct clock_measurement {
    double first_hour_pt = 0.0;       ///< parallel time until the first agent's hour 1
    double hour_spacing_pt = 0.0;     ///< mean spacing of subsequent hours
    double junta_size = 0.0;
};

clock_measurement measure(std::uint32_t n, std::uint32_t x, std::uint64_t seed) {
    const std::uint32_t hours_to_track = 4;
    diluted_clock_protocol proto{util::junta_max_level(n, 2), 8, hours_to_track + 2};
    std::vector<diluted_agent> agents(n);
    for (std::uint32_t i = 0; i < x; ++i) agents[i].member = true;
    sim::simulation<diluted_clock_protocol> s{std::move(proto), std::move(agents), seed};

    const auto max_sub_hours = [](const auto& sim) {
        std::uint32_t hi = 0;
        for (const auto& a : sim.agents())
            if (a.member) hi = std::max(hi, a.inner.hours);
        return hi;
    };

    clock_measurement m;
    std::vector<double> hour_times;
    const double budget =
        4000.0 * (static_cast<double>(n) / x) * (static_cast<double>(n) / x) * std::log2(n);
    for (std::uint32_t h = 1; h <= hours_to_track; ++h) {
        const auto reached = sim::converge(
            s, [&](const auto& sim) { return max_sub_hours(sim) >= h; },
            static_cast<std::uint64_t>(budget) * n, n / 2);
        if (!reached.converged) break;
        hour_times.push_back(s.parallel_time());
    }
    if (!hour_times.empty()) m.first_hour_pt = hour_times.front();
    if (hour_times.size() >= 2) {
        m.hour_spacing_pt =
            (hour_times.back() - hour_times.front()) / (hour_times.size() - 1);
    }
    std::size_t junta = 0;
    for (const auto& a : s.agents())
        if (a.member && a.inner.junta.member) ++junta;
    m.junta_size = static_cast<double>(junta);
    return m;
}

void BM_JuntaClock(benchmark::State& state) {
    const auto n = static_cast<std::uint32_t>(state.range(0));
    const auto x = static_cast<std::uint32_t>(state.range(1));
    for (auto _ : state) {
        const auto m = measure(n, x, 0xe6000 + n + x);
        state.counters["first_hour_pt"] = m.first_hour_pt;
        state.counters["hour_spacing_pt"] = m.hour_spacing_pt;
        state.counters["junta_size"] = m.junta_size;
        state.counters["x_pow_098"] = std::pow(static_cast<double>(x), 0.98);
        // Lemma 7 predicts spacing ∝ (n/x)·log n in parallel time
        // (= n²/x · log n interactions); this ratio should be ~constant.
        state.counters["spacing_per_pred"] =
            m.hour_spacing_pt / ((static_cast<double>(n) / x) * std::log2(n));
    }
}
BENCHMARK(BM_JuntaClock)
    ->Args({4096, 4096})
    ->Args({4096, 2048})
    ->Args({4096, 1024})
    ->Args({4096, 512})
    ->Args({2048, 1024})
    ->Args({2048, 256})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

PLURALITY_BENCH_MAIN();
